#include "kernels/microbench_kernels.hpp"

#include <omp.h>

namespace sparta::kernels {

aligned_vector<index_t> regularized_colind(const CsrMatrix& a) {
  aligned_vector<index_t> colind(static_cast<std::size_t>(a.nnz()));
  const auto rowptr = a.rowptr();
  const index_t nrows = a.nrows();
  for (index_t i = 0; i < nrows; ++i) {
    for (offset_t j = rowptr[static_cast<std::size_t>(i)];
         j < rowptr[static_cast<std::size_t>(i) + 1]; ++j) {
      colind[static_cast<std::size_t>(j)] = i;
    }
  }
  return colind;
}

TimedRun time_csr_parts(const CsrView& a, std::span<const value_t> x, std::span<value_t> y,
                        std::span<const RowRange> parts, int iterations) {
  TimedRun run;
  run.part_seconds.assign(parts.size(), 0.0);
  const auto xv = ConstDenseBlockView::from_vector(x);
  const auto yv = DenseBlockView::from_vector(y);
  const double start = omp_get_wtime();
  for (int it = 0; it < iterations; ++it) {
#pragma omp parallel for default(none) shared(a, xv, yv, parts, run) schedule(static, 1)
    for (std::ptrdiff_t p = 0; p < static_cast<std::ptrdiff_t>(parts.size()); ++p) {
      const double t0 = omp_get_wtime();
      csr_rows_block<1, false, false, false>(a, xv, yv, 1.0, 0.0,
                                             parts[static_cast<std::size_t>(p)]);
      run.part_seconds[static_cast<std::size_t>(p)] += omp_get_wtime() - t0;
    }
  }
  run.seconds = (omp_get_wtime() - start) / iterations;
  for (auto& t : run.part_seconds) t /= iterations;
  return run;
}

void spmv_unit_stride(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y,
                      std::span<const RowRange> parts) {
  const auto rowptr = a.rowptr();
  const auto values = a.values();
#pragma omp parallel for default(none) shared(parts, rowptr, values, x, y) \
    schedule(static, 1)
  for (std::ptrdiff_t p = 0; p < static_cast<std::ptrdiff_t>(parts.size()); ++p) {
    const RowRange r = parts[static_cast<std::size_t>(p)];
    for (index_t i = r.begin; i < r.end; ++i) {
      value_t acc = 0.0;
      const value_t xi = x[static_cast<std::size_t>(i)];
      for (offset_t j = rowptr[static_cast<std::size_t>(i)];
           j < rowptr[static_cast<std::size_t>(i) + 1]; ++j) {
        acc += values[static_cast<std::size_t>(j)] * xi;
      }
      y[static_cast<std::size_t>(i)] = acc;
    }
  }
}

}  // namespace sparta::kernels
