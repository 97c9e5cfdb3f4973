// Bound micro-benchmark kernels (paper §III-B), host versions.
//
// P_CSR / P_IMB: the baseline CSR row kernel (csr_rows_block, the registry's
// scalar instantiation) timed per partition from inside the parallel region.
//
// P_ML kernel: "irregular accesses to x are converted to regular accesses
// ... by setting all entries of the colind array to the row index". The same
// timed driver runs on a view whose colind is regularized_colind(a), exactly
// as the paper describes — traffic is preserved, irregularity is removed.
//
// P_CMP kernel: "we no longer use colind to index vector x, but always
// access x[i]" — indirect references eliminated entirely, colind not
// loaded.
#pragma once

#include <span>
#include <vector>

#include "kernels/spmv_kernels.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace sparta::kernels {

/// colind' with every entry set to its row index.
aligned_vector<index_t> regularized_colind(const CsrMatrix& a);

struct TimedRun {
  /// Wall time of one SpMV (the slowest part's makespan), seconds, averaged
  /// over the iterations.
  double seconds = 0.0;
  /// Per-partition busy time, seconds, averaged over the iterations.
  std::vector<double> part_seconds;
};

/// Run `iterations` back-to-back baseline SpMVs y = A x of the view `a`
/// (csr_rows_block<1, false, false, false>, one part per thread), timing
/// each part's work from inside the parallel region. The source view gives
/// P_CSR and P_IMB; a view with regularized_colind gives P_ML.
TimedRun time_csr_parts(const CsrView& a, std::span<const value_t> x, std::span<value_t> y,
                        std::span<const RowRange> parts, int iterations);

/// P_CMP kernel: unit-stride x access, no colind loads.
void spmv_unit_stride(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y,
                      std::span<const RowRange> parts);

}  // namespace sparta::kernels
