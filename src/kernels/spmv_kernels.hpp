// Host SpMV/SpMM kernel templates.
//
// One templated inner loop per storage format, parameterized on the three
// orthogonal code transformations of the optimization pool:
//   Vectorize — #pragma omp simd on the inner loop (MB/CMP classes)
//   Unroll    — 4-way manual unrolling (CMP class)
//   Prefetch  — software prefetch of x[colind[j + dist]] into L1 (ML class)
// The registry (kernel_registry.hpp) instantiates the eight combinations per
// format and dispatches a KernelConfig to the right one. These kernels are
// the *real* implementations: they run multithreaded on the host and every
// one of them is validated against spmv_reference in the test suite. The
// modeled platforms use their cost descriptors instead (sim/kernel_model).
//
// Every kernel computes Y = alpha * A * X + beta * Y over dense operand
// blocks (block_view.hpp): X is ncols x k, Y is nrows x k. The matrix stream
// (rowptr/colind/values) is read ONCE per k operand columns — the SpMM
// amortization of Saule/Kaya/Catalyurek (arXiv:1302.1078) — with the column
// count register-blocked at compile time for k in {1, 2, 4, 8}; other widths
// decompose greedily into those chunks. The k = 1 instantiation delegates to
// the same scalar row bodies the historical single-vector path compiled to,
// and alpha = 1, beta = 0 takes a branch to the direct store, so the vector
// API (a width-1 block) is bit-identical to the pre-block code.
//
// These templates are the building blocks of kernels::PreparedSpmv
// (kernel_registry.hpp), the one execution entry for every KernelConfig:
//  - `*_rows_block` compute a single RowRange with no pragmas; the registry
//    drives them from its one-shot regions and from the solver engine's
//    persistent region (no fork/join). The `*_dot` variants additionally
//    fuse the dependent reduction w·y into the same row pass
//    (single-vector by nature);
//  - `spmm_decomposed` opens its own parallel regions (the decomposed
//    one-shot path), and `spmm_csr_partitioned` is the plain partitioned
//    driver it and the conventional vendor kernel (vendor/vendor_csr.hpp)
//    share.
#pragma once

#include <omp.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "kernels/block_view.hpp"
#include "sparse/csr.hpp"
#include "sparse/decomposed_csr.hpp"
#include "sparse/delta_csr.hpp"
#include "sparse/partition.hpp"

namespace sparta::kernels {

/// Software prefetch distance in elements — one cache line of doubles, the
/// fixed distance the paper uses.
inline constexpr offset_t kPrefetchDistance = 8;

/// Temporal-locality hint passed to every __builtin_prefetch of the x
/// vector. The gathered x entries of an ML-class matrix are used once per
/// row pass and rarely revisited soon, so the low-locality hint (evictable,
/// avoid polluting higher cache levels) is applied uniformly — the prologue
/// and steady-state prefetches used to disagree (3 vs 1) for no modeled
/// reason.
inline constexpr int kPrefetchLocality = 1;

/// Non-owning view of the three CSR streams. The engine/registry paths read
/// matrices through views so that NUMA first-touch copies of the arrays can
/// be substituted without duplicating kernel code.
struct CsrView {
  std::span<const offset_t> rowptr;
  std::span<const index_t> colind;
  std::span<const value_t> values;
  index_t nrows = 0;
};

inline CsrView make_view(const CsrMatrix& a) {
  return {a.rowptr(), a.colind(), a.values(), a.nrows()};
}

/// Non-owning view of the delta-compressed streams.
struct DeltaView {
  std::span<const offset_t> rowptr;
  std::span<const index_t> first_col;
  std::span<const std::uint8_t> deltas8;
  std::span<const std::uint16_t> deltas16;
  std::span<const value_t> values;
  DeltaWidth width = DeltaWidth::k8;
  index_t nrows = 0;
};

inline DeltaView make_view(const DeltaCsrMatrix& a) {
  return {a.rowptr(), a.first_col(), a.deltas8(), a.deltas16(),
          a.values(), a.width(),     a.nrows()};
}

namespace detail {

/// Row loop body for plain CSR. Raw SPARTA_RESTRICT pointers: the matrix
/// streams and x are always distinct arrays, and promising that lets the
/// vectorizer skip runtime overlap checks on the gather.
template <bool Vectorize, bool Unroll, bool Prefetch>
inline value_t csr_row(const index_t* SPARTA_RESTRICT colind,
                       const value_t* SPARTA_RESTRICT values,
                       const value_t* SPARTA_RESTRICT x, offset_t begin, offset_t end) {
  value_t acc = 0.0;
  offset_t j = begin;
  if constexpr (Prefetch) {
    // One prefetch per element, fixed distance (paper SIII-E).
    for (offset_t p = begin; p < std::min(begin + kPrefetchDistance, end); ++p) {
      __builtin_prefetch(&x[static_cast<std::size_t>(colind[static_cast<std::size_t>(p)])], 0,
                         kPrefetchLocality);
    }
  }
  if constexpr (Unroll) {
    value_t a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (; j + 4 <= end; j += 4) {
      if constexpr (Prefetch) {
        if (j + kPrefetchDistance + 4 <= end) {
          for (int u = 0; u < 4; ++u) {
            __builtin_prefetch(
                &x[static_cast<std::size_t>(
                    colind[static_cast<std::size_t>(j + kPrefetchDistance + u)])],
                0, kPrefetchLocality);
          }
        }
      }
      const auto k = static_cast<std::size_t>(j);
      a0 += values[k] * x[static_cast<std::size_t>(colind[k])];
      a1 += values[k + 1] * x[static_cast<std::size_t>(colind[k + 1])];
      a2 += values[k + 2] * x[static_cast<std::size_t>(colind[k + 2])];
      a3 += values[k + 3] * x[static_cast<std::size_t>(colind[k + 3])];
    }
    acc = (a0 + a1) + (a2 + a3);
    for (; j < end; ++j) {
      const auto k = static_cast<std::size_t>(j);
      acc += values[k] * x[static_cast<std::size_t>(colind[k])];
    }
  } else if constexpr (Vectorize) {
#pragma omp simd reduction(+ : acc)
    for (offset_t jj = begin; jj < end; ++jj) {
      const auto k = static_cast<std::size_t>(jj);
      acc += values[k] * x[static_cast<std::size_t>(colind[k])];
    }
  } else {
    for (; j < end; ++j) {
      const auto k = static_cast<std::size_t>(j);
      if constexpr (Prefetch) {
        if (j + kPrefetchDistance < end) {
          __builtin_prefetch(
              &x[static_cast<std::size_t>(colind[static_cast<std::size_t>(j + kPrefetchDistance)])],
              0, kPrefetchLocality);
        }
      }
      acc += values[k] * x[static_cast<std::size_t>(colind[k])];
    }
  }
  return acc;
}

/// Row loop body for delta-compressed CSR; Width is std::uint8_t or
/// std::uint16_t. Prefetching is not combined with delta (the next column is
/// only known after decode), mirroring the paper's pool where MB and ML
/// optimizations target different matrices. The first element carries the
/// absolute column and is peeled so the decode loop is branch-free.
template <class Width, bool Vectorize>
inline value_t delta_row(index_t first_col, const Width* SPARTA_RESTRICT deltas,
                         const value_t* SPARTA_RESTRICT values,
                         const value_t* SPARTA_RESTRICT x, offset_t begin, offset_t end) {
  if (begin == end) return 0.0;
  index_t col = first_col;
  value_t acc = values[static_cast<std::size_t>(begin)] * x[static_cast<std::size_t>(col)];
  for (offset_t j = begin + 1; j < end; ++j) {
    const auto k = static_cast<std::size_t>(j);
    col += static_cast<index_t>(deltas[k]);
    acc += values[k] * x[static_cast<std::size_t>(col)];
  }
  return acc;
}

/// K-column row body for plain CSR: one pass over the row's nonzeros feeds
/// all K accumulators, so each matrix entry (value + column index) is loaded
/// once per K multiply-adds. The K operand values x[col*ldx + c] are
/// contiguous across c — the register-blocked SIMD axis — so the column loop
/// is always vectorized; the scalar-path Vectorize/Unroll toggles only
/// distinguish k = 1 code (see csr_rows_block).
template <index_t K, bool Prefetch>
inline void csr_row_block(const index_t* SPARTA_RESTRICT colind,
                          const value_t* SPARTA_RESTRICT values,
                          const value_t* SPARTA_RESTRICT x, index_t ldx, offset_t begin,
                          offset_t end, value_t* SPARTA_RESTRICT acc) {
  for (index_t c = 0; c < K; ++c) acc[c] = 0.0;
  for (offset_t j = begin; j < end; ++j) {
    const auto k = static_cast<std::size_t>(j);
    if constexpr (Prefetch) {
      if (j + kPrefetchDistance < end) {
        __builtin_prefetch(
            &x[static_cast<std::size_t>(colind[static_cast<std::size_t>(j + kPrefetchDistance)]) *
               static_cast<std::size_t>(ldx)],
            0, kPrefetchLocality);
      }
    }
    const value_t v = values[k];
    const value_t* SPARTA_RESTRICT xr =
        &x[static_cast<std::size_t>(colind[k]) * static_cast<std::size_t>(ldx)];
#pragma omp simd
    for (index_t c = 0; c < K; ++c) acc[c] += v * xr[c];
  }
}

/// K-column row body for delta-compressed CSR (see delta_row for the decode
/// shape; see csr_row_block for the blocking rationale).
template <index_t K, class Width>
inline void delta_row_block(index_t first_col, const Width* SPARTA_RESTRICT deltas,
                            const value_t* SPARTA_RESTRICT values,
                            const value_t* SPARTA_RESTRICT x, index_t ldx, offset_t begin,
                            offset_t end, value_t* SPARTA_RESTRICT acc) {
  for (index_t c = 0; c < K; ++c) acc[c] = 0.0;
  if (begin == end) return;
  index_t col = first_col;
  {
    const value_t v = values[static_cast<std::size_t>(begin)];
    const value_t* SPARTA_RESTRICT xr =
        &x[static_cast<std::size_t>(col) * static_cast<std::size_t>(ldx)];
#pragma omp simd
    for (index_t c = 0; c < K; ++c) acc[c] += v * xr[c];
  }
  for (offset_t j = begin + 1; j < end; ++j) {
    const auto k = static_cast<std::size_t>(j);
    col += static_cast<index_t>(deltas[k]);
    const value_t v = values[k];
    const value_t* SPARTA_RESTRICT xr =
        &x[static_cast<std::size_t>(col) * static_cast<std::size_t>(ldx)];
#pragma omp simd
    for (index_t c = 0; c < K; ++c) acc[c] += v * xr[c];
  }
}

/// alpha/beta store of one K-wide accumulator row. The alpha = 1, beta = 0
/// default takes the direct-store branch: computing alpha*acc + beta*y
/// instead would flip -0.0 to +0.0 and manufacture NaNs from infinities in
/// the overwritten y, breaking bit-identity with the historical y = A*x.
template <index_t K>
inline void store_row_block(value_t* SPARTA_RESTRICT y,
                            const value_t* SPARTA_RESTRICT acc, value_t alpha,
                            value_t beta, bool plain) {
  if (plain) {
#pragma omp simd
    for (index_t c = 0; c < K; ++c) y[c] = acc[c];
  } else {
#pragma omp simd
    for (index_t c = 0; c < K; ++c) y[c] = alpha * acc[c] + beta * y[c];
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Region-reentrant row-range kernels (no pragmas; call from inside a
// persistent parallel region, one RowRange per call).
// ---------------------------------------------------------------------------

/// Rows [r.begin, r.end) of Y = alpha A X + beta Y for a compile-time column
/// count K (X and Y must be K wide). K = 1 with a contiguous operand
/// delegates per row to the identical `detail::csr_row` instantiation the
/// single-vector path always compiled to, keeping the width-1 block path
/// bit-identical to it; a strided width-1 sub-view (odd chunk of a wider
/// operand) runs the generic block body instead.
template <index_t K, bool Vectorize, bool Unroll, bool Prefetch>
inline void csr_rows_block(const CsrView& a, ConstDenseBlockView x, DenseBlockView y,
                           value_t alpha, value_t beta, RowRange r) {
  const bool plain = alpha == 1.0 && beta == 0.0;
  if constexpr (K == 1) {
    if (x.stride == 1) {
      for (index_t i = r.begin; i < r.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        const value_t acc = detail::csr_row<Vectorize, Unroll, Prefetch>(
            a.colind.data(), a.values.data(), x.data, a.rowptr[k], a.rowptr[k + 1]);
        value_t& yi = *y.row(i);
        yi = plain ? acc : alpha * acc + beta * yi;
      }
      return;
    }
  }
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    std::array<value_t, static_cast<std::size_t>(K)> acc;
    detail::csr_row_block<K, Prefetch>(a.colind.data(), a.values.data(), x.data, x.stride,
                                       a.rowptr[k], a.rowptr[k + 1], acc.data());
    detail::store_row_block<K>(y.row(i), acc.data(), alpha, beta, plain);
  }
}

/// Delta-compressed rows [r.begin, r.end) of Y = alpha A X + beta Y for a
/// compile-time column count K (see csr_rows_block for the K = 1 rule).
template <index_t K, bool Vectorize>
inline void delta_rows_block(const DeltaView& a, ConstDenseBlockView x, DenseBlockView y,
                             value_t alpha, value_t beta, RowRange r) {
  const bool plain = alpha == 1.0 && beta == 0.0;
  const bool narrow = a.width == DeltaWidth::k8;
  const value_t* const vals = a.values.data();
  if constexpr (K == 1) {
    if (x.stride == 1) {
      for (index_t i = r.begin; i < r.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        const auto b = a.rowptr[k];
        const auto e = a.rowptr[k + 1];
        const index_t fc = a.first_col[k];
        const value_t acc =
            narrow ? detail::delta_row<std::uint8_t, Vectorize>(fc, a.deltas8.data(), vals,
                                                                x.data, b, e)
                   : detail::delta_row<std::uint16_t, Vectorize>(fc, a.deltas16.data(), vals,
                                                                 x.data, b, e);
        value_t& yi = *y.row(i);
        yi = plain ? acc : alpha * acc + beta * yi;
      }
      return;
    }
  }
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const auto b = a.rowptr[k];
    const auto e = a.rowptr[k + 1];
    const index_t fc = a.first_col[k];
    std::array<value_t, static_cast<std::size_t>(K)> acc;
    if (narrow) {
      detail::delta_row_block<K, std::uint8_t>(fc, a.deltas8.data(), vals, x.data, x.stride, b,
                                               e, acc.data());
    } else {
      detail::delta_row_block<K, std::uint16_t>(fc, a.deltas16.data(), vals, x.data, x.stride,
                                                b, e, acc.data());
    }
    detail::store_row_block<K>(y.row(i), acc.data(), alpha, beta, plain);
  }
}

/// Arbitrary-width driver: greedily decomposes the operand width into the
/// specialized chunks (8, 4, 2, 1), re-reading the matrix stream once per
/// chunk. Width 1 therefore takes exactly one K = 1 pass — the historical
/// single-vector code path.
template <bool Vectorize, bool Unroll, bool Prefetch>
inline void csr_rows_block_any(const CsrView& a, ConstDenseBlockView x, DenseBlockView y,
                               value_t alpha, value_t beta, RowRange r) {
  index_t c = 0;
  while (c < x.width) {
    const index_t rem = x.width - c;
    if (rem >= 8) {
      csr_rows_block<8, Vectorize, Unroll, Prefetch>(a, x.columns(c, 8), y.columns(c, 8),
                                                     alpha, beta, r);
      c += 8;
    } else if (rem >= 4) {
      csr_rows_block<4, Vectorize, Unroll, Prefetch>(a, x.columns(c, 4), y.columns(c, 4),
                                                     alpha, beta, r);
      c += 4;
    } else if (rem >= 2) {
      csr_rows_block<2, Vectorize, Unroll, Prefetch>(a, x.columns(c, 2), y.columns(c, 2),
                                                     alpha, beta, r);
      c += 2;
    } else {
      csr_rows_block<1, Vectorize, Unroll, Prefetch>(a, x.columns(c, 1), y.columns(c, 1),
                                                     alpha, beta, r);
      c += 1;
    }
  }
}

/// Rows of y = alpha A x + beta y fused with the dependent partial
/// reduction: returns sum over i in [r.begin, r.end) of w[i] * y[i] (the
/// updated y). Each row result feeds the reduction in the same pass, so y is
/// written and consumed while hot. Single-vector by nature — the solver
/// recurrences it fuses are defined on one iterate.
template <bool Vectorize, bool Unroll, bool Prefetch>
inline double csr_rows_local_dot(const CsrView& a, std::span<const value_t> x,
                                 std::span<value_t> y, std::span<const value_t> w, RowRange r,
                                 value_t alpha = 1.0, value_t beta = 0.0) {
  const bool plain = alpha == 1.0 && beta == 0.0;
  double acc = 0.0;
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const value_t ai = detail::csr_row<Vectorize, Unroll, Prefetch>(
        a.colind.data(), a.values.data(), x.data(), a.rowptr[k], a.rowptr[k + 1]);
    const value_t yi = plain ? ai : alpha * ai + beta * y[k];
    y[k] = yi;
    acc += w[k] * yi;
  }
  return acc;
}

/// Delta-compressed rows fused with the partial reduction w·y (see
/// csr_rows_local_dot).
template <bool Vectorize>
inline double delta_rows_local_dot(const DeltaView& a, std::span<const value_t> x,
                                   std::span<value_t> y, std::span<const value_t> w, RowRange r,
                                   value_t alpha = 1.0, value_t beta = 0.0) {
  const bool plain = alpha == 1.0 && beta == 0.0;
  const value_t* const vals = a.values.data();
  double acc = 0.0;
  for (index_t i = r.begin; i < r.end; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const auto b = a.rowptr[k];
    const auto e = a.rowptr[k + 1];
    const index_t fc = a.first_col[k];
    const value_t ai =
        a.width == DeltaWidth::k8
            ? detail::delta_row<std::uint8_t, Vectorize>(fc, a.deltas8.data(), vals, x.data(),
                                                         b, e)
            : detail::delta_row<std::uint16_t, Vectorize>(fc, a.deltas16.data(), vals,
                                                          x.data(), b, e);
    const value_t yi = plain ? ai : alpha * ai + beta * y[k];
    y[k] = yi;
    acc += w[k] * yi;
  }
  return acc;
}

// ---------------------------------------------------------------------------
// One-shot entry points (open their own parallel region).
// ---------------------------------------------------------------------------

/// Plain CSR over precomputed row partitions (one partition per thread):
/// Y = alpha A X + beta Y.
template <bool Vectorize, bool Unroll, bool Prefetch>
void spmm_csr_partitioned(const CsrView& a, ConstDenseBlockView x, DenseBlockView y,
                          value_t alpha, value_t beta, std::span<const RowRange> parts) {
#pragma omp parallel for default(none) shared(a, x, y, alpha, beta, parts) schedule(static, 1)
  for (std::ptrdiff_t p = 0; p < static_cast<std::ptrdiff_t>(parts.size()); ++p) {
    csr_rows_block_any<Vectorize, Unroll, Prefetch>(a, x, y, alpha, beta,
                                                    parts[static_cast<std::size_t>(p)]);
  }
}

/// Decomposed CSR (IMB class): Y = alpha A X + beta Y with short rows over
/// the partitioned kernel and each long row computed cooperatively by all
/// threads, column by column: thread t sums the t-th static slice of the
/// row into its own slot, and the slots are added in thread order. (An
/// OpenMP reduction would add them in arrival order, so the same thread
/// count could give different bits from run to run.) The short-part pass
/// already deposited alpha*0 + beta*Y_old in the long-row slots (long rows
/// are emptied in the short part), so the long-row store *adds* alpha*total
/// to the slot instead of rescaling it by beta a second time.
template <bool Vectorize, bool Unroll, bool Prefetch>
void spmm_decomposed(const DecomposedCsrMatrix& a, ConstDenseBlockView x, DenseBlockView y,
                     value_t alpha, value_t beta, std::span<const RowRange> parts) {
  spmm_csr_partitioned<Vectorize, Unroll, Prefetch>(make_view(a.short_part()), x, y, alpha, beta,
                                                    parts);

  const bool plain = alpha == 1.0 && beta == 0.0;
  const auto rowptr = a.long_rowptr();
  const auto colind = a.long_colind();
  const auto values = a.long_values();
  const auto long_rows = a.long_rows();
  if (long_rows.empty()) return;
  std::vector<value_t> partial(static_cast<std::size_t>(omp_get_max_threads()));
  for (std::size_t k = 0; k < long_rows.size(); ++k) {
    const auto b = rowptr[k];
    const auto e = rowptr[k + 1];
    const index_t row = long_rows[k];
    for (index_t c = 0; c < x.width; ++c) {
      std::fill(partial.begin(), partial.end(), 0.0);
#pragma omp parallel default(none) shared(values, colind, x, b, e, c, partial)
      {
        const auto t = static_cast<offset_t>(omp_get_thread_num());
        const auto nt = static_cast<offset_t>(omp_get_num_threads());
        const offset_t lo = b + (e - b) * t / nt;
        const offset_t hi = b + (e - b) * (t + 1) / nt;
        value_t sum = 0.0;
        for (offset_t j = lo; j < hi; ++j) {
          const auto idx = static_cast<std::size_t>(j);
          sum += values[idx] * x.at(colind[idx], c);
        }
        partial[static_cast<std::size_t>(t)] = sum;
      }
      value_t total = 0.0;
      for (const value_t p : partial) total += p;
      value_t& yv = y.at(row, c);
      yv = plain ? total : alpha * total + yv;
    }
  }
}

}  // namespace sparta::kernels
