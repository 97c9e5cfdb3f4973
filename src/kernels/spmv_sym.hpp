// Symmetric-storage SpMV/SpMM kernels with conflict-free parallel reduction.
//
// Symmetric storage (sparse/sym_csr.hpp) keeps only the strict lower
// triangle + diagonal, so one stored nonzero a(i, j), j < i, contributes
//   y[i] += v * x[j]   (the direct product of row i)
//   y[j] += v * x[i]   (the mirrored product of column j)
// The mirrored write targets a row another thread may own — the classic
// symmetric-SpMV write conflict. The paper's bandwidth analysis forbids
// paying for it with atomics on the hot path, so these kernels use a
// two-phase scatter/reduce scheme keyed off the row partition instead:
//
//  Phase 1 (scatter)  Each partition p accumulates into a private scratch
//     window covering rows [base_p, end_p), where base_p is the smallest
//     column index referenced by p's rows (columns are sorted, so that is
//     the first colind of each row). Direct products, diagonal products and
//     mirrors all land in the window; nothing else is written.
//  Phase 2 (reduce)   After a barrier, the owner of row i sums the window
//     entries for i over partitions q >= p in fixed ascending order and
//     stores alpha * sum + beta * y[i]. Windows of q < p cannot reach row i
//     (their rows end at or before p begins, and mirrors only go downward:
//     j < i), and window q >= p holds row i exactly when base_q <= i, since
//     partition ends are nondecreasing. The fixed traversal order makes the
//     result deterministic for a given partition, with no atomics anywhere.
//
// Within one scatter pass the own-row slot is written last by a direct
// store: mirrors into row i come only from rows > i, which the ascending row
// loop has not reached yet, so the store cannot lose contributions.
//
// The scratch windows are sized by plan_sym_schedule and meant to be
// allocated/first-touched once at prepare time (kernel_registry) with
// `cap` columns per row; a K-column pass uses columns [0, K) of each window
// row, so one allocation serves every chunk of the greedy width
// decomposition. The *_block kernels are region-reentrant (no pragmas
// beyond simd): kernels::PreparedSpmv drives them from its one-shot region
// and the solver engine from its persistent region.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "kernels/block_view.hpp"
#include "sparse/partition.hpp"
#include "sparse/sym_csr.hpp"

namespace sparta::kernels {

/// Non-owning view of the symmetric storage streams.
struct SymView {
  std::span<const offset_t> rowptr;
  std::span<const index_t> colind;
  std::span<const value_t> values;
  std::span<const value_t> diag;
  index_t nrows = 0;
};

inline SymView make_view(const SymCsrMatrix& a) {
  return {a.rowptr(), a.colind(), a.values(), a.diag(), a.nrows()};
}

/// Scatter/reduce schedule for one row partition: per-partition scratch
/// window bases and element offsets. Built once per prepared kernel;
/// identical for every thread count (it depends only on the partition and
/// the matrix structure).
struct SymSchedule {
  std::vector<RowRange> parts;
  /// First row of partition p's scratch window: min(parts[p].begin,
  /// smallest column referenced by p's rows). Window rows are
  /// [base[p], parts[p].end).
  std::vector<index_t> base;
  /// Element offset of partition p's window in the scratch array; window
  /// row i lives at offset[p] + (i - base[p]) * cap.
  std::vector<std::size_t> offset;
  /// Columns per scratch row (largest operand chunk the schedule serves).
  index_t cap = 1;
  /// Total scratch elements across all windows.
  std::size_t scratch_elems = 0;
};

/// Build the scatter/reduce schedule for `parts` with `cap` columns per
/// scratch row. `parts` must be an ordered exact cover of [0, a.nrows).
SymSchedule plan_sym_schedule(const SymView& a, std::span<const RowRange> parts, index_t cap);

/// Phase 1: scatter partition `part`'s products into its scratch window,
/// columns [0, K) of each window row. x must be K columns wide.
template <index_t K>
inline void sym_scatter_block(const SymView& a, const SymSchedule& sched,
                              value_t* SPARTA_RESTRICT scratch, std::size_t part,
                              ConstDenseBlockView x) {
  const RowRange r = sched.parts[part];
  const index_t base = sched.base[part];
  const auto cap = static_cast<std::size_t>(sched.cap);
  value_t* SPARTA_RESTRICT w = scratch + sched.offset[part];
  for (index_t i = base; i < r.end; ++i) {
    value_t* SPARTA_RESTRICT wi = w + static_cast<std::size_t>(i - base) * cap;
#pragma omp simd
    for (index_t c = 0; c < K; ++c) wi[c] = 0.0;
  }
  const offset_t* SPARTA_RESTRICT rowptr = a.rowptr.data();
  const index_t* SPARTA_RESTRICT colind = a.colind.data();
  const value_t* SPARTA_RESTRICT values = a.values.data();
  const value_t* SPARTA_RESTRICT diag = a.diag.data();
  for (index_t i = r.begin; i < r.end; ++i) {
    const value_t* SPARTA_RESTRICT xi = x.row(i);
    const value_t d = diag[static_cast<std::size_t>(i)];
    std::array<value_t, static_cast<std::size_t>(K)> acc;
#pragma omp simd
    for (index_t c = 0; c < K; ++c) acc[static_cast<std::size_t>(c)] = d * xi[c];
    const auto b = rowptr[static_cast<std::size_t>(i)];
    const auto e = rowptr[static_cast<std::size_t>(i) + 1];
    for (offset_t j = b; j < e; ++j) {
      const auto k = static_cast<std::size_t>(j);
      const index_t col = colind[k];
      const value_t v = values[k];
      const value_t* SPARTA_RESTRICT xj = x.row(col);
      value_t* SPARTA_RESTRICT wj = w + static_cast<std::size_t>(col - base) * cap;
#pragma omp simd
      for (index_t c = 0; c < K; ++c) {
        acc[static_cast<std::size_t>(c)] += v * xj[c];
        wj[c] += v * xi[c];
      }
    }
    // Mirrors into row i come only from rows > i (not yet visited), so the
    // direct store cannot overwrite a prior contribution.
    value_t* SPARTA_RESTRICT wi = w + static_cast<std::size_t>(i - base) * cap;
#pragma omp simd
    for (index_t c = 0; c < K; ++c) wi[c] = acc[static_cast<std::size_t>(c)];
  }
}

/// Phase 2: reduce the scratch windows into partition `part`'s rows of
/// Y = alpha A X + beta Y, columns [0, K) of each window row. Must run after
/// a barrier that orders it against every partition's scatter.
template <index_t K>
inline void sym_reduce_block(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                             std::size_t part, DenseBlockView y, value_t alpha, value_t beta) {
  const RowRange r = sched.parts[part];
  const auto nparts = sched.parts.size();
  const auto cap = static_cast<std::size_t>(sched.cap);
  const bool plain = alpha == 1.0 && beta == 0.0;
  for (index_t i = r.begin; i < r.end; ++i) {
    std::array<value_t, static_cast<std::size_t>(K)> acc;
    for (index_t c = 0; c < K; ++c) acc[static_cast<std::size_t>(c)] = 0.0;
    for (std::size_t q = part; q < nparts; ++q) {
      const index_t bq = sched.base[q];
      // Window q covers [base[q], parts[q].end); ends are nondecreasing, so
      // i < parts[q].end always holds for q >= part.
      if (bq > i) continue;
      const value_t* SPARTA_RESTRICT wq =
          scratch + sched.offset[q] + static_cast<std::size_t>(i - bq) * cap;
#pragma omp simd
      for (index_t c = 0; c < K; ++c) acc[static_cast<std::size_t>(c)] += wq[c];
    }
    value_t* SPARTA_RESTRICT yi = y.row(i);
    if (plain) {
#pragma omp simd
      for (index_t c = 0; c < K; ++c) yi[c] = acc[static_cast<std::size_t>(c)];
    } else {
#pragma omp simd
      for (index_t c = 0; c < K; ++c) {
        yi[c] = alpha * acc[static_cast<std::size_t>(c)] + beta * yi[c];
      }
    }
  }
}

/// Runtime-width dispatch to the specialized scatter instantiation
/// (x.width must be one of 1/2/4/8 and <= sched.cap).
void sym_scatter_any(const SymView& a, const SymSchedule& sched,
                     value_t* SPARTA_RESTRICT scratch, std::size_t part, ConstDenseBlockView x);

/// Runtime-width dispatch to the specialized reduce instantiation.
void sym_reduce_any(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                    std::size_t part, DenseBlockView y, value_t alpha, value_t beta);

/// Width-1 reduce fused with the dependent partial reduction: stores
/// y[i] = alpha * sum + beta * y[i] for partition `part`'s rows and returns
/// sum over those rows of w[i] * y[i] (the updated y) — the symmetric twin
/// of csr_rows_local_dot for the solver engine's fused CG pass.
double sym_reduce_dot(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                      std::size_t part, std::span<value_t> y, std::span<const value_t> w,
                      value_t alpha = 1.0, value_t beta = 0.0);

}  // namespace sparta::kernels
