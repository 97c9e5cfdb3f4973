// Symmetric-storage SpMV/SpMM kernels with owner-writes parallel reduction.
//
// Symmetric storage (sparse/sym_csr.hpp) keeps only the strict lower
// triangle + diagonal, so one stored nonzero a(i, j), j < i, contributes
//   y[i] += v * x[j]   (the direct product of row i)
//   y[j] += v * x[i]   (the mirrored product of column j)
// The mirrored write targets a row another thread may own — the classic
// symmetric-SpMV write conflict. The paper's bandwidth analysis forbids
// paying for it with atomics on the hot path, so these kernels split each
// product over the row partition instead (the local-buffers-for-the-
// conflicting-range scheme of Gkountouvas et al., IPDPS 2013):
//
//  Phase 1 (scatter)  Partition p owns rows [begin_p, end_p) of y and writes
//     them directly: the direct product of row i is stored as
//     y[i] = alpha * acc + beta * y[i], and a mirror into an owned row j
//     adds v * (alpha * x[i]) to y[j]. That is safe because mirrors into row
//     j come only from rows after j, which the ascending row loop reaches
//     after it has stored row j. Mirrors into rows below begin_p (owned by
//     earlier partitions) go to p's halo window instead: a private scratch
//     window covering rows [base_p, begin_p), where base_p is the smallest
//     column p's rows reference (columns are sorted, so that is the first
//     colind of a row). Only the halo window is zeroed, and only rows whose
//     first column lies below begin_p run the per-nonzero halo test; every
//     other row takes the branch-free owned-row loop.
//  Phase 2 (reduce)   After a barrier, partition p adds the halo windows of
//     the later partitions q > p into the owned rows they overlap,
//     [max(base_q, begin_p), end_p), in ascending q. Halo windows of q <= p
//     cannot reach p's rows (they lie below begin_q <= begin_p), so each y[i]
//     is summed in a fixed order: its own partition's direct and mirrored
//     products, then the halos of later partitions. The result is
//     deterministic for a given partition, with no atomics anywhere.
//
// The halo windows are sized by plan_sym_schedule and allocated and first-
// touched once at prepare time (kernel_registry) with `cap` columns per row;
// a K-column pass uses columns [0, K) of each window row, so one allocation
// serves every chunk of the greedy width decomposition. The caller places a
// barrier between a reduce and the next scatter, which re-zeroes the
// windows. The *_block kernels are region-reentrant (no pragmas beyond
// simd): kernels::PreparedSpmv drives them from its one-shot region and the
// solver engine from its persistent region.
#pragma once

#include <algorithm>
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

/// Scatter/reduce schedule for one row partition: per-partition halo window
/// bases and element offsets. Built once per prepared kernel; it depends
/// only on the partition and the matrix structure.
struct SymSchedule {
  std::vector<RowRange> parts;
  /// First row of partition p's halo window: min(parts[p].begin, smallest
  /// column referenced by p's rows). Halo rows are [base[p], parts[p].begin).
  std::vector<index_t> base;
  /// Element offset of partition p's halo window in the scratch array; halo
  /// row i lives at offset[p] + (i - base[p]) * cap.
  std::vector<std::size_t> offset;
  /// Columns per scratch row (largest operand chunk the schedule serves).
  index_t cap = 1;
  /// Total scratch elements: sum over p of (parts[p].begin - base[p]) * cap.
  std::size_t scratch_elems = 0;
};

/// Build the scatter/reduce schedule for `parts` with `cap` columns per
/// scratch row. `parts` must be an ordered exact cover of [0, a.nrows).
SymSchedule plan_sym_schedule(const SymView& a, std::span<const RowRange> parts, index_t cap);

/// Phase 1: partition `part`'s rows of Y = alpha A X + beta Y, minus the
/// mirrors later partitions still owe them (see sym_reduce_block); mirrors
/// into rows below the partition go to its halo window. Columns [0, K) of
/// each window row; x and y must be K columns wide.
template <index_t K>
inline void sym_scatter_block(const SymView& a, const SymSchedule& sched,
                              value_t* SPARTA_RESTRICT scratch, std::size_t part,
                              ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                              value_t beta) {
  const RowRange r = sched.parts[part];
  const index_t base = sched.base[part];
  const auto cap = static_cast<std::size_t>(sched.cap);
  value_t* SPARTA_RESTRICT w = scratch + sched.offset[part];
  for (index_t i = base; i < r.begin; ++i) {
    value_t* SPARTA_RESTRICT wi = w + static_cast<std::size_t>(i - base) * cap;
#pragma omp simd
    for (index_t c = 0; c < K; ++c) wi[c] = 0.0;
  }
  const bool plain = alpha == 1.0 && beta == 0.0;
  const offset_t* SPARTA_RESTRICT rowptr = a.rowptr.data();
  const index_t* SPARTA_RESTRICT colind = a.colind.data();
  const value_t* SPARTA_RESTRICT values = a.values.data();
  const value_t* SPARTA_RESTRICT diag = a.diag.data();
  for (index_t i = r.begin; i < r.end; ++i) {
    const value_t* SPARTA_RESTRICT xi = x.row(i);
    const value_t d = diag[static_cast<std::size_t>(i)];
    std::array<value_t, static_cast<std::size_t>(K)> acc;
    std::array<value_t, static_cast<std::size_t>(K)> axi;  // alpha * x[i], exact at alpha = 1
#pragma omp simd
    for (index_t c = 0; c < K; ++c) {
      acc[static_cast<std::size_t>(c)] = d * xi[c];
      axi[static_cast<std::size_t>(c)] = alpha * xi[c];
    }
    offset_t j = rowptr[static_cast<std::size_t>(i)];
    const offset_t e = rowptr[static_cast<std::size_t>(i) + 1];
    // Columns are sorted: the halo columns (below r.begin) lead the row.
    for (; j < e && colind[static_cast<std::size_t>(j)] < r.begin; ++j) {
      const auto k = static_cast<std::size_t>(j);
      const index_t col = colind[k];
      const value_t v = values[k];
      const value_t* SPARTA_RESTRICT xj = x.row(col);
      value_t* SPARTA_RESTRICT wj = w + static_cast<std::size_t>(col - base) * cap;
#pragma omp simd
      for (index_t c = 0; c < K; ++c) {
        acc[static_cast<std::size_t>(c)] += v * xj[c];
        wj[c] += v * axi[static_cast<std::size_t>(c)];
      }
    }
    for (; j < e; ++j) {
      const auto k = static_cast<std::size_t>(j);
      const index_t col = colind[k];
      const value_t v = values[k];
      const value_t* SPARTA_RESTRICT xj = x.row(col);
      value_t* SPARTA_RESTRICT yj = y.row(col);
#pragma omp simd
      for (index_t c = 0; c < K; ++c) {
        acc[static_cast<std::size_t>(c)] += v * xj[c];
        yj[c] += v * axi[static_cast<std::size_t>(c)];
      }
    }
    // Mirrors into row i come only from rows > i (not yet visited), so the
    // store cannot overwrite a prior contribution. alpha = 1, beta = 0 stores
    // directly, as store_row_block does: no -0.0 flips, no NaNs from a
    // stale y.
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

/// Phase 2: add the halo windows of later partitions into partition
/// `part`'s rows of y, columns [0, K) of each window row. Must run after a
/// barrier that orders it against every partition's scatter. alpha is
/// already folded into the halo entries, so the reduce takes no scalars.
template <index_t K>
inline void sym_reduce_block(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                             std::size_t part, DenseBlockView y) {
  const RowRange r = sched.parts[part];
  const auto nparts = sched.parts.size();
  const auto cap = static_cast<std::size_t>(sched.cap);
  // Partition ends are nondecreasing, so halo q > part (rows [base_q,
  // begin_q), begin_q >= r.end) overlaps the owned rows in
  // [max(base_q, r.begin), r.end).
  for (std::size_t q = part + 1; q < nparts; ++q) {
    const index_t bq = sched.base[q];
    const value_t* SPARTA_RESTRICT wq = scratch + sched.offset[q];
    for (index_t i = std::max(bq, r.begin); i < r.end; ++i) {
      const value_t* SPARTA_RESTRICT wi = wq + static_cast<std::size_t>(i - bq) * cap;
      value_t* SPARTA_RESTRICT yi = y.row(i);
#pragma omp simd
      for (index_t c = 0; c < K; ++c) yi[c] += wi[c];
    }
  }
}

/// Runtime-width dispatch to the specialized scatter instantiation
/// (x.width == y.width must be one of 1/2/4/8 and <= sched.cap).
void sym_scatter_any(const SymView& a, const SymSchedule& sched,
                     value_t* SPARTA_RESTRICT scratch, std::size_t part, ConstDenseBlockView x,
                     DenseBlockView y, value_t alpha, value_t beta);

/// Runtime-width dispatch to the specialized reduce instantiation.
void sym_reduce_any(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                    std::size_t part, DenseBlockView y);

/// Width-1 reduce followed by the dependent partial reduction: completes
/// partition `part`'s rows of y and returns the sum over those rows of
/// w[i] * y[i] — the symmetric twin of csr_rows_local_dot for the solver
/// engine's CG pass.
double sym_reduce_dot(const SymSchedule& sched, const value_t* SPARTA_RESTRICT scratch,
                      std::size_t part, std::span<value_t> y, std::span<const value_t> w);

}  // namespace sparta::kernels
