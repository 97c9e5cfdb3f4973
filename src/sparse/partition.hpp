// Row partitioning schemes for parallel SpMV.
//
// The paper's baseline uses "a static one-dimensional row partitioning
// scheme, where each partition has approximately equal number of nonzero
// elements and is assigned to a single thread" (§IV-A). The vendor baseline
// uses a conventional equal-rows static split. The host IMB arm balances rows
// plus nonzeros instead (merge-path coordinates, Merrill & Garland SC'16),
// because a thread's cost follows both.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace sparta {

/// Half-open row range [begin, end) owned by one thread.
struct RowRange {
  index_t begin;
  index_t end;

  [[nodiscard]] index_t size() const { return end - begin; }
  friend bool operator==(const RowRange&, const RowRange&) = default;
};

/// Partition rows so that each of `nparts` ranges carries approximately
/// equal nonzeros (binary search over rowptr for each boundary). Ranges
/// cover [0, nrows) exactly, in order, some possibly empty. The boundary
/// searches run in parallel for large `nparts` (`threads` = 0 means
/// omp_get_max_threads()); the result is identical for every thread count.
std::vector<RowRange> partition_balanced_nnz(const CsrMatrix& m, int nparts,
                                             int threads = 0);

/// Partition whole rows so that each of `nparts` ranges carries
/// approximately equal rows + nonzeros. On the merge path of rowptr against
/// the nonzero indices, the boundary after b rows sits at coordinate
/// b + rowptr[b]; each part ends at the boundary nearest to an equal share of
/// nrows + nnz (binary search, ties to the lower), so every part lies within
/// (longest row + 1) of the ideal share. Rows are never split: a row longer
/// than one share stays whole in one part. Ranges cover [0, nrows) exactly,
/// in order, some possibly empty.
std::vector<RowRange> partition_merge_path(const CsrMatrix& m, int nparts);

/// Conventional static split: approximately equal row counts. Closed-form
/// per-partition bounds, parallel for large `nparts`.
std::vector<RowRange> partition_equal_rows(index_t nrows, int nparts, int threads = 0);

/// Nonzeros inside a row range.
offset_t range_nnz(const CsrMatrix& m, RowRange r);

/// Validate that `parts` is an ordered exact cover of [0, nrows).
/// Throws std::invalid_argument otherwise.
void validate_partition(const std::vector<RowRange>& parts, index_t nrows);

}  // namespace sparta
