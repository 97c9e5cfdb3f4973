#include "sparse/partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validate.hpp"
#include "sparse/build.hpp"

namespace sparta {

namespace {

/// Below this the boundary searches are cheaper than a parallel region.
constexpr int kParallelMinParts = 32;

}  // namespace

std::vector<RowRange> partition_balanced_nnz(const CsrMatrix& m, int nparts, int threads) {
  if (nparts <= 0) throw std::invalid_argument{"partition_balanced_nnz: nparts <= 0"};
  const auto rowptr = m.rowptr();
  const offset_t total = m.nnz();
  std::vector<RowRange> parts(static_cast<std::size_t>(nparts));
  // Target cumulative nnz at the end of partition p; the first row index
  // whose cumulative nnz reaches it ends the partition. The search can land
  // on rowptr.end() (index nrows+1) when the target equals the total and
  // trailing rows are empty — clamp into [row, nrows].
  if (nparts >= kParallelMinParts) {
    // Boundary searches are independent when taken over the whole rowptr;
    // the serial fix-up below reproduces the sequential search's lower
    // start bound (begin + row + 1) exactly: a global search that lands at
    // or before `row` (runs of empty rows) would have resolved to row + 1.
    const int nthreads = build::resolve_threads(threads);
    std::vector<index_t> ends(static_cast<std::size_t>(nparts));
#pragma omp parallel for default(none) shared(ends, rowptr, total, nparts) \
    num_threads(nthreads) schedule(static)
    for (int p = 0; p < nparts; ++p) {
      const auto target = static_cast<offset_t>(
          (static_cast<long double>(total) * (p + 1)) / nparts);
      const auto it = std::lower_bound(rowptr.begin() + 1, rowptr.end(), target);
      ends[static_cast<std::size_t>(p)] = static_cast<index_t>(it - rowptr.begin());
    }
    index_t row = 0;
    for (int p = 0; p < nparts; ++p) {
      auto end = ends[static_cast<std::size_t>(p)] <= row
                     ? row + 1
                     : ends[static_cast<std::size_t>(p)];
      if (p == nparts - 1) end = m.nrows();
      end = std::clamp(end, row, m.nrows());
      parts[static_cast<std::size_t>(p)] = {row, end};
      row = end;
    }
  } else {
    index_t row = 0;
    for (int p = 0; p < nparts; ++p) {
      const auto target = static_cast<offset_t>(
          (static_cast<long double>(total) * (p + 1)) / nparts);
      const auto it = std::lower_bound(rowptr.begin() + row + 1, rowptr.end(), target);
      auto end = static_cast<index_t>(it - rowptr.begin());
      if (p == nparts - 1) end = m.nrows();
      end = std::clamp(end, row, m.nrows());
      parts[static_cast<std::size_t>(p)] = {row, end};
      row = end;
    }
  }
  parts.back().end = m.nrows();
  SPARTA_CHECK_STRUCTURE(std::span<const RowRange>{parts}, m.nrows());
  return parts;
}

std::vector<RowRange> partition_merge_path(const CsrMatrix& m, int nparts) {
  if (nparts <= 0) throw std::invalid_argument{"partition_merge_path: nparts <= 0"};
  const auto rowptr = m.rowptr();
  const index_t nrows = m.nrows();
  const offset_t total = static_cast<offset_t>(nrows) + m.nnz();
  // Merge coordinate of the boundary after b rows, scaled by nparts so the
  // share targets total * (p + 1) / nparts compare exactly in integers.
  const auto scaled = [&](index_t b) {
    return (static_cast<offset_t>(b) + rowptr[static_cast<std::size_t>(b)]) * nparts;
  };
  std::vector<RowRange> parts(static_cast<std::size_t>(nparts));
  index_t begin = 0;
  for (int p = 0; p < nparts; ++p) {
    const offset_t target = total * (p + 1);
    // First boundary at or past the target; the one before it wins when it
    // is at least as near. Targets grow with p, so the ends never decrease.
    index_t lo = begin;
    index_t hi = nrows;
    while (lo < hi) {
      const index_t mid = lo + (hi - lo) / 2;
      if (scaled(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > begin && target - scaled(lo - 1) <= scaled(lo) - target) --lo;
    parts[static_cast<std::size_t>(p)] = {begin, lo};
    begin = lo;
  }
  SPARTA_CHECK_STRUCTURE(std::span<const RowRange>{parts}, nrows);
  return parts;
}

std::vector<RowRange> partition_equal_rows(index_t nrows, int nparts, int threads) {
  if (nparts <= 0) throw std::invalid_argument{"partition_equal_rows: nparts <= 0"};
  std::vector<RowRange> parts(static_cast<std::size_t>(nparts));
  const index_t base = nrows / nparts;
  const index_t extra = nrows % nparts;
  // Closed form: partition p starts at p*base + min(p, extra), so every
  // range is independent of the others.
  if (nparts >= kParallelMinParts) {
    const int nthreads = build::resolve_threads(threads);
#pragma omp parallel for default(none) shared(parts, nparts, base, extra) \
    num_threads(nthreads) schedule(static)
    for (int p = 0; p < nparts; ++p) {
      const index_t begin = p * base + std::min<index_t>(p, extra);
      const index_t len = base + (p < extra ? 1 : 0);
      parts[static_cast<std::size_t>(p)] = {begin, begin + len};
    }
  } else {
    index_t row = 0;
    for (int p = 0; p < nparts; ++p) {
      const index_t len = base + (p < extra ? 1 : 0);
      parts[static_cast<std::size_t>(p)] = {row, row + len};
      row += len;
    }
  }
  SPARTA_CHECK_STRUCTURE(std::span<const RowRange>{parts}, nrows);
  return parts;
}

offset_t range_nnz(const CsrMatrix& m, RowRange r) {
  return m.rowptr()[static_cast<std::size_t>(r.end)] -
         m.rowptr()[static_cast<std::size_t>(r.begin)];
}

void validate_partition(const std::vector<RowRange>& parts, index_t nrows) {
  // Unconditional full check (historical contract of this entry point); the
  // named-violation implementation lives with the other structural
  // validators in src/check/.
  check::validate_partition(parts, nrows, check::Level::kFull);
}

}  // namespace sparta
