#include "sparse/properties.hpp"

#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "sparse/build.hpp"

namespace sparta {

RowScan scan_rows(const CsrMatrix& m, int values_per_line) {
  const auto n = static_cast<std::size_t>(m.nrows());
  RowScan scan;
  scan.nnz.resize(n);
  scan.bandwidth.resize(n);
  scan.scatter.resize(n);
  scan.clustering.resize(n);
  scan.misses.resize(n);

  // Every row writes only its own slots, so the arrays are the same for
  // every thread count.
  const int nthreads = build::resolve_threads(0);
#pragma omp parallel for default(none) shared(scan, m, n, values_per_line) \
    num_threads(nthreads) schedule(static)
  for (std::size_t idx = 0; idx < n; ++idx) {
    const auto cols = m.row_cols(static_cast<index_t>(idx));
    const auto nnz_i = static_cast<double>(cols.size());
    scan.nnz[idx] = nnz_i;
    if (cols.empty()) continue;

    const double bw = static_cast<double>(cols.back() - cols.front());
    scan.bandwidth[idx] = bw;
    scan.scatter[idx] = bw > 0.0 ? nnz_i / bw : 0.0;

    index_t ngroups = 1;
    double misses = 1.0;  // first access of the row: compulsory miss
    for (std::size_t j = 1; j < cols.size(); ++j) {
      const index_t gap = cols[j] - cols[j - 1];
      if (gap > 1) ++ngroups;
      if (gap > values_per_line) misses += 1.0;
    }
    scan.clustering[idx] = static_cast<double>(ngroups) / nnz_i;
    scan.misses[idx] = misses;
  }
  return scan;
}

namespace {

bool values_mirror(value_t a, value_t b, value_t tolerance) {
  return a == b || std::abs(a - b) <= tolerance;
}

/// Per-chunk result of the mirror walk.
struct MirrorTally {
  offset_t lower = 0;
  offset_t upper = 0;
  bool ok = true;
};

/// Mirror walk over rows [begin, end) of a square matrix: counts the strict
/// triangles and matches every strict-lower entry (i, c) to the entry (c, i)
/// of row c. Within the chunk the rows i ascend, so the mirrors found in row
/// c ascend too: cursor[c], a position counted from the start of row c, only
/// moves forward. Stops at the first missing or mismatched mirror.
MirrorTally walk_mirrors(const CsrMatrix& m, std::size_t begin, std::size_t end,
                         index_t* cursor, value_t tolerance) {
  MirrorTally t;
  const auto rowptr = m.rowptr();
  const auto colind = m.colind();
  const auto values = m.values();
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = static_cast<index_t>(i);
    const auto row_end = static_cast<std::size_t>(rowptr[i + 1]);
    for (auto k = static_cast<std::size_t>(rowptr[i]); k < row_end; ++k) {
      const index_t c = colind[k];
      if (c > row) {
        ++t.upper;
        continue;
      }
      if (c == row) continue;
      ++t.lower;
      // The matrix is square, so column c is also row c.
      const auto mirror_cols = m.row_cols(c);
      index_t& cur = cursor[c];
      const auto len = static_cast<index_t>(mirror_cols.size());
      while (cur < len && mirror_cols[static_cast<std::size_t>(cur)] < row) ++cur;
      if (cur == len || mirror_cols[static_cast<std::size_t>(cur)] != row ||
          !values_mirror(values[k], m.row_vals(c)[static_cast<std::size_t>(cur)], tolerance)) {
        t.ok = false;
        return t;
      }
      ++cur;
    }
  }
  return t;
}

}  // namespace

bool is_symmetric(const CsrMatrix& m, value_t tolerance, int threads) {
  if (m.nrows() != m.ncols()) return false;
  // Every strict-lower entry has its mirror (an injection of the lower
  // triangle into the upper one); with equal triangle counts it is a
  // bijection, so the pattern equals its transpose and every pair matches.
  const auto n = static_cast<std::size_t>(m.nrows());
  const int nchunks = build::resolve_threads(threads);
  // Chunk c needs a cursor for each column below its last row. One zeroed
  // buffer holds them all, allocated on the calling thread: calloc hands
  // out zero pages that become resident only where a walk reaches, so an
  // early mismatch, or a band, costs little memory.
  std::vector<std::size_t> base(static_cast<std::size_t>(nchunks) + 1, 0);
  for (int cidx = 0; cidx < nchunks; ++cidx) {
    base[static_cast<std::size_t>(cidx) + 1] =
        base[static_cast<std::size_t>(cidx)] + build::chunk_begin(n, nchunks, cidx + 1);
  }
  const std::unique_ptr<index_t, decltype(&std::free)> cursor{
      static_cast<index_t*>(std::calloc(base.back(), sizeof(index_t))), &std::free};
  if (!cursor && base.back() > 0) throw std::bad_alloc{};
  std::vector<MirrorTally> tally(static_cast<std::size_t>(nchunks));
#pragma omp parallel for default(none) shared(tally, m, n, nchunks, base, cursor, tolerance) \
    num_threads(nchunks) schedule(static)
  for (int cidx = 0; cidx < nchunks; ++cidx) {
    tally[static_cast<std::size_t>(cidx)] = walk_mirrors(
        m, build::chunk_begin(n, nchunks, cidx), build::chunk_begin(n, nchunks, cidx + 1),
        cursor.get() + base[static_cast<std::size_t>(cidx)], tolerance);
  }
  offset_t lower = 0;
  offset_t upper = 0;
  for (const MirrorTally& t : tally) {
    if (!t.ok) return false;
    lower += t.lower;
    upper += t.upper;
  }
  return lower == upper;
}

index_t count_empty_rows(const CsrMatrix& m) {
  index_t count = 0;
  for (index_t i = 0; i < m.nrows(); ++i) {
    if (m.row_nnz(i) == 0) ++count;
  }
  return count;
}

bool has_full_diagonal(const CsrMatrix& m) {
  if (m.nrows() != m.ncols()) return false;
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    bool found = false;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] == i) {
        found = vals[j] != 0.0;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace sparta
