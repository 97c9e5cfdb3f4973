#include "sparse/properties.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

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

  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto idx = static_cast<std::size_t>(i);
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

/// True when every off-diagonal entry of rows [begin, end) has its mirror,
/// within `tolerance`. The matrix is square, so column c is also a row, and
/// its columns are strictly increasing: the mirror (c, i) of entry (i, c)
/// is a binary search of row c for i.
bool mirrors_match(const CsrMatrix& m, std::size_t begin, std::size_t end, value_t tolerance) {
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = static_cast<index_t>(i);
    const auto cols = m.row_cols(row);
    const auto vals = m.row_vals(row);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] == row) continue;
      const auto mirror_cols = m.row_cols(cols[j]);
      const auto it = std::lower_bound(mirror_cols.begin(), mirror_cols.end(), row);
      if (it == mirror_cols.end() || *it != row) return false;
      const auto k = static_cast<std::size_t>(it - mirror_cols.begin());
      if (std::abs(vals[j] - m.row_vals(cols[j])[k]) > tolerance) return false;
    }
  }
  return true;
}

}  // namespace

bool is_symmetric(const CsrMatrix& m, value_t tolerance) {
  if (m.nrows() != m.ncols()) return false;
  // Every entry's mirror exists (an injection of the pattern into itself,
  // hence a bijection: the pattern equals its transpose) and matches within
  // the tolerance. Row chunks record a flag each.
  const auto n = static_cast<std::size_t>(m.nrows());
  const int nchunks = build::resolve_threads(0);
  std::vector<std::uint8_t> chunk_ok(static_cast<std::size_t>(nchunks), 1);
#pragma omp parallel for default(none) shared(chunk_ok, m, n, nchunks, tolerance) \
    num_threads(nchunks) schedule(static)
  for (int cidx = 0; cidx < nchunks; ++cidx) {
    const auto begin = build::chunk_begin(n, nchunks, cidx);
    const auto end = build::chunk_begin(n, nchunks, cidx + 1);
    chunk_ok[static_cast<std::size_t>(cidx)] = mirrors_match(m, begin, end, tolerance) ? 1 : 0;
  }
  return std::all_of(chunk_ok.begin(), chunk_ok.end(), [](std::uint8_t ok) { return ok != 0; });
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
