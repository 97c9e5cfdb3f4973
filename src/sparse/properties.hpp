// Structural property scans of a CSR matrix. These are the raw per-row
// quantities that the Table I features summarize, exposed separately so
// tests, the IMB sub-policy and the generators' self-checks can reuse them.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace sparta {

/// Per-row structural scan (one pass over the matrix).
struct RowScan {
  /// nnz_i: nonzeros per row.
  std::vector<double> nnz;
  /// bw_i: column distance between first and last nonzero of the row
  /// (0 for rows with fewer than 2 nonzeros).
  std::vector<double> bandwidth;
  /// scatter_i = nnz_i / bw_i (paper definition; 0 when bw_i == 0).
  std::vector<double> scatter;
  /// clustering_i = ngroups_i / nnz_i where ngroups_i counts maximal runs of
  /// consecutive columns (0 for empty rows).
  std::vector<double> clustering;
  /// misses_i: nonzeros whose column distance from the previous nonzero in
  /// the row exceeds the number of values per cache line (naive miss count,
  /// paper §III-D). The first nonzero of a row always counts as a miss.
  std::vector<double> misses;
};

/// Run the scan over parallel row chunks (the arrays are the same for every
/// thread count). `values_per_line` is the number of matrix values fitting
/// in one cache line of the target platform (8 for 64-byte lines and
/// doubles).
RowScan scan_rows(const CsrMatrix& m, int values_per_line = 8);

/// True if the matrix is structurally and numerically symmetric: square,
/// and every entry (i, c) has a mirror (c, i) with a == b or |a - b| <=
/// `tolerance`. A NaN never mirrors anything (not even another NaN); equal
/// infinities do. The check counts the strict lower and upper triangles,
/// which must balance, and walks row chunks in parallel: each strict-lower
/// entry is matched to its mirror through a per-column cursor that only
/// moves forward, with no search and no transposed copy. A chunk stops at
/// its first mismatch. `threads` = 0 means omp_get_max_threads(); the
/// verdict does not depend on it. SymCsrMatrix's builders call this with
/// tolerance 0.
bool is_symmetric(const CsrMatrix& m, value_t tolerance = 0.0, int threads = 0);

/// Number of rows with no nonzeros.
index_t count_empty_rows(const CsrMatrix& m);

/// True if every diagonal entry (i, i) is present and nonzero — a
/// prerequisite for the Jacobi-preconditioned solvers.
bool has_full_diagonal(const CsrMatrix& m);

}  // namespace sparta
