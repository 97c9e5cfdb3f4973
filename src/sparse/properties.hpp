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

/// Run the scan. `values_per_line` is the number of matrix values fitting in
/// one cache line of the target platform (8 for 64-byte lines and doubles).
RowScan scan_rows(const CsrMatrix& m, int values_per_line = 8);

/// True if the matrix is structurally and numerically symmetric: square,
/// and every entry (i, c) has a mirror (c, i) whose value differs from it
/// by at most `tolerance`. Runs over row chunks on the OpenMP team with no
/// transposed copy.
bool is_symmetric(const CsrMatrix& m, value_t tolerance = 0.0);

/// Number of rows with no nonzeros.
index_t count_empty_rows(const CsrMatrix& m);

/// True if every diagonal entry (i, i) is present and nonzero — a
/// prerequisite for the Jacobi-preconditioned solvers.
bool has_full_diagonal(const CsrMatrix& m);

}  // namespace sparta
