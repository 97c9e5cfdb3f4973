// Long-row matrix decomposition — the paper's IMB-class optimization for
// matrices with highly uneven row lengths (paper Fig. 6/7).
//
// The matrix is split into (a) a "short" part: the original CSR with long
// rows skipped, processed with the usual one-row-per-thread partitioning,
// and (b) a "long" part: the few rows holding a disproportionate share of
// the nonzeros, each processed cooperatively by all threads followed by a
// reduction of partial sums. This removes the serialization of a single
// thread grinding through a 100k-nonzero row.
//
// The format models the paper's arm: the simulator, its tests and
// bench_preprocessing use it. Host kernels do not — the host IMB arm is a
// merge-path partition of whole rows (partition_merge_path).
#pragma once

#include <span>

#include "common/numa.hpp"
#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace sparta {

/// Decomposition of a CSR matrix into short rows + long rows.
class DecomposedCsrMatrix {
 public:
  /// Split `csr` using `threshold` (rows with nnz > threshold are "long").
  /// A non-positive threshold selects the default policy:
  /// threshold = max(kMinLongRow, 8 * average row nnz). The split is a
  /// parallel two-pass builder (chunked count -> prefix sum -> exact fill);
  /// `threads` = 0 means omp_get_max_threads() and the output is
  /// bit-identical to decompose_serial for every thread count.
  static DecomposedCsrMatrix decompose(const CsrMatrix& csr, index_t threshold = 0,
                                       int threads = 0);

  /// Single-threaded reference builder (the pre-pipeline implementation);
  /// kept as the bit-identity oracle for tests and the preprocessing bench.
  static DecomposedCsrMatrix decompose_serial(const CsrMatrix& csr, index_t threshold = 0);

  /// Default long-row floor: rows shorter than this are never "long".
  static constexpr index_t kMinLongRow = 1024;

  /// Compute the default threshold for a matrix.
  static index_t default_threshold(const CsrMatrix& csr);

  [[nodiscard]] index_t nrows() const { return short_part_.nrows(); }
  [[nodiscard]] index_t ncols() const { return short_part_.ncols(); }
  /// Total nonzeros (short + long parts).
  [[nodiscard]] offset_t nnz() const;

  /// CSR of the matrix with the long rows emptied.
  [[nodiscard]] const CsrMatrix& short_part() const { return short_part_; }
  /// Row indices of the long rows (ascending).
  [[nodiscard]] std::span<const index_t> long_rows() const { return long_rows_; }
  /// CSR-style storage of the long rows only: long_rowptr has
  /// long_rows().size()+1 entries indexing long_colind/long_values.
  [[nodiscard]] std::span<const offset_t> long_rowptr() const { return long_rowptr_; }
  [[nodiscard]] std::span<const index_t> long_colind() const { return long_colind_; }
  [[nodiscard]] std::span<const value_t> long_values() const { return long_values_; }

  [[nodiscard]] index_t threshold() const { return threshold_; }

  /// Reassemble the original matrix (round-trip tested).
  [[nodiscard]] CsrMatrix recompose() const;

  /// Total bytes of all parts.
  [[nodiscard]] std::size_t bytes() const;

 private:
  DecomposedCsrMatrix() = default;

  index_t threshold_ = 0;
  CsrMatrix short_part_;
  numa_vector<index_t> long_rows_;
  numa_vector<offset_t> long_rowptr_{0};
  numa_vector<index_t> long_colind_;
  numa_vector<value_t> long_values_;
};

}  // namespace sparta
