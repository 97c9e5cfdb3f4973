// Structural validators for every rewritten matrix format and for the
// per-thread row partitions — the format-invariant half of sparta::check.
//
// Each format gets two surfaces:
//
//  - an *arrays* overload taking a lightweight view struct of the raw
//    storage. This is the real validator: tests (and the corruption fuzzer)
//    can flip one field of a view and prove the validator names the
//    violation, without ever constructing an invalid object;
//  - an *object* overload (`validate(const CsrMatrix&)`, ...) that adapts a
//    live instance onto its view — the form the constructor/tuner wiring
//    (SPARTA_CHECK_STRUCTURE) uses.
//
// Every check throws ValidationError carrying a stable dotted violation
// name such as "delta.width.purity" or "partition.contiguity". The `effort`
// argument bounds the work: kCheap runs the O(rows) subset (sizes, fronts,
// monotonicity, descriptor consistency), kFull adds the O(nnz) scans
// (column bounds and ordering, delta reconstruction, SELL padding and
// permutation bijectivity). kOff returns
// immediately — callers wire the build level through unconditionally.
//
// Validator guarantees are tabulated in DESIGN.md §11.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "check/contract.hpp"
#include "common/types.hpp"
#include "sparse/csr.hpp"
#include "sparse/decomposed_csr.hpp"
#include "sparse/delta_csr.hpp"
#include "sparse/partition.hpp"
#include "sparse/sell.hpp"
#include "sparse/sym_csr.hpp"

namespace sparta::check {

/// Bad structural data. Derives from std::invalid_argument so pre-existing
/// catch sites (e.g. around CsrMatrix::validate) keep working.
class ValidationError : public std::invalid_argument {
 public:
  ValidationError(std::string violation, const std::string& detail);

  /// Stable dotted name of the violated invariant, e.g. "csr.rowptr.front".
  [[nodiscard]] const std::string& violation() const noexcept { return violation_; }

 private:
  std::string violation_;
};

// ---------------------------------------------------------------------------
// Raw-array views (the corruptible surface the fuzz tests exercise).
// ---------------------------------------------------------------------------

struct CsrArrays {
  index_t nrows = 0;
  index_t ncols = 0;
  std::span<const offset_t> rowptr;
  std::span<const index_t> colind;
  std::size_t values_size = 0;
};

struct DeltaArrays {
  index_t nrows = 0;
  index_t ncols = 0;
  DeltaWidth width = DeltaWidth::k8;
  std::span<const offset_t> rowptr;
  std::span<const index_t> first_col;
  std::span<const std::uint8_t> deltas8;
  std::span<const std::uint16_t> deltas16;
  std::size_t values_size = 0;
};

struct SellArrays {
  index_t nrows = 0;
  index_t ncols = 0;
  index_t chunk = 0;
  offset_t nnz = 0;
  std::span<const index_t> perm;
  std::span<const index_t> row_len;
  std::span<const index_t> chunk_len;
  std::span<const offset_t> chunk_off;
  std::span<const index_t> colind;
  std::span<const value_t> values;
};

struct SymArrays {
  index_t nrows = 0;
  /// Nonzeros of the source matrix the storage claims to represent
  /// (mirror-nnz conservation: 2 * lower + stored diagonals must equal it).
  offset_t source_nnz = 0;
  std::span<const offset_t> rowptr;
  std::span<const index_t> colind;
  std::size_t values_size = 0;
  std::span<const value_t> diag;
  std::span<const std::uint8_t> diag_present;
};

struct DecomposedArrays {
  /// The short part is a full CsrMatrix and validates through its own
  /// arrays view; here it contributes its row-emptiness contract.
  const CsrMatrix* short_part = nullptr;
  index_t threshold = 0;
  std::span<const index_t> long_rows;
  std::span<const offset_t> long_rowptr;
  std::span<const index_t> long_colind;
  std::size_t long_values_size = 0;
};

// ---------------------------------------------------------------------------
// Arrays-level validators.
// ---------------------------------------------------------------------------

void validate_csr(const CsrArrays& a, Level effort = Level::kFull);
void validate_delta(const DeltaArrays& a, Level effort = Level::kFull);
void validate_sell(const SellArrays& a, Level effort = Level::kFull);
void validate_decomposed(const DecomposedArrays& a, Level effort = Level::kFull);
void validate_sym(const SymArrays& a, Level effort = Level::kFull);
/// Ordered exact cover of [0, nrows).
void validate_partition(std::span<const RowRange> parts, index_t nrows,
                        Level effort = Level::kFull);

// ---------------------------------------------------------------------------
// Object-level adapters (the SPARTA_CHECK_STRUCTURE surface).
// ---------------------------------------------------------------------------

void validate(const CsrMatrix& m, Level effort = Level::kFull);
void validate(const DeltaCsrMatrix& m, Level effort = Level::kFull);
void validate(const SellMatrix& m, Level effort = Level::kFull);
void validate(const DecomposedCsrMatrix& m, Level effort = Level::kFull);
/// Additionally proves nnz conservation against the matrix that was
/// decomposed (the split must partition the nonzeros exactly).
void validate(const DecomposedCsrMatrix& m, const CsrMatrix& source,
              Level effort = Level::kFull);
void validate(const SymCsrMatrix& m, Level effort = Level::kFull);
/// Additionally proves mirror-nnz conservation and shape agreement against
/// the symmetric matrix that was compressed.
void validate(const SymCsrMatrix& m, const CsrMatrix& source, Level effort = Level::kFull);
void validate(std::span<const RowRange> parts, index_t nrows, Level effort = Level::kFull);

// View-level members of the same overload set, so SPARTA_CHECK_STRUCTURE
// also accepts a raw-arrays view (the corruption tests use this).
inline void validate(const CsrArrays& a, Level effort = Level::kFull) {
  validate_csr(a, effort);
}
inline void validate(const DeltaArrays& a, Level effort = Level::kFull) {
  validate_delta(a, effort);
}
inline void validate(const SellArrays& a, Level effort = Level::kFull) {
  validate_sell(a, effort);
}
inline void validate(const DecomposedArrays& a, Level effort = Level::kFull) {
  validate_decomposed(a, effort);
}
inline void validate(const SymArrays& a, Level effort = Level::kFull) {
  validate_sym(a, effort);
}

}  // namespace sparta::check
