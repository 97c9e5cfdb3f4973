#include "check/validate.hpp"

#include <algorithm>
#include <vector>

namespace sparta::check {

ValidationError::ValidationError(std::string violation, const std::string& detail)
    : std::invalid_argument(violation + ": " + detail), violation_(std::move(violation)) {}

namespace {

[[noreturn]] void fail_v(std::string violation, const std::string& detail) {
  throw ValidationError{std::move(violation), detail};
}

/// Below this nonzero count the parallel clean/dirty pre-pass of the kFull
/// CSR scan is not worth a fork/join; the serial scan runs directly.
constexpr std::size_t kParallelValidateMinNnz = 1u << 15;

/// rowptr must be {0, ...} non-decreasing with size() == nrows + 1; returns
/// nothing but throws `<prefix>.rowptr.{size,front,monotonic}`.
void check_rowptr(std::span<const offset_t> rowptr, index_t nrows, const std::string& prefix) {
  if (rowptr.size() != static_cast<std::size_t>(nrows) + 1) {
    fail_v(prefix + ".rowptr.size",
           "rowptr has " + std::to_string(rowptr.size()) + " entries, want nrows+1 = " +
               std::to_string(nrows + 1));
  }
  if (rowptr.front() != 0) {
    fail_v(prefix + ".rowptr.front", "rowptr[0] = " + std::to_string(rowptr.front()));
  }
  for (std::size_t i = 1; i < rowptr.size(); ++i) {
    if (rowptr[i] < rowptr[i - 1]) {
      fail_v(prefix + ".rowptr.monotonic",
             "rowptr decreases at entry " + std::to_string(i));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// CSR
// ---------------------------------------------------------------------------

void validate_csr(const CsrArrays& a, Level effort) {
  if (effort == Level::kOff) return;
  if (a.nrows < 0 || a.ncols < 0) {
    fail_v("csr.dims", std::to_string(a.nrows) + " x " + std::to_string(a.ncols));
  }
  check_rowptr(a.rowptr, a.nrows, "csr");
  if (static_cast<std::size_t>(a.rowptr.back()) != a.colind.size() ||
      a.colind.size() != a.values_size) {
    fail_v("csr.nnz.consistency",
           "rowptr.back() = " + std::to_string(a.rowptr.back()) + ", colind " +
               std::to_string(a.colind.size()) + " entries, values " +
               std::to_string(a.values_size) + " entries");
  }
  if (effort < Level::kFull) return;
  // The O(nnz) scan runs on the CsrMatrix constructor path unconditionally,
  // so it would serialize every parallel builder that ends in a CSR. Large
  // matrices take a parallel clean/dirty pre-pass (rows are independent);
  // only when a violation exists does the serial scan below re-run to name
  // the *first* violation in row order — identical errors either way.
  const index_t nrows = a.nrows;
  if (a.colind.size() >= kParallelValidateMinNnz) {
    bool clean = true;
#pragma omp parallel for default(none) shared(a, nrows) reduction(&& : clean) schedule(static)
    for (index_t r = 0; r < nrows; ++r) {
      const auto b = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(r)]);
      const auto e = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(r) + 1]);
      bool ok = true;
      for (std::size_t j = b; j < e; ++j) {
        ok = ok && a.colind[j] >= 0 && a.colind[j] < a.ncols &&
             (j == b || a.colind[j] > a.colind[j - 1]);
      }
      clean = clean && ok;
    }
    if (clean) return;
  }
  for (index_t r = 0; r < nrows; ++r) {
    const auto b = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(r)]);
    const auto e = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(r) + 1]);
    for (std::size_t j = b; j < e; ++j) {
      if (a.colind[j] < 0 || a.colind[j] >= a.ncols) {
        fail_v("csr.colind.bounds", "row " + std::to_string(r) + " has column " +
                                        std::to_string(a.colind[j]));
      }
      if (j > b && a.colind[j] <= a.colind[j - 1]) {
        fail_v("csr.colind.sorted",
               "row " + std::to_string(r) + " columns not strictly increasing");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Delta-compressed CSR
// ---------------------------------------------------------------------------

void validate_delta(const DeltaArrays& a, Level effort) {
  if (effort == Level::kOff) return;
  if (a.nrows < 0 || a.ncols < 0) {
    fail_v("delta.dims", std::to_string(a.nrows) + " x " + std::to_string(a.ncols));
  }
  check_rowptr(a.rowptr, a.nrows, "delta");
  const auto nnz = static_cast<std::size_t>(a.rowptr.back());
  if (a.first_col.size() != static_cast<std::size_t>(a.nrows)) {
    fail_v("delta.first_col.size", std::to_string(a.first_col.size()) + " entries, want " +
                                       std::to_string(a.nrows));
  }
  // Width purity: exactly the stream matching `width` carries the nnz
  // entries; the other must be empty — 8- and 16-bit deltas never mix.
  const std::size_t active = a.width == DeltaWidth::k8 ? a.deltas8.size() : a.deltas16.size();
  const std::size_t inactive = a.width == DeltaWidth::k8 ? a.deltas16.size() : a.deltas8.size();
  if (inactive != 0) {
    fail_v("delta.width.purity", "both 8- and 16-bit delta streams populated");
  }
  if (active != nnz) {
    fail_v("delta.stream.size", "delta stream has " + std::to_string(active) +
                                    " entries, want nnz = " + std::to_string(nnz));
  }
  if (a.values_size != nnz) {
    fail_v("delta.values.size", "values have " + std::to_string(a.values_size) +
                                    " entries, want nnz = " + std::to_string(nnz));
  }
  if (effort < Level::kFull) return;
  for (index_t r = 0; r < a.nrows; ++r) {
    const auto b = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(r)]);
    const auto e = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(r) + 1]);
    if (b == e) continue;
    index_t col = a.first_col[static_cast<std::size_t>(r)];
    if (col < 0 || col >= a.ncols) {
      fail_v("delta.first_col.bounds",
             "row " + std::to_string(r) + " starts at column " + std::to_string(col));
    }
    // The first element's stream slot is unused (its column is absolute);
    // every later delta must be >= 1 (columns strictly increase) and the
    // reconstructed column must stay in range.
    for (std::size_t j = b + 1; j < e; ++j) {
      const index_t d = a.width == DeltaWidth::k8 ? static_cast<index_t>(a.deltas8[j])
                                                  : static_cast<index_t>(a.deltas16[j]);
      if (d < 1) {
        fail_v("delta.deltas.positive", "row " + std::to_string(r) + " has delta " +
                                            std::to_string(d) + " at nnz " + std::to_string(j));
      }
      col += d;
      if (col >= a.ncols) {
        fail_v("delta.col.bounds", "row " + std::to_string(r) +
                                       " reconstructs column " + std::to_string(col));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SELL-C-sigma
// ---------------------------------------------------------------------------

void validate_sell(const SellArrays& a, Level effort) {
  if (effort == Level::kOff) return;
  if (a.nrows < 0 || a.ncols < 0 || a.nnz < 0) {
    fail_v("sell.dims", std::to_string(a.nrows) + " x " + std::to_string(a.ncols) + ", nnz " +
                            std::to_string(a.nnz));
  }
  if (a.chunk <= 0) fail_v("sell.chunk.positive", "chunk = " + std::to_string(a.chunk));
  const auto n = static_cast<std::size_t>(a.nrows);
  if (a.perm.size() != n) {
    fail_v("sell.perm.size", std::to_string(a.perm.size()) + " entries, want nrows");
  }
  if (a.row_len.size() != n) {
    fail_v("sell.row_len.size", std::to_string(a.row_len.size()) + " entries, want nrows");
  }
  const auto nchunks = static_cast<std::size_t>((a.nrows + a.chunk - 1) / a.chunk);
  if (a.chunk_len.size() != nchunks || a.chunk_off.size() != nchunks) {
    fail_v("sell.chunks.count", "chunk_len/chunk_off sized " +
                                    std::to_string(a.chunk_len.size()) + "/" +
                                    std::to_string(a.chunk_off.size()) + ", want " +
                                    std::to_string(nchunks));
  }
  // Chunk layout: offsets are the running sum of chunk_len * chunk and the
  // padded arrays end exactly at the last chunk's end.
  offset_t off = 0;
  for (std::size_t k = 0; k < nchunks; ++k) {
    if (a.chunk_len[k] < 0) fail_v("sell.chunk_len.negative", "chunk " + std::to_string(k));
    if (a.chunk_off[k] != off) {
      fail_v("sell.chunk_off.layout",
             "chunk " + std::to_string(k) + " offset " + std::to_string(a.chunk_off[k]) +
                 ", want running sum " + std::to_string(off));
    }
    off += static_cast<offset_t>(a.chunk_len[k]) * a.chunk;
  }
  if (a.colind.size() != static_cast<std::size_t>(off) || a.colind.size() != a.values.size()) {
    fail_v("sell.storage.size", "colind/values sized " + std::to_string(a.colind.size()) + "/" +
                                    std::to_string(a.values.size()) + ", want padded nnz " +
                                    std::to_string(off));
  }
  // Row lengths fit their chunk's padded width, and the widths are tight
  // (some lane attains each width — padding is bounded by the longest row).
  offset_t len_sum = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (a.row_len[p] < 0) fail_v("sell.row_len.negative", "position " + std::to_string(p));
    len_sum += a.row_len[p];
    if (a.row_len[p] > a.chunk_len[p / static_cast<std::size_t>(a.chunk)]) {
      fail_v("sell.chunk_len.fit", "position " + std::to_string(p) + " length " +
                                       std::to_string(a.row_len[p]) + " exceeds chunk width");
    }
  }
  if (len_sum != a.nnz) {
    fail_v("sell.nnz.sum", "row lengths sum to " + std::to_string(len_sum) + ", want nnz = " +
                               std::to_string(a.nnz));
  }
  for (std::size_t k = 0; k < nchunks; ++k) {
    if (a.chunk_len[k] == 0) continue;
    index_t widest = 0;
    for (index_t lane = 0; lane < a.chunk; ++lane) {
      const auto p = k * static_cast<std::size_t>(a.chunk) + static_cast<std::size_t>(lane);
      if (p < n) widest = std::max(widest, a.row_len[p]);
    }
    if (widest != a.chunk_len[k]) {
      fail_v("sell.chunk_len.tight", "chunk " + std::to_string(k) + " padded to " +
                                         std::to_string(a.chunk_len[k]) +
                                         " but longest row has " + std::to_string(widest));
    }
  }
  if (effort < Level::kFull) return;
  // Permutation bijectivity: perm maps sorted positions onto [0, nrows)
  // exactly once — a corrupted permutation silently drops/duplicates rows.
  std::vector<bool> seen(n, false);
  for (std::size_t p = 0; p < n; ++p) {
    const index_t row = a.perm[p];
    if (row < 0 || row >= a.nrows) {
      fail_v("sell.perm.bounds", "position " + std::to_string(p) + " maps to row " +
                                     std::to_string(row));
    }
    if (seen[static_cast<std::size_t>(row)]) {
      fail_v("sell.perm.bijection", "row " + std::to_string(row) + " appears twice");
    }
    seen[static_cast<std::size_t>(row)] = true;
  }
  // Column bounds on live lanes; padding lanes must carry colind 0 / value 0.
  for (std::size_t k = 0; k < nchunks; ++k) {
    for (index_t lane = 0; lane < a.chunk; ++lane) {
      const auto p = k * static_cast<std::size_t>(a.chunk) + static_cast<std::size_t>(lane);
      const index_t len = p < n ? a.row_len[p] : 0;
      for (index_t j = 0; j < a.chunk_len[k]; ++j) {
        const auto src = static_cast<std::size_t>(a.chunk_off[k]) +
                         static_cast<std::size_t>(j) * static_cast<std::size_t>(a.chunk) +
                         static_cast<std::size_t>(lane);
        if (j < len) {
          if (a.colind[src] < 0 || a.colind[src] >= a.ncols) {
            fail_v("sell.colind.bounds", "chunk " + std::to_string(k) + " lane " +
                                             std::to_string(lane) + " has column " +
                                             std::to_string(a.colind[src]));
          }
        } else if (a.colind[src] != 0 || a.values[src] != 0.0) {
          fail_v("sell.padding.zero", "chunk " + std::to_string(k) + " lane " +
                                          std::to_string(lane) + " padding slot " +
                                          std::to_string(j) + " not zeroed");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Long-row decomposition
// ---------------------------------------------------------------------------

void validate_decomposed(const DecomposedArrays& a, Level effort) {
  if (effort == Level::kOff) return;
  if (a.short_part == nullptr) fail_v("decomp.short.missing", "no short part");
  if (a.threshold <= 0) fail_v("decomp.threshold", std::to_string(a.threshold));
  const index_t nrows = a.short_part->nrows();
  if (a.long_rowptr.size() != a.long_rows.size() + 1) {
    fail_v("decomp.long_rowptr.size", std::to_string(a.long_rowptr.size()) + " entries, want " +
                                          std::to_string(a.long_rows.size() + 1));
  }
  if (a.long_rowptr.front() != 0) {
    fail_v("decomp.long_rowptr.front", std::to_string(a.long_rowptr.front()));
  }
  for (std::size_t k = 0; k < a.long_rows.size(); ++k) {
    const index_t row = a.long_rows[k];
    if (row < 0 || row >= nrows) {
      fail_v("decomp.long_rows.bounds", "long row " + std::to_string(row));
    }
    if (k > 0 && row <= a.long_rows[k - 1]) {
      fail_v("decomp.long_rows.sorted", "long rows not strictly ascending at entry " +
                                            std::to_string(k));
    }
    if (a.long_rowptr[k + 1] < a.long_rowptr[k]) {
      fail_v("decomp.long_rowptr.monotonic", "decreases at entry " + std::to_string(k + 1));
    }
    // A long row must actually be long — and its row in the short part must
    // have been emptied, else its nonzeros are counted twice.
    if (a.long_rowptr[k + 1] - a.long_rowptr[k] <= a.threshold) {
      fail_v("decomp.long.threshold",
             "long row " + std::to_string(row) + " has only " +
                 std::to_string(a.long_rowptr[k + 1] - a.long_rowptr[k]) + " nonzeros");
    }
    if (a.short_part->row_nnz(row) != 0) {
      fail_v("decomp.short.emptied",
             "row " + std::to_string(row) + " present in both parts");
    }
  }
  if (static_cast<std::size_t>(a.long_rowptr.back()) != a.long_colind.size() ||
      a.long_colind.size() != a.long_values_size) {
    fail_v("decomp.nnz.consistency",
           "long_rowptr.back() = " + std::to_string(a.long_rowptr.back()) + ", colind " +
               std::to_string(a.long_colind.size()) + " entries, values " +
               std::to_string(a.long_values_size) + " entries");
  }
  if (effort < Level::kFull) return;
  const index_t ncols = a.short_part->ncols();
  for (std::size_t k = 0; k < a.long_rows.size(); ++k) {
    const auto b = static_cast<std::size_t>(a.long_rowptr[k]);
    const auto e = static_cast<std::size_t>(a.long_rowptr[k + 1]);
    for (std::size_t j = b; j < e; ++j) {
      if (a.long_colind[j] < 0 || a.long_colind[j] >= ncols) {
        fail_v("decomp.colind.bounds", "long row " + std::to_string(a.long_rows[k]) +
                                           " has column " + std::to_string(a.long_colind[j]));
      }
      if (j > b && a.long_colind[j] <= a.long_colind[j - 1]) {
        fail_v("decomp.colind.sorted", "long row " + std::to_string(a.long_rows[k]) +
                                           " columns not strictly increasing");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SymCsr (strict lower triangle + dense diagonal)
// ---------------------------------------------------------------------------

void validate_sym(const SymArrays& a, Level effort) {
  if (effort == Level::kOff) return;
  if (a.nrows < 0) fail_v("symcsr.dims", std::to_string(a.nrows) + " rows");
  check_rowptr(a.rowptr, a.nrows, "symcsr");
  if (static_cast<std::size_t>(a.rowptr.back()) != a.colind.size() ||
      a.colind.size() != a.values_size) {
    fail_v("symcsr.nnz.consistency",
           "rowptr.back() = " + std::to_string(a.rowptr.back()) + ", colind " +
               std::to_string(a.colind.size()) + " entries, values " +
               std::to_string(a.values_size) + " entries");
  }
  if (a.diag.size() != static_cast<std::size_t>(a.nrows) ||
      a.diag_present.size() != static_cast<std::size_t>(a.nrows)) {
    fail_v("symcsr.diag.size", "diag has " + std::to_string(a.diag.size()) +
                                   " entries, presence " +
                                   std::to_string(a.diag_present.size()) + ", want nrows = " +
                                   std::to_string(a.nrows));
  }
  // Mirror-nnz conservation: the stored lower triangle mirrors once, the
  // stored diagonal entries once, and together they must account for every
  // source nonzero (the O(rows) presence scan is cheap enough for kCheap).
  offset_t diag_stored = 0;
  for (std::size_t i = 0; i < a.diag_present.size(); ++i) {
    if (a.diag_present[i] > 1) {
      fail_v("symcsr.diag.flag", "row " + std::to_string(i) + " has presence flag " +
                                     std::to_string(a.diag_present[i]));
    }
    diag_stored += a.diag_present[i];
  }
  if (2 * a.rowptr.back() + diag_stored != a.source_nnz) {
    fail_v("symcsr.nnz.conservation",
           "2 * " + std::to_string(a.rowptr.back()) + " lower + " +
               std::to_string(diag_stored) + " diagonal entries, source has " +
               std::to_string(a.source_nnz));
  }
  if (effort < Level::kFull) return;
  for (index_t r = 0; r < a.nrows; ++r) {
    // Absent diagonal entries must read as an exact additive zero.
    if (a.diag_present[static_cast<std::size_t>(r)] == 0 &&
        a.diag[static_cast<std::size_t>(r)] != 0.0) {
      fail_v("symcsr.diag.zero",
             "row " + std::to_string(r) + " has no stored diagonal but nonzero fill");
    }
    const auto b = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(r)]);
    const auto e = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(r) + 1]);
    for (std::size_t j = b; j < e; ++j) {
      // Triangle purity: every stored index is strictly below the diagonal.
      if (a.colind[j] < 0 || a.colind[j] >= r) {
        fail_v("symcsr.triangle.purity", "row " + std::to_string(r) + " stores column " +
                                             std::to_string(a.colind[j]));
      }
      if (j > b && a.colind[j] <= a.colind[j - 1]) {
        fail_v("symcsr.colind.sorted",
               "row " + std::to_string(r) + " columns not strictly increasing");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row partitions
// ---------------------------------------------------------------------------

void validate_partition(std::span<const RowRange> parts, index_t nrows, Level effort) {
  if (effort == Level::kOff) return;
  if (nrows < 0) fail_v("partition.nrows", std::to_string(nrows));
  if (parts.empty()) fail_v("partition.empty", "no ranges");
  if (parts.front().begin != 0) {
    fail_v("partition.start", "first range begins at " + std::to_string(parts.front().begin));
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].begin > parts[i].end) {
      fail_v("partition.inverted", "range " + std::to_string(i) + " is [" +
                                       std::to_string(parts[i].begin) + ", " +
                                       std::to_string(parts[i].end) + ")");
    }
    if (i > 0 && parts[i].begin != parts[i - 1].end) {
      fail_v("partition.contiguity", "gap or overlap between ranges " + std::to_string(i - 1) +
                                         " and " + std::to_string(i));
    }
  }
  if (parts.back().end != nrows) {
    fail_v("partition.end",
           "last range ends at " + std::to_string(parts.back().end) + ", want nrows = " +
               std::to_string(nrows));
  }
}

// ---------------------------------------------------------------------------
// Object-level adapters
// ---------------------------------------------------------------------------

void validate(const CsrMatrix& m, Level effort) {
  validate_csr({m.nrows(), m.ncols(), m.rowptr(), m.colind(), m.values().size()}, effort);
}

void validate(const DeltaCsrMatrix& m, Level effort) {
  validate_delta({m.nrows(), m.ncols(), m.width(), m.rowptr(), m.first_col(), m.deltas8(),
                  m.deltas16(), m.values().size()},
                 effort);
}

void validate(const SellMatrix& m, Level effort) {
  SellArrays a;
  a.nrows = m.nrows();
  a.ncols = m.ncols();
  a.chunk = m.chunk_rows();
  a.nnz = m.nnz();
  a.colind = m.colind();
  a.values = m.values();
  // The accessors expose the descriptors element-wise; gather them into
  // contiguous spans for the arrays-level validator.
  const auto nchunks = static_cast<std::size_t>(m.nchunks());
  const auto n = static_cast<std::size_t>(m.nrows());
  std::vector<index_t> perm(n), row_len(n), chunk_len(nchunks);
  std::vector<offset_t> chunk_off(nchunks);
  for (std::size_t p = 0; p < n; ++p) {
    perm[p] = m.row_of(static_cast<index_t>(p));
    row_len[p] = m.row_len(static_cast<index_t>(p));
  }
  for (std::size_t k = 0; k < nchunks; ++k) {
    chunk_len[k] = m.chunk_len(static_cast<index_t>(k));
    chunk_off[k] = m.chunk_offset(static_cast<index_t>(k));
  }
  a.perm = perm;
  a.row_len = row_len;
  a.chunk_len = chunk_len;
  a.chunk_off = chunk_off;
  validate_sell(a, effort);
}

void validate(const DecomposedCsrMatrix& m, Level effort) {
  validate_decomposed({&m.short_part(), m.threshold(), m.long_rows(), m.long_rowptr(),
                       m.long_colind(), m.long_values().size()},
                      effort);
}

void validate(const DecomposedCsrMatrix& m, const CsrMatrix& source, Level effort) {
  if (effort == Level::kOff) return;
  validate(m, effort);
  if (m.nrows() != source.nrows() || m.ncols() != source.ncols()) {
    fail_v("decomp.source.dims", "decomposition is " + std::to_string(m.nrows()) + " x " +
                                     std::to_string(m.ncols()) + ", source " +
                                     std::to_string(source.nrows()) + " x " +
                                     std::to_string(source.ncols()));
  }
  // The split must partition the nonzeros exactly: nothing dropped, nothing
  // double-counted.
  if (m.nnz() != source.nnz()) {
    fail_v("decomp.nnz.conservation", "short + long = " + std::to_string(m.nnz()) +
                                          " nonzeros, source has " +
                                          std::to_string(source.nnz()));
  }
  if (effort < Level::kFull) return;
  // Row-exact conservation: every long row's stream equals the source row,
  // and every other row survives untouched in the short part.
  const auto long_rows = m.long_rows();
  const auto long_rowptr = m.long_rowptr();
  const auto long_colind = m.long_colind();
  std::size_t next_long = 0;
  for (index_t r = 0; r < source.nrows(); ++r) {
    const auto src_cols = source.row_cols(r);
    if (next_long < long_rows.size() && long_rows[next_long] == r) {
      const auto b = static_cast<std::size_t>(long_rowptr[next_long]);
      const auto e = static_cast<std::size_t>(long_rowptr[next_long + 1]);
      const bool equal = e - b == src_cols.size() &&
                         std::equal(src_cols.begin(), src_cols.end(), long_colind.begin() +
                                                                          static_cast<std::ptrdiff_t>(b));
      if (!equal) {
        fail_v("decomp.source.rows",
               "long row " + std::to_string(r) + " differs from the source row");
      }
      ++next_long;
    } else {
      const auto short_cols = m.short_part().row_cols(r);
      if (short_cols.size() != src_cols.size() ||
          !std::equal(src_cols.begin(), src_cols.end(), short_cols.begin())) {
        fail_v("decomp.source.rows",
               "short row " + std::to_string(r) + " differs from the source row");
      }
    }
  }
}

void validate(const SymCsrMatrix& m, Level effort) {
  validate_sym({m.nrows(), m.nnz(), m.rowptr(), m.colind(), m.values().size(), m.diag(),
                m.diag_present()},
               effort);
}

void validate(const SymCsrMatrix& m, const CsrMatrix& source, Level effort) {
  if (effort == Level::kOff) return;
  validate(m, effort);
  if (m.nrows() != source.nrows() || source.nrows() != source.ncols()) {
    fail_v("symcsr.source.dims", "symmetric storage is " + std::to_string(m.nrows()) +
                                     " rows, source " + std::to_string(source.nrows()) +
                                     " x " + std::to_string(source.ncols()));
  }
  // validate_sym already proved 2 * lower + diagonals == m.nnz(); tying
  // m.nnz() to the source closes the mirror-nnz conservation argument.
  if (m.nnz() != source.nnz()) {
    fail_v("symcsr.nnz.source", "storage claims " + std::to_string(m.nnz()) +
                                    " source nonzeros, source has " +
                                    std::to_string(source.nnz()));
  }
}

void validate(std::span<const RowRange> parts, index_t nrows, Level effort) {
  validate_partition(parts, nrows, effort);
}

}  // namespace sparta::check
