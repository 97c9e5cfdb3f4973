#include "sparse/sym_csr.hpp"

#include <vector>

#include "check/contract.hpp"
#include "check/validate.hpp"
#include "sparse/build.hpp"
#include "sparse/coo.hpp"
#include "sparse/properties.hpp"

namespace sparta {

namespace {

/// Per-chunk classification totals for the parallel count pass.
struct ChunkTally {
  offset_t lower_nnz = 0;
  index_t diag_rows = 0;
};

[[noreturn]] void fail_mirror() {
  throw check::ValidationError{
      "symcsr.source.mirror",
      "source matrix is not symmetric: an entry has no equal-valued mirror"};
}

}  // namespace

SymCsrMatrix SymCsrMatrix::build(const CsrMatrix& a, int threads) {
  const int nthreads = build::resolve_threads(threads);
  if (a.nrows() != a.ncols()) {
    throw check::ValidationError{"symcsr.source.square",
                                 "symmetric storage requires a square matrix"};
  }
  build::PhaseRecorder rec{"symcsr"};
  SymCsrMatrix out;
  out.nrows_ = a.nrows();
  out.source_nnz_ = a.nnz();

  // Count pass: rows classify their entries independently (strict lower /
  // diagonal); fixed row chunks tally each kind. Chunking never leaks into
  // the output — the scan turns tallies into offsets.
  rec.phase("count");
  const auto n = static_cast<std::size_t>(a.nrows());
  const int nchunks = nthreads;
  std::vector<ChunkTally> tally(static_cast<std::size_t>(nchunks));
#pragma omp parallel for default(none) shared(tally, a, n, nchunks) num_threads(nthreads) \
    schedule(static)
  for (int cidx = 0; cidx < nchunks; ++cidx) {
    ChunkTally t;
    const auto begin = build::chunk_begin(n, nchunks, cidx);
    const auto end = build::chunk_begin(n, nchunks, cidx + 1);
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = static_cast<index_t>(i);
      for (const index_t c : a.row_cols(row)) {
        if (c < row) {
          ++t.lower_nnz;
        } else if (c == row) {
          ++t.diag_rows;
        }
      }
    }
    tally[static_cast<std::size_t>(cidx)] = t;
  }

  // Scan pass: exclusive prefix over the lower tallies -> per-chunk bases.
  rec.phase("scan");
  std::vector<offset_t> base(static_cast<std::size_t>(nchunks));
  offset_t lower_total = 0;
  index_t diag_total = 0;
  for (int cidx = 0; cidx < nchunks; ++cidx) {
    base[static_cast<std::size_t>(cidx)] = lower_total;
    lower_total += tally[static_cast<std::size_t>(cidx)].lower_nnz;
    diag_total += tally[static_cast<std::size_t>(cidx)].diag_rows;
  }
  out.diag_entries_ = diag_total;

  // Fill pass: each chunk walks its rows with a running offset seeded from
  // its base, writing every output slot absolutely so the layout is
  // identical to the serial row-order build and every default-init
  // numa_vector page is first-touched by its filling thread.
  rec.phase("fill");
  out.rowptr_ = numa_vector<offset_t>(n + 1);
  out.rowptr_[0] = 0;
  out.colind_ = numa_vector<index_t>(static_cast<std::size_t>(lower_total));
  out.values_ = numa_vector<value_t>(static_cast<std::size_t>(lower_total));
  out.diag_ = numa_vector<value_t>(n);
  out.diag_present_ = numa_vector<std::uint8_t>(n);
#pragma omp parallel for default(none) shared(out, a, base, n, nchunks) \
    num_threads(nthreads) schedule(static)
  for (int cidx = 0; cidx < nchunks; ++cidx) {
    offset_t off = base[static_cast<std::size_t>(cidx)];
    const auto begin = build::chunk_begin(n, nchunks, cidx);
    const auto end = build::chunk_begin(n, nchunks, cidx + 1);
    for (std::size_t i = begin; i < end; ++i) {
      const auto row = static_cast<index_t>(i);
      const auto cols = a.row_cols(row);
      const auto vals = a.row_vals(row);
      value_t d = 0.0;
      std::uint8_t present = 0;
      for (std::size_t j = 0; j < cols.size(); ++j) {
        if (cols[j] < row) {
          out.colind_[static_cast<std::size_t>(off)] = cols[j];
          out.values_[static_cast<std::size_t>(off)] = vals[j];
          ++off;
        } else if (cols[j] == row) {
          d = vals[j];
          present = 1;
        }
      }
      out.diag_[i] = d;
      out.diag_present_[i] = present;
      out.rowptr_[i + 1] = off;
    }
  }

  // Verify pass: the source must equal its transpose, values compared
  // with ==, or the lower triangle alone does not represent it
  // (is_symmetric's cursor walk at tolerance 0, on the same team).
  rec.phase("verify");
  if (!is_symmetric(a, 0.0, nthreads)) fail_mirror();
  rec.finish(out.bytes());
  // Triangle purity, diagonal accounting and mirror-nnz conservation
  // against the source (check/validate.hpp).
  SPARTA_CHECK_STRUCTURE(out, a);
  return out;
}

SymCsrMatrix SymCsrMatrix::build_serial(const CsrMatrix& a) {
  if (a.nrows() != a.ncols()) {
    throw check::ValidationError{"symcsr.source.square",
                                 "symmetric storage requires a square matrix"};
  }
  SymCsrMatrix out;
  out.nrows_ = a.nrows();
  out.source_nnz_ = a.nnz();

  const auto n = static_cast<std::size_t>(a.nrows());
  out.rowptr_ = numa_vector<offset_t>(n + 1);
  out.rowptr_[0] = 0;
  out.diag_ = numa_vector<value_t>(n);
  out.diag_present_ = numa_vector<std::uint8_t>(n);
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    value_t d = 0.0;
    std::uint8_t present = 0;
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] < i) {
        out.colind_.push_back(cols[j]);
        out.values_.push_back(vals[j]);
      } else if (cols[j] == i) {
        d = vals[j];
        present = 1;
        ++out.diag_entries_;
      }
    }
    out.diag_[static_cast<std::size_t>(i)] = d;
    out.diag_present_[static_cast<std::size_t>(i)] = present;
    out.rowptr_[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(out.colind_.size());
  }
  if (!is_symmetric(a, 0.0, 1)) fail_mirror();
  SPARTA_CHECK_STRUCTURE(out, a);
  return out;
}

CsrMatrix SymCsrMatrix::expand() const {
  CooMatrix coo{nrows_, nrows_};
  coo.reserve(static_cast<std::size_t>(source_nnz_));
  for (index_t i = 0; i < nrows_; ++i) {
    const auto cols = row_cols(i);
    const auto vals = row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      coo.add(i, cols[j], vals[j]);
      coo.add(cols[j], i, vals[j]);
    }
    if (diag_present_[static_cast<std::size_t>(i)] != 0) {
      coo.add(i, i, diag_[static_cast<std::size_t>(i)]);
    }
  }
  return CsrMatrix::from_coo(coo);
}

std::span<const index_t> SymCsrMatrix::row_cols(index_t i) const {
  const auto b = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i)]);
  const auto e = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i) + 1]);
  return std::span<const index_t>{colind_}.subspan(b, e - b);
}

std::span<const value_t> SymCsrMatrix::row_vals(index_t i) const {
  const auto b = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i)]);
  const auto e = static_cast<std::size_t>(rowptr_[static_cast<std::size_t>(i) + 1]);
  return std::span<const value_t>{values_}.subspan(b, e - b);
}

std::size_t SymCsrMatrix::index_bytes() const {
  return rowptr_.size() * sizeof(offset_t) + colind_.size() * sizeof(index_t);
}

std::size_t SymCsrMatrix::value_bytes() const {
  return (values_.size() + diag_.size()) * sizeof(value_t);
}

}  // namespace sparta
