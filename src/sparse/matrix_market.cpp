#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace sparta::mm {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error{"matrix market: " + what};
}

}  // namespace

CooMatrix read_coo(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) fail("empty stream");

  std::istringstream header{line};
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") fail("missing %%MatrixMarket banner");
  if (lower(object) != "matrix" || lower(format) != "coordinate") {
    fail("only 'matrix coordinate' is supported");
  }
  field = lower(field);
  symmetry = lower(symmetry);
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer") {
    fail("unsupported field type '" + field + "'");
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    fail("unsupported symmetry '" + symmetry + "'");
  }

  // Skip comments, find the size line.
  long long nrows = 0, ncols = 0, nnz = 0;
  bool sized = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ss{line};
    if (!(ss >> nrows >> ncols >> nnz)) fail("bad size line");
    sized = true;
    break;
  }
  if (!sized) fail("missing size line");
  // Everything the size line claims is checked before it sizes an
  // allocation, so a malformed header stops here with a named error.
  if (nrows < 0 || ncols < 0 || nnz < 0) fail("negative size in size line: " + line);
  if (nrows > std::numeric_limits<index_t>::max() || ncols > std::numeric_limits<index_t>::max()) {
    fail("matrix dimensions exceed 32-bit index range");
  }
  // Both factors fit in 31 bits, so the product cannot overflow 64 bits.
  if (nnz > nrows * ncols) fail("more entries than matrix positions: " + line);
  if (symmetric && nrows != ncols) fail("symmetric file with non-square size: " + line);

  // Entry parsing avoids an istringstream per line (strtoll/strtod walk the
  // line buffer directly) and grows nothing: the triplet list is reserved to
  // the exact declared count first, and — for symmetric files — regrown once
  // to the exact mirrored size counted during the parse (diagonal entries
  // have no mirror, so a blanket 2*nnz reserve would over-allocate).
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(nnz));
  long long seen = 0;
  long long off_diagonal = 0;
  while (seen < nnz && std::getline(is, line)) {
    if (line.empty() || line[0] == '%') continue;
    const char* p = line.c_str();
    char* end = nullptr;
    const long long r = std::strtoll(p, &end, 10);
    if (end == p) fail("bad entry line: " + line);
    p = end;
    const long long c = std::strtoll(p, &end, 10);
    if (end == p) fail("bad entry line: " + line);
    p = end;
    double v = 1.0;
    if (!pattern) {
      v = std::strtod(p, &end);
      if (end == p) fail("missing value: " + line);
      if (!std::isfinite(v)) fail("non-finite value: " + line);
    }
    if (r < 1 || r > nrows || c < 1 || c > ncols) fail("entry out of range: " + line);
    // The format stores only the lower triangle of a symmetric matrix
    // (Matrix Market spec §4): an upper-triangle entry is malformed, not an
    // alternative convention, and silently mirroring it would double-count
    // against files that also carry the paired lower entry.
    if (symmetric && c > r) fail("upper-triangle entry in symmetric file: " + line);
    triplets.push_back({static_cast<index_t>(r - 1), static_cast<index_t>(c - 1), v});
    if (symmetric && r != c) ++off_diagonal;
    ++seen;
  }
  if (seen != nnz) fail("fewer entries than declared");
  if (off_diagonal > 0) {
    triplets.reserve(static_cast<std::size_t>(nnz + off_diagonal));
    const std::size_t stored = triplets.size();
    for (std::size_t k = 0; k < stored; ++k) {
      const Triplet t = triplets[k];  // copy: don't hold a reference across push_back
      if (t.row != t.col) triplets.push_back({t.col, t.row, t.value});
    }
  }
  CooMatrix coo = CooMatrix::from_triplets(static_cast<index_t>(nrows),
                                           static_cast<index_t>(ncols), std::move(triplets));
  coo.compress();
  return coo;
}

CsrMatrix read_csr_file(const std::string& path) {
  std::ifstream f{path};
  if (!f) fail("cannot open '" + path + "'");
  return CsrMatrix::from_coo(read_coo(f));
}

void write(std::ostream& os, const CsrMatrix& m) {
  os << "%%MatrixMarket matrix coordinate real general\n";
  os << m.nrows() << ' ' << m.ncols() << ' ' << m.nnz() << '\n';
  os << std::setprecision(17);
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      os << (i + 1) << ' ' << (cols[j] + 1) << ' ' << vals[j] << '\n';
    }
  }
}

void write_file(const std::string& path, const CsrMatrix& m) {
  std::ofstream f{path};
  if (!f) fail("cannot open '" + path + "' for writing");
  write(f, m);
}

}  // namespace sparta::mm
