// Tests for Matrix Market I/O: round-trips, symmetric/pattern handling,
// malformed-input rejection, and the symmetric-file -> SymCsr pipeline
// (the parsed eager-mirror matrix and the compressed storage must agree
// bit-for-bit through expand()).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "gen/generators.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/sym_csr.hpp"

namespace sparta {
namespace {

TEST(MatrixMarket, WriteReadRoundTrip) {
  const CsrMatrix m = gen::banded(60, 10, 5, 21);
  std::stringstream ss;
  mm::write(ss, m);
  const CsrMatrix back = CsrMatrix::from_coo(mm::read_coo(ss));
  EXPECT_EQ(back, m);
}

TEST(MatrixMarket, RoundTripPreservesValuesExactly) {
  CooMatrix coo{2, 2};
  coo.add(0, 0, 1.0 / 3.0);
  coo.add(1, 1, -2.718281828459045);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  std::stringstream ss;
  mm::write(ss, m);
  const CsrMatrix back = CsrMatrix::from_coo(mm::read_coo(ss));
  EXPECT_DOUBLE_EQ(back.values()[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(back.values()[1], -2.718281828459045);
}

TEST(MatrixMarket, ParsesGeneralRealWithComments) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "%another\n"
      "3 3 2\n"
      "1 1 5.0\n"
      "3 2 -1.5\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nrows(), 3);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 5.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{2, 1, -1.5}));
}

TEST(MatrixMarket, SymmetricExpandsOffDiagonal) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 4.0\n"
      "3 3 9.0\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nnz(), 3);  // (1,0), (0,1), (2,2)
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 4.0);
  EXPECT_DOUBLE_EQ(m.row_vals(1)[0], 4.0);
  EXPECT_DOUBLE_EQ(m.row_vals(2)[0], 9.0);
}

TEST(MatrixMarket, SymmetricDiagonalNotDuplicated) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 1\n"
      "1 1 3.0\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nnz(), 1);
  EXPECT_DOUBLE_EQ(coo.entries()[0].value, 3.0);
}

// Golden symmetric fixture: lower-triangle file with a present, an
// explicitly zero, and an absent diagonal. The parsed (eagerly mirrored)
// matrix must match the hand-computed expansion exactly, and compressing it
// back into SymCsr storage must round-trip bit-for-bit.
TEST(MatrixMarket, SymmetricGoldenFixtureThroughSymCsr) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% 4x4 SPD-shaped: diag(0)=2.5, diag(1) explicit zero, diag(2) absent\n"
      "4 4 6\n"
      "1 1 2.5\n"
      "2 2 0.0\n"
      "2 1 -1.25\n"
      "3 1 0.5\n"
      "4 3 1.0\n"
      "4 4 3.0\n"};
  const CsrMatrix m = CsrMatrix::from_coo(mm::read_coo(ss));
  EXPECT_EQ(m.nnz(), 9);  // 6 stored + 3 off-diagonal mirrors

  CooMatrix want{4, 4};
  want.add(0, 0, 2.5);
  want.add(0, 1, -1.25);
  want.add(0, 2, 0.5);
  want.add(1, 0, -1.25);
  want.add(1, 1, 0.0);
  want.add(2, 0, 0.5);
  want.add(2, 3, 1.0);
  want.add(3, 2, 1.0);
  want.add(3, 3, 3.0);
  EXPECT_EQ(m, CsrMatrix::from_coo(want));

  const SymCsrMatrix sym = SymCsrMatrix::build(m);
  EXPECT_EQ(sym.lower_nnz(), 3);
  EXPECT_EQ(sym.diag_entries(), 3);  // rows 0, 1 (explicit zero), 3
  EXPECT_EQ(sym.diag_present()[2], 0);
  EXPECT_EQ(sym.expand(), m);
}

TEST(MatrixMarket, SymmetricPatternAndIntegerVariants) {
  std::stringstream pattern{
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 3\n"
      "1 1\n"
      "2 1\n"
      "3 2\n"};
  const CsrMatrix mp = CsrMatrix::from_coo(mm::read_coo(pattern));
  EXPECT_EQ(mp.nnz(), 5);
  EXPECT_DOUBLE_EQ(mp.row_vals(0)[1], 1.0);  // mirrored unit value
  const SymCsrMatrix sp = SymCsrMatrix::build(mp);
  EXPECT_EQ(sp.lower_nnz(), 2);
  EXPECT_EQ(sp.expand(), mp);

  std::stringstream integer{
      "%%MatrixMarket matrix coordinate integer symmetric\n"
      "2 2 2\n"
      "1 1 4\n"
      "2 1 -3\n"};
  const CsrMatrix mi = CsrMatrix::from_coo(mm::read_coo(integer));
  EXPECT_EQ(mi.nnz(), 3);
  EXPECT_DOUBLE_EQ(mi.row_vals(0)[1], -3.0);
  EXPECT_EQ(SymCsrMatrix::build(mi).expand(), mi);
}

TEST(MatrixMarket, SymmetricFileRoundTripThroughSymCsr) {
  // Disk round-trip: symmetric generator -> general file -> parse ->
  // compress -> expand reproduces the generator output bit-for-bit.
  const CsrMatrix m = gen::stencil5(9, 6);
  const std::string path = ::testing::TempDir() + "/sparta_mm_sym_test.mtx";
  mm::write_file(path, m);
  const CsrMatrix back = mm::read_csr_file(path);
  ASSERT_EQ(back, m);
  EXPECT_EQ(SymCsrMatrix::build(back).expand(), m);
}

// The format stores the lower triangle only; an upper-triangle coordinate in
// a symmetric file is malformed and must be rejected, not silently mirrored.
TEST(MatrixMarket, RejectsUpperTriangleEntryInSymmetricFile) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "1 2 4.0\n"
      "3 3 9.0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, SymmetricExplicitZeroDiagonalSurvivesCompression) {
  // compress() drops nothing here: the explicit zero is a stored entry and
  // must stay one (the exact-reserve counting path treats it as a diagonal,
  // not a mirror).
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 0.0\n"
      "2 1 1.5\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nnz(), 3);  // zero diagonal + two mirrors
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  EXPECT_EQ(m.row_cols(0).size(), 2u);
  EXPECT_DOUBLE_EQ(m.row_vals(0)[0], 0.0);
}

TEST(MatrixMarket, PatternEntriesGetUnitValue) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 1\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_DOUBLE_EQ(coo.entries()[0].value, 1.0);
}

TEST(MatrixMarket, IntegerFieldAccepted) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate integer general\n"
      "1 1 1\n"
      "1 1 7\n"};
  const CooMatrix coo = mm::read_coo(ss);
  EXPECT_DOUBLE_EQ(coo.entries()[0].value, 7.0);
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::stringstream ss{"1 1 1\n1 1 1.0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsArrayFormat) {
  std::stringstream ss{"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsComplexField) {
  std::stringstream ss{"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsOutOfRangeEntry) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 1 1.0\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

TEST(MatrixMarket, RejectsMissingValue) {
  std::stringstream ss{
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1\n"};
  EXPECT_THROW(mm::read_coo(ss), std::runtime_error);
}

// Malformed size lines and values stop at the reader with a named
// "matrix market: ..." error, before the size line sizes any allocation.
void expect_named_error(const std::string& text, const std::string& reason) {
  std::stringstream ss{text};
  try {
    (void)mm::read_coo(ss);
    FAIL() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("matrix market: ", 0), 0u) << what;
    EXPECT_NE(what.find(reason), std::string::npos) << what;
  }
}

TEST(MatrixMarket, RejectsNegativeNnz) {
  expect_named_error("%%MatrixMarket matrix coordinate real general\n3 3 -1\n",
                     "negative size");
}

TEST(MatrixMarket, RejectsNegativeDimension) {
  expect_named_error("%%MatrixMarket matrix coordinate real general\n3 -2 0\n",
                     "negative size");
}

TEST(MatrixMarket, RejectsNnzAboveMatrixPositions) {
  expect_named_error("%%MatrixMarket matrix coordinate real general\n3 3 99999999999999\n",
                     "more entries than matrix positions");
}

TEST(MatrixMarket, RejectsTallSymmetricFile) {
  expect_named_error("%%MatrixMarket matrix coordinate real symmetric\n5 3 1\n5 1 1.0\n",
                     "non-square");
}

TEST(MatrixMarket, RejectsWideSymmetricFile) {
  expect_named_error("%%MatrixMarket matrix coordinate real symmetric\n3 5 1\n2 1 1.0\n",
                     "non-square");
}

TEST(MatrixMarket, RejectsNanValue) {
  expect_named_error("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n",
                     "non-finite value");
}

TEST(MatrixMarket, RejectsInfiniteValue) {
  expect_named_error("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -inf\n",
                     "non-finite value");
}

TEST(MatrixMarket, FileRoundTrip) {
  const CsrMatrix m = gen::stencil5(7, 5);
  const std::string path = ::testing::TempDir() + "/sparta_mm_test.mtx";
  mm::write_file(path, m);
  const CsrMatrix back = mm::read_csr_file(path);
  EXPECT_EQ(back, m);
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(mm::read_csr_file("/nonexistent/path/x.mtx"), std::runtime_error);
}

}  // namespace
}  // namespace sparta
