// Tests for the structural scans (properties.hpp) and the Table I feature
// extraction, including the exact definitions of scatter, clustering and the
// naive miss estimate.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "check/validate.hpp"
#include "features/features.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "machine/machine_spec.hpp"
#include "sparse/properties.hpp"
#include "sparse/sym_csr.hpp"
#include "team_size.hpp"
#include "tuner/optimizer.hpp"

namespace sparta {
namespace {

CsrMatrix crafted() {
  // row 0: cols 0,1,2        (one group, bw 2)
  // row 1: cols 0, 50        (two groups, bw 50, one far gap)
  // row 2: empty
  // row 3: col 7             (singleton)
  CooMatrix coo{4, 64};
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(0, 2, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 50, 1.0);
  coo.add(3, 7, 1.0);
  return CsrMatrix::from_coo(coo);
}

TEST(RowScan, NnzPerRow) {
  const auto scan = scan_rows(crafted());
  EXPECT_EQ(scan.nnz, (std::vector<double>{3, 2, 0, 1}));
}

TEST(RowScan, BandwidthDefinition) {
  const auto scan = scan_rows(crafted());
  EXPECT_DOUBLE_EQ(scan.bandwidth[0], 2.0);
  EXPECT_DOUBLE_EQ(scan.bandwidth[1], 50.0);
  EXPECT_DOUBLE_EQ(scan.bandwidth[2], 0.0);
  EXPECT_DOUBLE_EQ(scan.bandwidth[3], 0.0);  // single element: no distance
}

TEST(RowScan, ScatterIsNnzOverBandwidth) {
  const auto scan = scan_rows(crafted());
  EXPECT_DOUBLE_EQ(scan.scatter[0], 3.0 / 2.0);
  EXPECT_DOUBLE_EQ(scan.scatter[1], 2.0 / 50.0);
  EXPECT_DOUBLE_EQ(scan.scatter[2], 0.0);
  EXPECT_DOUBLE_EQ(scan.scatter[3], 0.0);  // bw 0 guard
}

TEST(RowScan, ClusteringCountsGroups) {
  const auto scan = scan_rows(crafted());
  EXPECT_DOUBLE_EQ(scan.clustering[0], 1.0 / 3.0);  // one run of consecutive cols
  EXPECT_DOUBLE_EQ(scan.clustering[1], 2.0 / 2.0);  // two isolated elements
  EXPECT_DOUBLE_EQ(scan.clustering[2], 0.0);
  EXPECT_DOUBLE_EQ(scan.clustering[3], 1.0 / 1.0);
}

TEST(RowScan, MissesCountFirstAccessAndFarGaps) {
  const auto scan = scan_rows(crafted(), /*values_per_line=*/8);
  EXPECT_DOUBLE_EQ(scan.misses[0], 1.0);  // compulsory only; gaps of 1
  EXPECT_DOUBLE_EQ(scan.misses[1], 2.0);  // compulsory + gap 50 > 8
  EXPECT_DOUBLE_EQ(scan.misses[2], 0.0);
  EXPECT_DOUBLE_EQ(scan.misses[3], 1.0);
}

TEST(RowScan, MissesRespectLineSize) {
  // Gap of 50 does not miss when 64 values fit per line.
  const auto scan = scan_rows(crafted(), /*values_per_line=*/64);
  EXPECT_DOUBLE_EQ(scan.misses[1], 1.0);
}

TEST(Properties, SymmetryDetection) {
  EXPECT_TRUE(is_symmetric(gen::stencil5(6, 6)));
  CooMatrix coo{2, 2};
  coo.add(0, 1, 1.0);
  EXPECT_FALSE(is_symmetric(CsrMatrix::from_coo(coo)));
}

TEST(Properties, SymmetryRequiresMatchingValues) {
  CooMatrix coo{2, 2};
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 2.0);
  EXPECT_FALSE(is_symmetric(CsrMatrix::from_coo(coo)));
  CooMatrix coo2{2, 2};
  coo2.add(0, 1, 1.0);
  coo2.add(1, 0, 1.0);
  EXPECT_TRUE(is_symmetric(CsrMatrix::from_coo(coo2)));
}

TEST(Properties, RectangularNeverSymmetric) {
  CooMatrix coo{2, 3};
  coo.add(0, 0, 1.0);
  EXPECT_FALSE(is_symmetric(CsrMatrix::from_coo(coo)));
}

// --- is_symmetric against a transpose oracle --------------------------------

/// The definition is_symmetric must agree with, by brute force: transpose
/// through COO and compare every array. Diagonal values are their own
/// mirrors; an off-diagonal pair mirrors when a == b or |a - b| <= tol.
bool symmetric_by_transpose(const CsrMatrix& m, value_t tolerance) {
  if (m.nrows() != m.ncols()) return false;
  CooMatrix coo{m.ncols(), m.nrows()};
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) coo.add(cols[j], i, vals[j]);
  }
  const CsrMatrix t = CsrMatrix::from_coo(coo, 1);
  if (!std::equal(m.rowptr().begin(), m.rowptr().end(), t.rowptr().begin(), t.rowptr().end()) ||
      !std::equal(m.colind().begin(), m.colind().end(), t.colind().begin(), t.colind().end())) {
    return false;
  }
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto a = m.row_vals(i);
    const auto b = t.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] == i) continue;
      if (!(a[j] == b[j] || std::abs(a[j] - b[j]) <= tolerance)) return false;
    }
  }
  return true;
}

std::vector<Triplet> triplets_of(const CsrMatrix& m) {
  std::vector<Triplet> out;
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) out.push_back({i, cols[j], vals[j]});
  }
  return out;
}

CsrMatrix from_triplets(index_t nrows, index_t ncols, std::vector<Triplet> entries) {
  return CsrMatrix::from_coo(CooMatrix::from_triplets(nrows, ncols, std::move(entries)));
}

/// A + A^T: every position sums the same two terms as its mirror, so the
/// result is exactly symmetric.
CsrMatrix symmetrized(const CsrMatrix& m) {
  auto entries = triplets_of(m);
  const std::size_t n = entries.size();
  for (std::size_t k = 0; k < n; ++k) {
    entries.push_back({entries[k].col, entries[k].row, entries[k].value});
  }
  return from_triplets(m.nrows(), m.ncols(), std::move(entries));
}

/// One small instance of each generator family of the differential harness.
std::vector<CsrMatrix> family_matrices(std::uint64_t seed) {
  const auto n = static_cast<index_t>(60 + 37 * seed);
  return {gen::banded(n, 9, 5, seed),         gen::random_uniform(n, 7, seed),
          gen::powerlaw(n, 1.6, 40, seed),     gen::fem_like(n, 3, 4, n / 4 + 1, seed),
          gen::circuit_like(n, 2, 2, n / 2, seed), gen::dense_rows_wide(n, 12, seed),
          gen::block_diagonal(n, 5, seed),    gen::hybrid_regions(n, 0.5, 4, seed),
          gen::stencil5(7, 9)};
}

void expect_matches_oracle(const CsrMatrix& m, value_t tolerance, const std::string& what) {
  const bool want = symmetric_by_transpose(m, tolerance);
  for (const int threads : {1, 2, 3, 4}) {
    EXPECT_EQ(is_symmetric(m, tolerance, threads), want) << what << " @" << threads;
    const TeamSize team{threads};
    EXPECT_EQ(is_symmetric(m, tolerance), want) << what << " @team " << threads;
  }
}

/// A crafted asymmetric case: the oracle and is_symmetric (tolerance 0, at
/// 1-4 threads) say no, and both SymCsr builders throw.
void expect_asymmetric(const CsrMatrix& m, const std::string& what) {
  ASSERT_FALSE(symmetric_by_transpose(m, 0.0)) << what;
  expect_matches_oracle(m, 0.0, what);
  for (const int threads : {1, 2, 3, 4}) {
    EXPECT_THROW(SymCsrMatrix::build(m, threads), check::ValidationError)
        << what << " @" << threads;
  }
  EXPECT_THROW(SymCsrMatrix::build_serial(m), check::ValidationError) << what;
}

TEST(Properties, SymmetryMatchesTransposeOnGeneratorFamilies) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto mats = family_matrices(seed);
    for (std::size_t f = 0; f < mats.size(); ++f) {
      const std::string what = "seed " + std::to_string(seed) + " family " + std::to_string(f);
      expect_matches_oracle(mats[f], 0.0, what);
      const CsrMatrix sym = symmetrized(mats[f]);
      ASSERT_TRUE(symmetric_by_transpose(sym, 0.0)) << what;
      expect_matches_oracle(sym, 0.0, what + " symmetrized");
    }
  }
}

TEST(Properties, SymmetryValueAsymmetryRespectsTolerance) {
  const CsrMatrix sym = symmetrized(gen::random_uniform(200, 6, 71));
  auto entries = triplets_of(sym);
  const auto off = std::find_if(entries.begin(), entries.end(),
                                [](const Triplet& t) { return t.row < t.col; });
  ASSERT_NE(off, entries.end());
  off->value += 1e-9;
  const CsrMatrix skewed = from_triplets(sym.nrows(), sym.ncols(), std::move(entries));
  for (const value_t tol : {0.0, 1e-10, 2e-9, 1.0}) {
    expect_matches_oracle(skewed, tol, "tolerance " + std::to_string(tol));
  }
  EXPECT_FALSE(is_symmetric(skewed));
  EXPECT_TRUE(is_symmetric(skewed, 2e-9));
}

TEST(Properties, SymmetryPatternAsymmetryAndShapes) {
  // One extra lower entry whose upper mirror is missing (the strict
  // triangles then differ in count as well as pattern).
  const CsrMatrix sym = symmetrized(gen::banded(150, 6, 4, 72));
  auto entries = triplets_of(sym);
  entries.push_back({149, 0, 1.0});
  const CsrMatrix one_sided = from_triplets(150, 150, std::move(entries));
  expect_matches_oracle(one_sided, 1e9, "one-sided entry");
  EXPECT_FALSE(is_symmetric(one_sided, 1e9));

  // Rectangular, and an empty matrix.
  const CsrMatrix wide = from_triplets(3, 4, {{0, 1, 1.0}, {1, 0, 1.0}});
  expect_matches_oracle(wide, 0.0, "non-square");
  EXPECT_FALSE(is_symmetric(wide));
  const CsrMatrix empty = from_triplets(5, 5, {});
  expect_matches_oracle(empty, 0.0, "empty");
  EXPECT_TRUE(is_symmetric(empty));
}

TEST(Properties, SymmetryWithEmptyRows) {
  // Entries only among multiples of 3: two rows in three are empty, and a
  // mirror lookup can land in an empty row.
  std::vector<Triplet> entries;
  for (index_t i = 0; i < 90; i += 3) {
    entries.push_back({i, i, 2.0});
    if (i + 9 < 90) {
      entries.push_back({i, i + 9, -0.5});
      entries.push_back({i + 9, i, -0.5});
    }
  }
  const CsrMatrix gappy = from_triplets(90, 90, entries);
  expect_matches_oracle(gappy, 0.0, "empty rows");
  EXPECT_TRUE(is_symmetric(gappy));
  entries.push_back({4, 3, 1.0});  // row 4 was empty; its mirror row 3 lacks column 4
  const CsrMatrix broken = from_triplets(90, 90, std::move(entries));
  expect_matches_oracle(broken, 0.0, "entry in an empty row");
  EXPECT_FALSE(is_symmetric(broken));
}

TEST(Properties, SymmetryMatchesTransposeOnSuite) {
  for (const auto& nm : gen::make_suite()) {
    expect_matches_oracle(nm.matrix, 0.0, nm.name);
    // A + A^T is symmetric by construction, so every chunk walks to its end.
    const CsrMatrix sym = symmetrized(nm.matrix);
    for (const int threads : {1, 2, 3, 4}) {
      EXPECT_TRUE(is_symmetric(sym, 0.0, threads)) << nm.name << " @" << threads;
    }
  }
}

/// Symmetric 40 x 40 band (width 3) with distinct values per pair, so a
/// value edit breaks exactly one pair.
std::vector<Triplet> band40() {
  std::vector<Triplet> entries;
  for (index_t i = 0; i < 40; ++i) {
    entries.push_back({i, i, 4.0 + i});
    for (index_t d = 1; d <= 3 && i + d < 40; ++d) {
      const value_t v = -1.0 - 0.01 * i - 0.1 * d;
      entries.push_back({i, i + d, v});
      entries.push_back({i + d, i, v});
    }
  }
  return entries;
}

value_t& value_at(std::vector<Triplet>& entries, index_t row, index_t col) {
  const auto it = std::find_if(entries.begin(), entries.end(), [&](const Triplet& t) {
    return t.row == row && t.col == col;
  });
  EXPECT_NE(it, entries.end());
  return it->value;
}

TEST(Properties, SymmetryCraftedCases) {
  ASSERT_TRUE(is_symmetric(from_triplets(40, 40, band40())));
  {
    // Balanced triangle counts, mismatched pattern: (0, 2) moves to (0, 5).
    auto entries = band40();
    for (Triplet& t : entries) {
      if (t.row == 0 && t.col == 2) t.col = 5;
    }
    expect_asymmetric(from_triplets(40, 40, std::move(entries)), "balanced counts");
  }
  for (const auto& [row, col] : {std::pair{0, 1}, std::pair{1, 0}, std::pair{39, 38},
                                 std::pair{38, 39}}) {
    // Value asymmetry in the first and in the last row.
    auto entries = band40();
    value_at(entries, row, col) += 0.5;
    expect_asymmetric(from_triplets(40, 40, std::move(entries)),
                      "value (" + std::to_string(row) + ", " + std::to_string(col) + ")");
  }
  for (const auto& [row, col] : {std::pair{0, 20}, std::pair{39, 0}}) {
    // Pattern asymmetry in the first and in the last row.
    auto entries = band40();
    entries.push_back({row, col, 1.0});
    expect_asymmetric(from_triplets(40, 40, std::move(entries)),
                      "one-sided (" + std::to_string(row) + ", " + std::to_string(col) + ")");
  }
  {
    // At 2-4 threads row 35 and its mirror's row 2 lie in different chunks.
    auto entries = band40();
    entries.push_back({35, 2, 3.0});
    entries.push_back({2, 35, 3.0});
    const CsrMatrix far = from_triplets(40, 40, entries);
    expect_matches_oracle(far, 0.0, "cross-chunk mirror");
    EXPECT_TRUE(is_symmetric(far, 0.0, 4));
    value_at(entries, 35, 2) = 3.5;
    expect_asymmetric(from_triplets(40, 40, std::move(entries)), "cross-chunk value");
  }
  {
    // Off-diagonal values just inside and just outside the tolerance.
    auto entries = band40();
    value_at(entries, 17, 20) = 1.0;
    value_at(entries, 20, 17) = 1.0 + 0x1p-20;
    const CsrMatrix skewed = from_triplets(40, 40, std::move(entries));
    const value_t gap = 0x1p-20;
    const value_t below = std::nextafter(gap, 0.0);
    expect_matches_oracle(skewed, gap, "tolerance at the gap");
    expect_matches_oracle(skewed, below, "tolerance below the gap");
    EXPECT_TRUE(is_symmetric(skewed, gap));
    EXPECT_FALSE(is_symmetric(skewed, below));
    expect_asymmetric(skewed, "value gap");
  }
}

TEST(Properties, SymmetryEdgeShapes) {
  const CsrMatrix one = from_triplets(1, 1, {{0, 0, 2.0}});
  expect_matches_oracle(one, 0.0, "1x1");
  EXPECT_TRUE(is_symmetric(one));
  const CsrMatrix one_empty = from_triplets(1, 1, {});
  expect_matches_oracle(one_empty, 0.0, "empty 1x1");
  EXPECT_TRUE(is_symmetric(one_empty));
  const CsrMatrix tall = from_triplets(4, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  expect_matches_oracle(tall, 0.0, "tall");
  EXPECT_FALSE(is_symmetric(tall));
  EXPECT_THROW(SymCsrMatrix::build(tall), check::ValidationError);
  // Rows 1-38 empty; the only pair links the first and the last row.
  const CsrMatrix corners = from_triplets(40, 40, {{0, 39, 1.0}, {39, 0, 1.0}});
  expect_matches_oracle(corners, 0.0, "empty rows between a pair");
  EXPECT_TRUE(is_symmetric(corners, 0.0, 4));
  expect_asymmetric(from_triplets(40, 40, {{0, 39, 1.0}, {39, 0, -1.0}}),
                    "empty rows, unequal pair");
}

/// 3 x 3 with an off-diagonal pair (0, 2) / (2, 0) of value v.
CsrMatrix corner_pair(value_t v) {
  return from_triplets(3, 3, {{0, 0, 4.0}, {0, 2, v}, {1, 1, 4.0}, {2, 0, v}, {2, 2, 4.0}});
}

TEST(Properties, NanMirrorPairIsNotSymmetric) {
  const CsrMatrix nan_pair = corner_pair(std::numeric_limits<value_t>::quiet_NaN());
  for (const int threads : {1, 2, 3, 4}) {
    EXPECT_FALSE(is_symmetric(nan_pair, 0.0, threads)) << threads;
    EXPECT_FALSE(is_symmetric(nan_pair, 1e300, threads)) << threads;
  }
  EXPECT_FALSE(symmetric_by_transpose(nan_pair, 0.0));
  try {
    SymCsrMatrix::build(nan_pair);
    ADD_FAILURE() << "build accepted a NaN mirror pair";
  } catch (const check::ValidationError& e) {
    EXPECT_EQ(e.violation(), "symcsr.source.mirror");
  }
  EXPECT_THROW(SymCsrMatrix::build_serial(nan_pair), check::ValidationError);

  // The tuner's symmetric-storage rider follows the verdict.
  const Autotuner tuner{knc()};
  EXPECT_TRUE(tuner.tune(corner_pair(-1.0)).config.symmetric);
  EXPECT_FALSE(tuner.tune(nan_pair).config.symmetric);

  // Equal infinities mirror each other; opposite ones do not.
  const value_t inf = std::numeric_limits<value_t>::infinity();
  EXPECT_TRUE(is_symmetric(corner_pair(inf)));
  EXPECT_TRUE(is_symmetric(corner_pair(-inf), 1.0));
  EXPECT_NO_THROW(SymCsrMatrix::build(corner_pair(inf)));
  const CsrMatrix opposite =
      from_triplets(3, 3, {{0, 0, 4.0}, {0, 2, inf}, {1, 1, 4.0}, {2, 0, -inf}, {2, 2, 4.0}});
  EXPECT_FALSE(is_symmetric(opposite, 1e300));
  // A NaN on the diagonal is its own mirror and is not compared.
  EXPECT_TRUE(is_symmetric(
      from_triplets(2, 2, {{0, 0, std::numeric_limits<value_t>::quiet_NaN()}, {1, 1, 1.0}})));
}

TEST(Properties, EmptyRowCount) {
  EXPECT_EQ(count_empty_rows(crafted()), 1);
  EXPECT_EQ(count_empty_rows(gen::diagonal(5)), 0);
}

TEST(Properties, FullDiagonalDetection) {
  EXPECT_TRUE(has_full_diagonal(gen::stencil5(4, 4)));
  EXPECT_FALSE(has_full_diagonal(crafted()));
}

TEST(Features, DiagonalMatrix) {
  const CsrMatrix m = gen::diagonal(64);
  const auto fv = extract_features(m);
  EXPECT_DOUBLE_EQ(fv[Feature::kNnzMin], 1.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kNnzMax], 1.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kNnzAvg], 1.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kNnzSd], 0.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kBwMax], 0.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kDensity], 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kMissesAvg], 1.0);
}

TEST(Features, SizeFlagReflectsLlc) {
  const CsrMatrix m = gen::banded(1000, 20, 6, 51);
  FeatureExtractionConfig small_cfg;
  small_cfg.llc_bytes = 1024;  // smaller than the working set
  EXPECT_DOUBLE_EQ(extract_features(m, small_cfg)[Feature::kSize], 0.0);
  FeatureExtractionConfig big_cfg;
  big_cfg.llc_bytes = 1ull << 30;
  EXPECT_DOUBLE_EQ(extract_features(m, big_cfg)[Feature::kSize], 1.0);
}

TEST(Features, DenseRowMatrixHasHighNnzMax) {
  const CsrMatrix m = gen::circuit_like(2000, 3, 4, 1500, 52);
  const auto fv = extract_features(m);
  EXPECT_GT(fv[Feature::kNnzMax], 20.0 * fv[Feature::kNnzAvg]);
}

TEST(Features, PowerlawHasSkewedRows) {
  const CsrMatrix m = gen::powerlaw(3000, 1.7, 500, 53);
  const auto fv = extract_features(m);
  EXPECT_GT(fv[Feature::kNnzSd], 0.0);
  EXPECT_GT(fv[Feature::kNnzMax], fv[Feature::kNnzAvg]);
}

TEST(Features, BandedMatrixBandwidthMatchesParameter) {
  const CsrMatrix m = gen::banded(4000, 64, 10, 54);
  const auto fv = extract_features(m);
  EXPECT_LE(fv[Feature::kBwMax], 128.0);
  EXPECT_GT(fv[Feature::kBwAvg], 0.0);
}

TEST(Features, ClusteringLowForBlockMatrix) {
  // Contiguous blocks -> few groups per row.
  const auto block = extract_features(gen::block_diagonal(512, 16, 55));
  const auto scattered = extract_features(gen::random_uniform(512, 16, 56));
  EXPECT_LT(block[Feature::kClusteringAvg], scattered[Feature::kClusteringAvg]);
}

TEST(Features, MissesHigherForScatteredMatrix) {
  const auto band = extract_features(gen::banded(1000, 12, 8, 57));
  const auto rand = extract_features(gen::random_uniform(1000, 8, 58));
  EXPECT_LT(band[Feature::kMissesAvg], rand[Feature::kMissesAvg]);
}

TEST(Features, BitwiseEqualAcrossThreadCounts) {
  auto mats = family_matrices(3);
  for (auto& nm : gen::make_suite()) mats.push_back(std::move(nm.matrix));
  for (const CsrMatrix& m : mats) {
    const auto features_at = [&](int threads) {
      const TeamSize team{threads};
      return extract_features(m);
    };
    const FeatureVector ref = features_at(1);
    for (const int threads : {2, 4}) {
      const FeatureVector fv = features_at(threads);
      for (int f = 0; f < kNumFeatures; ++f) {
        const auto idx = static_cast<std::size_t>(f);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fv.v[idx]),
                  std::bit_cast<std::uint64_t>(ref.v[idx]))
            << feature_name(static_cast<Feature>(f)) << " @" << threads;
      }
    }
  }
}

TEST(Features, NamesAreUnique) {
  std::set<std::string_view> names;
  for (int f = 0; f < kNumFeatures; ++f) {
    names.insert(feature_name(static_cast<Feature>(f)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumFeatures));
}

TEST(Features, SubsetsMatchPaperTable) {
  // O(N) subset has no NNZ-pass feature; O(NNZ) subset includes misses_avg.
  for (Feature f : feature_subset_linear()) {
    EXPECT_NE(f, Feature::kClusteringAvg);
    EXPECT_NE(f, Feature::kMissesAvg);
  }
  const auto full = feature_subset_full();
  EXPECT_NE(std::find(full.begin(), full.end(), Feature::kMissesAvg), full.end());
  EXPECT_NE(std::find(full.begin(), full.end(), Feature::kSize), full.end());
}

TEST(Features, ProjectPreservesOrder) {
  FeatureVector fv;
  fv[Feature::kNnzMin] = 1.0;
  fv[Feature::kNnzMax] = 2.0;
  const auto v = project(fv, {Feature::kNnzMax, Feature::kNnzMin});
  EXPECT_EQ(v, (std::vector<double>{2.0, 1.0}));
}

}  // namespace
}  // namespace sparta
