// Tests for the row partitioners: exact-cover invariants, nnz balance of the
// paper's baseline scheme, rows + nnz balance of the merge-path scheme, and
// degenerate cases — swept over matrix families and thread counts with
// parameterized tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/generators.hpp"
#include "sparse/partition.hpp"

namespace sparta {
namespace {

TEST(EqualRows, SplitsEvenly) {
  const auto parts = partition_equal_rows(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (RowRange{0, 4}));
  EXPECT_EQ(parts[1], (RowRange{4, 7}));
  EXPECT_EQ(parts[2], (RowRange{7, 10}));
  validate_partition(parts, 10);
}

TEST(EqualRows, MorePartsThanRowsYieldsEmptyRanges) {
  const auto parts = partition_equal_rows(2, 5);
  ASSERT_EQ(parts.size(), 5u);
  validate_partition(parts, 2);
  int nonempty = 0;
  for (const auto& p : parts) nonempty += p.size() > 0 ? 1 : 0;
  EXPECT_EQ(nonempty, 2);
}

TEST(EqualRows, RejectsNonPositiveParts) {
  EXPECT_THROW(partition_equal_rows(10, 0), std::invalid_argument);
  EXPECT_THROW(partition_equal_rows(10, -1), std::invalid_argument);
}

TEST(BalancedNnz, MorePartsThanRowsStaysInBounds) {
  // Regression: with more partitions than rows, the boundary search used to
  // run past rowptr.end() and emit ranges beyond nrows.
  CooMatrix coo{1, 1};
  coo.add(0, 0, 1.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto parts = partition_balanced_nnz(m, 228);
  validate_partition(parts, 1);
  for (const auto& p : parts) {
    EXPECT_GE(p.begin, 0);
    EXPECT_LE(p.end, 1);
  }
}

TEST(BalancedNnz, FewRowsManyParts) {
  const CsrMatrix m = gen::diagonal(3);
  const auto parts = partition_balanced_nnz(m, 16);
  validate_partition(parts, 3);
}

TEST(BalancedNnz, RejectsNonPositiveParts) {
  const CsrMatrix m = gen::diagonal(10);
  EXPECT_THROW(partition_balanced_nnz(m, 0), std::invalid_argument);
}

TEST(BalancedNnz, SinglePartCoversAll) {
  const CsrMatrix m = gen::banded(100, 10, 4, 31);
  const auto parts = partition_balanced_nnz(m, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (RowRange{0, 100}));
}

TEST(BalancedNnz, BalancesUniformMatrixTightly) {
  const CsrMatrix m = gen::diagonal(1000);
  const auto parts = partition_balanced_nnz(m, 8);
  validate_partition(parts, 1000);
  for (const auto& p : parts) {
    EXPECT_NEAR(static_cast<double>(range_nnz(m, p)), 125.0, 1.0);
  }
}

TEST(BalancedNnz, OutperformsEqualRowsOnSkewedMatrix) {
  // First rows hold almost all nonzeros.
  const CsrMatrix m = gen::circuit_like(4000, 2, 6, 3000, 32);
  const int t = 8;
  const auto bal = partition_balanced_nnz(m, t);
  const auto rows = partition_equal_rows(m.nrows(), t);
  auto max_nnz = [&](const std::vector<RowRange>& parts) {
    offset_t mx = 0;
    for (const auto& p : parts) mx = std::max(mx, range_nnz(m, p));
    return mx;
  };
  EXPECT_LE(max_nnz(bal), max_nnz(rows));
}

TEST(ValidatePartition, DetectsGap) {
  std::vector<RowRange> parts{{0, 3}, {4, 10}};
  EXPECT_THROW(validate_partition(parts, 10), std::invalid_argument);
}

TEST(ValidatePartition, DetectsOverlap) {
  std::vector<RowRange> parts{{0, 5}, {4, 10}};
  EXPECT_THROW(validate_partition(parts, 10), std::invalid_argument);
}

TEST(ValidatePartition, DetectsWrongStartEnd) {
  std::vector<RowRange> a{{1, 10}};
  EXPECT_THROW(validate_partition(a, 10), std::invalid_argument);
  std::vector<RowRange> b{{0, 9}};
  EXPECT_THROW(validate_partition(b, 10), std::invalid_argument);
  EXPECT_THROW(validate_partition({}, 0), std::invalid_argument);
}

TEST(ValidatePartition, DetectsInvertedRange) {
  std::vector<RowRange> parts{{0, 5}, {5, 4}};
  EXPECT_THROW(validate_partition(parts, 4), std::invalid_argument);
}

// Property sweep: balanced-nnz partitions are an exact ordered cover and no
// partition exceeds the ideal share by more than one row's worth of nnz.
struct PartitionCase {
  const char* name;
  CsrMatrix (*make)();
  int threads;
};

class BalancedNnzProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(BalancedNnzProperty, ExactCoverAndBoundedImbalance) {
  const CsrMatrix m = GetParam().make();
  const int t = GetParam().threads;
  const auto parts = partition_balanced_nnz(m, t);
  ASSERT_EQ(parts.size(), static_cast<std::size_t>(t));
  validate_partition(parts, m.nrows());

  // Max row nnz bounds the unavoidable quantization of contiguous splits.
  offset_t max_row = 0;
  for (index_t i = 0; i < m.nrows(); ++i) {
    max_row = std::max<offset_t>(max_row, m.row_nnz(i));
  }
  const double ideal = static_cast<double>(m.nnz()) / t;
  for (const auto& p : parts) {
    EXPECT_LE(static_cast<double>(range_nnz(m, p)), ideal + static_cast<double>(max_row) + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BalancedNnzProperty,
    ::testing::Values(
        PartitionCase{"stencil_t4", [] { return gen::stencil5(30, 30); }, 4},
        PartitionCase{"stencil_t57", [] { return gen::stencil5(30, 30); }, 57},
        PartitionCase{"banded_t8", [] { return gen::banded(2000, 100, 7, 41); }, 8},
        PartitionCase{"banded_t228", [] { return gen::banded(2000, 100, 7, 41); }, 228},
        PartitionCase{"powerlaw_t16", [] { return gen::powerlaw(3000, 1.8, 400, 42); }, 16},
        PartitionCase{"circuit_t44", [] { return gen::circuit_like(2500, 3, 5, 2000, 43); }, 44},
        PartitionCase{"diagonal_t3", [] { return gen::diagonal(17); }, 3},
        PartitionCase{"empty_rows_t4",
                      [] {
                        CooMatrix coo{100, 100};
                        coo.add(0, 0, 1.0);
                        coo.add(99, 99, 1.0);
                        return CsrMatrix::from_coo(coo);
                      },
                      4}),
    [](const auto& info) { return std::string{info.param.name}; });

// --- Merge-path (rows + nnz) partition -------------------------------------

CsrMatrix from_row_lengths(const std::vector<index_t>& lengths) {
  const auto n = static_cast<index_t>(lengths.size());
  index_t ncols = 1;
  for (const index_t len : lengths) ncols = std::max(ncols, len);
  CooMatrix coo{n, ncols};
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < lengths[static_cast<std::size_t>(i)]; ++j) coo.add(i, j, 1.0);
  }
  return CsrMatrix::from_coo(coo);
}

// Merge-path cost of a range: one unit per row plus one per nonzero.
offset_t merge_cost(const CsrMatrix& m, RowRange r) { return r.size() + range_nnz(m, r); }

TEST(MergePath, RejectsNonPositiveParts) {
  const CsrMatrix m = gen::diagonal(10);
  EXPECT_THROW(partition_merge_path(m, 0), std::invalid_argument);
  EXPECT_THROW(partition_merge_path(m, -2), std::invalid_argument);
}

TEST(MergePath, SinglePartCoversAll) {
  const CsrMatrix m = gen::powerlaw(500, 1.7, 200, 51);
  const auto parts = partition_merge_path(m, 1);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], (RowRange{0, 500}));
}

TEST(MergePath, EndsAtTheNearestRowBoundary) {
  // Row ends sit at merge coordinates 6, 8, 10, 12; the half share is 6.
  const CsrMatrix m = from_row_lengths({5, 1, 1, 1});
  const auto halves = partition_merge_path(m, 2);
  EXPECT_EQ(halves[0], (RowRange{0, 1}));
  EXPECT_EQ(halves[1], (RowRange{1, 4}));
  // Boundaries at 0, 2, 4 against targets 1, 2, 3, 4: ties go to the lower
  // boundary.
  const CsrMatrix two = from_row_lengths({1, 1});
  const auto quarters = partition_merge_path(two, 4);
  EXPECT_EQ(quarters, (std::vector<RowRange>{{0, 0}, {0, 1}, {1, 1}, {1, 2}}));
}

TEST(MergePath, AllEmptyRowsSplitLikeEqualRows) {
  const CsrMatrix m = from_row_lengths(std::vector<index_t>(12, 0));
  ASSERT_EQ(m.nnz(), 0);
  EXPECT_EQ(partition_merge_path(m, 4), partition_equal_rows(12, 4));
}

TEST(MergePath, BalancesRowsWhereNnzBalanceCannot) {
  // A few dense rows up front and many short rows after them (a power-law
  // web graph's shape): the nnz-balanced split hands the last thread most
  // of the rows, the merge-path split evens out rows + nonzeros.
  std::vector<index_t> lengths(4000, 1);
  for (std::size_t i = 0; i < 8; ++i) lengths[i] = 500;
  const CsrMatrix m = from_row_lengths(lengths);
  const auto max_cost = [&](const std::vector<RowRange>& parts) {
    offset_t mx = 0;
    for (const auto& p : parts) mx = std::max(mx, merge_cost(m, p));
    return mx;
  };
  const auto merge = partition_merge_path(m, 4);
  const auto nnz = partition_balanced_nnz(m, 4);
  EXPECT_LT(max_cost(merge), max_cost(nnz));
  EXPECT_LE(static_cast<double>(max_cost(merge)),
            static_cast<double>(m.nrows() + m.nnz()) / 4 + 501.0);
}

class MergePathProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(MergePathProperty, ExactCoverBoundedImbalanceWholeRows) {
  const CsrMatrix m = GetParam().make();
  const int t = GetParam().threads;
  const auto parts = partition_merge_path(m, t);
  ASSERT_EQ(parts.size(), static_cast<std::size_t>(t));
  validate_partition(parts, m.nrows());

  offset_t max_row = 0;
  for (index_t i = 0; i < m.nrows(); ++i) {
    max_row = std::max<offset_t>(max_row, m.row_nnz(i));
  }
  // Each boundary is within half a row step of its share target, so every
  // part is within (longest row + 1) of the ideal share.
  const double ideal = static_cast<double>(m.nrows() + m.nnz()) / t;
  const double slack = static_cast<double>(max_row) + 1.0;
  for (const auto& p : parts) {
    const auto cost = static_cast<double>(merge_cost(m, p));
    EXPECT_LE(cost, ideal + slack) << "part [" << p.begin << ", " << p.end << ")";
    EXPECT_GE(cost, ideal - slack) << "part [" << p.begin << ", " << p.end << ")";
  }
  // A row longer than one share lies whole inside exactly one part.
  for (index_t i = 0; i < m.nrows(); ++i) {
    if (static_cast<double>(m.row_nnz(i)) <= ideal) continue;
    int owners = 0;
    for (const auto& p : parts) owners += (p.begin <= i && i < p.end) ? 1 : 0;
    EXPECT_EQ(owners, 1) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergePathProperty,
    ::testing::Values(
        PartitionCase{"stencil_t4", [] { return gen::stencil5(30, 30); }, 4},
        PartitionCase{"banded_t1", [] { return gen::banded(2000, 100, 7, 41); }, 1},
        PartitionCase{"banded_t228", [] { return gen::banded(2000, 100, 7, 41); }, 228},
        PartitionCase{"powerlaw_t4", [] { return gen::powerlaw(3000, 1.8, 400, 42); }, 4},
        PartitionCase{"powerlaw_t16", [] { return gen::powerlaw(3000, 1.8, 400, 42); }, 16},
        PartitionCase{"circuit_t44", [] { return gen::circuit_like(2500, 3, 5, 2000, 43); }, 44},
        PartitionCase{"one_long_row_t8",
                      [] {
                        std::vector<index_t> lengths(300, 2);
                        lengths[150] = 1500;
                        return from_row_lengths(lengths);
                      },
                      8},
        PartitionCase{"parts_exceed_rows_t16", [] { return gen::diagonal(3); }, 16},
        PartitionCase{"all_empty_t3",
                      [] { return from_row_lengths(std::vector<index_t>(10, 0)); }, 3},
        PartitionCase{"empty_rows_t4",
                      [] {
                        CooMatrix coo{100, 100};
                        coo.add(0, 0, 1.0);
                        coo.add(99, 99, 1.0);
                        return CsrMatrix::from_coo(coo);
                      },
                      4}),
    [](const auto& info) { return std::string{info.param.name}; });

}  // namespace
}  // namespace sparta
