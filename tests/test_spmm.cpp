// Multi-vector SpMM correctness: the width-1 block path must be bit-identical
// to the historical vector path for every kernel config the tuner can emit,
// wider operands must agree with k independent SpMVs to reduction rounding,
// and the alpha/beta generalization must honor its identities. Also covers
// the block_width preparation hint, the PlanCache keying on it, the engine's
// persistent-region spmm, and the SELL block kernel.
#include <gtest/gtest.h>

#include <omp.h>

#include <stdexcept>

#include "common/prng.hpp"
#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/spmv_sell.hpp"
#include "sparse/sell.hpp"
#include "tuner/optimizations.hpp"
#include "tuner/plan_cache.hpp"
#include "vendor/vendor_csr.hpp"

namespace sparta {
namespace {

aligned_vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  aligned_vector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_near(std::span<const value_t> got, std::span<const value_t> want, double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "at index " << i;
  }
}

void expect_bitwise(std::span<const value_t> got, std::span<const value_t> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "not bit-identical at index " << i;
  }
}

// Column c of a rows x width row-major block, copied out contiguously.
aligned_vector<value_t> column_of(const aligned_vector<value_t>& block, std::size_t rows,
                                  std::size_t width, std::size_t c) {
  aligned_vector<value_t> out(rows);
  for (std::size_t r = 0; r < rows; ++r) out[r] = block[r * width + c];
  return out;
}

CsrMatrix test_matrix() { return gen::circuit_like(1500, 4, 3, 800, 420); }

// --- Width-1 bit-identity across every sweep config ------------------------

class SpmmWidth1BitIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpmmWidth1BitIdentity, BlockViewMatchesSpanPathBitwise) {
  const CsrMatrix m = test_matrix();
  const auto& combo = combined_optimization_sets()[GetParam()];
  const auto cfg = config_for(combo);
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};

  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 421);
  aligned_vector<value_t> y_span(static_cast<std::size_t>(m.nrows()), -3.0);
  aligned_vector<value_t> y_block(static_cast<std::size_t>(m.nrows()), -3.0);

  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y_span});
  prepared.run(kernels::ConstDenseBlockView::from_vector(x),
               kernels::DenseBlockView::from_vector(y_block));
  expect_bitwise(y_block, y_span);

  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  expect_near(y_span, want, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllSweepConfigs, SpmmWidth1BitIdentity,
                         ::testing::Range<std::size_t>(0, 15), [](const auto& info) {
                           return "combo_" + std::to_string(info.param);
                         });

// The vendor comparator (the denominator of kernels.speedup_vs_vendor) and
// the prepared kernel with the vendor config must be the same scalar
// static-rows kernel: same equal-rows partition, same per-row body, same
// store — bit-for-bit at every thread count.
TEST(SpmmWidth1BitIdentity, VendorConfigMatchesVendorHostBitwise) {
  const CsrMatrix m = test_matrix();
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 422);
  const auto n = static_cast<std::size_t>(m.nrows());
  for (const int threads : {1, 2, 4}) {
    const kernels::PreparedSpmv prepared{
        m, kernels::SpmvOptions{.config = vendor::vendor_csr_config(), .threads = threads}};
    aligned_vector<value_t> y_prepared(n, -3.0);
    aligned_vector<value_t> y_vendor(n, -3.0);
    prepared.run(std::span<const value_t>{x}, std::span<value_t>{y_prepared});
    vendor::vendor_csr_host(m, x, y_vendor, threads);
    expect_bitwise(y_prepared, y_vendor);
  }
}

// --- k > 1 agrees with k independent SpMVs ---------------------------------

class SpmmWidths : public ::testing::TestWithParam<int> {};

TEST_P(SpmmWidths, MatchesSequentialSpmvsPerColumn) {
  const int k = GetParam();
  const CsrMatrix m = test_matrix();
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  const auto kk = static_cast<std::size_t>(k);

  sim::KernelConfig configs[4];
  configs[1].vectorized = true;
  configs[2].delta = true;
  configs[3].decomposed = true;
  for (const auto& cfg : configs) {
    const kernels::PreparedSpmv prepared{
        m, kernels::SpmvOptions{.config = cfg, .threads = 4, .block_width = k}};
    const auto xs = random_vector(cols * kk, 430 + static_cast<std::uint64_t>(k));
    aligned_vector<value_t> ys(rows * kk, -5.0);
    prepared.run(
        kernels::ConstDenseBlockView{xs.data(), m.ncols(), k, k},
        kernels::DenseBlockView{ys.data(), m.nrows(), k, k});
    for (std::size_t c = 0; c < kk; ++c) {
      const auto xc = column_of(xs, cols, kk, c);
      aligned_vector<value_t> yc(rows);
      prepared.run(std::span<const value_t>{xc}, std::span<value_t>{yc});
      expect_near(column_of(ys, rows, kk, c), yc, 1e-10);
    }
  }
}

// Non-power widths exercise the greedy 8/4/2/1 chunking (5 = 4 + 1, 3 = 2 + 1).
INSTANTIATE_TEST_SUITE_P(Widths, SpmmWidths, ::testing::Values(2, 3, 4, 5, 8),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

TEST(Spmm, EdgeMatrices) {
  struct Edge {
    const char* name;
    CsrMatrix matrix;
  };
  CooMatrix sparse_coo{500, 500};
  sparse_coo.add(0, 1, 2.0);
  sparse_coo.add(499, 0, -1.0);
  sparse_coo.add(250, 250, 3.0);
  CooMatrix single_coo{1, 40};
  for (index_t j = 0; j < 40; ++j) single_coo.add(0, j, 0.5 * j);
  const Edge edges[] = {{"empty_rows", CsrMatrix::from_coo(sparse_coo)},
                        {"single_row", CsrMatrix::from_coo(single_coo)},
                        {"dense_rows", gen::dense_rows_wide(300, 80, 431)}};
  const int k = 4;
  for (const Edge& e : edges) {
    const auto rows = static_cast<std::size_t>(e.matrix.nrows());
    const auto cols = static_cast<std::size_t>(e.matrix.ncols());
    const kernels::PreparedSpmv prepared{
        e.matrix, kernels::SpmvOptions{.threads = 4, .block_width = k}};
    const auto xs = random_vector(cols * k, 432);
    aligned_vector<value_t> ys(rows * k, -5.0);
    prepared.run(kernels::ConstDenseBlockView{xs.data(), e.matrix.ncols(), k, k},
                 kernels::DenseBlockView{ys.data(), e.matrix.nrows(), k, k});
    for (std::size_t c = 0; c < k; ++c) {
      const auto xc = column_of(xs, cols, k, c);
      aligned_vector<value_t> want(rows);
      spmv_reference(e.matrix, xc, want);
      expect_near(column_of(ys, rows, k, c), want, 1e-10);
    }
  }
}

// --- alpha/beta ------------------------------------------------------------

TEST(Spmm, AlphaBetaIdentities) {
  const CsrMatrix m = test_matrix();
  const auto n = static_cast<std::size_t>(m.nrows());
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.threads = 4}};
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 440);
  const auto y0 = random_vector(n, 441);
  aligned_vector<value_t> ax(n);
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{ax});

  // beta = 1 accumulates: y = A x + y0.
  aligned_vector<value_t> y = y0;
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y}, 1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], ax[i] + y0[i], 1e-12);

  // alpha = 0 only rescales the accumulator.
  y = y0;
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y}, 0.0, -2.0);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y[i], -2.0 * y0[i], 1e-12);

  // General case: y = alpha A x + beta y0.
  y = y0;
  prepared.run(std::span<const value_t>{x}, std::span<value_t>{y}, 2.5, -0.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], 2.5 * ax[i] - 0.5 * y0[i], 1e-10);
  }

  // And on the decomposed path, whose long rows merge the two passes.
  sim::KernelConfig dec;
  dec.decomposed = true;
  const kernels::PreparedSpmv decomposed{m, kernels::SpmvOptions{.config = dec, .threads = 4}};
  aligned_vector<value_t> ax_dec(n);
  decomposed.run(std::span<const value_t>{x}, std::span<value_t>{ax_dec});
  y = y0;
  decomposed.run(std::span<const value_t>{x}, std::span<value_t>{y}, 2.5, -0.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i], 2.5 * ax_dec[i] - 0.5 * y0[i], 1e-10);
  }
}

// --- block_width hint and operand validation -------------------------------

TEST(Spmm, BlockWidthHintIsPlannedButNotBinding) {
  const CsrMatrix m = test_matrix();
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.threads = 4, .block_width = 4}};
  EXPECT_EQ(prepared.block_width(), 4);

  // x/y traffic is charged per operand column; the matrix stream only once.
  const double per_column = static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
  EXPECT_DOUBLE_EQ(prepared.bytes_per_run(4) - prepared.bytes_per_run(1), 3.0 * per_column);
  EXPECT_DOUBLE_EQ(prepared.bytes_per_run(), prepared.bytes_per_run(4));
  EXPECT_GT(prepared.bytes_per_run(1), per_column);

  // A non-hinted width still executes (generic greedy chunking).
  const int k = 3;
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  const auto xs = random_vector(cols * k, 450);
  aligned_vector<value_t> ys(rows * k);
  prepared.run(kernels::ConstDenseBlockView{xs.data(), m.ncols(), k, k},
               kernels::DenseBlockView{ys.data(), m.nrows(), k, k});
  for (std::size_t c = 0; c < k; ++c) {
    const auto xc = column_of(xs, cols, k, c);
    aligned_vector<value_t> want(rows);
    spmv_reference(m, xc, want);
    expect_near(column_of(ys, rows, k, c), want, 1e-10);
  }

  EXPECT_THROW(kernels::PreparedSpmv(m, kernels::SpmvOptions{.block_width = 0}),
               std::invalid_argument);
}

TEST(Spmm, WidthMismatchThrows) {
  const CsrMatrix m = gen::diagonal(64);
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.threads = 2}};
  aligned_vector<value_t> xs(64 * 2, 1.0);
  aligned_vector<value_t> ys(64 * 4, 0.0);
  EXPECT_THROW(prepared.run(kernels::ConstDenseBlockView{xs.data(), 64, 2, 2},
                            kernels::DenseBlockView{ys.data(), 64, 4, 4}),
               std::invalid_argument);
}

// --- PlanCache keys on the width hint --------------------------------------

TEST(Spmm, PlanCacheKeysOnBlockWidth) {
  const CsrMatrix m = gen::banded(800, 40, 6, 451);
  tuner::PlanCache cache{8};
  const auto w1 = cache.prepare(m, kernels::SpmvOptions{.threads = 2, .block_width = 1});
  const auto w4 = cache.prepare(m, kernels::SpmvOptions{.threads = 2, .block_width = 4});
  EXPECT_NE(w1.get(), w4.get());
  EXPECT_EQ(cache.stats().hits, 0u);
  const auto w4_again = cache.prepare(m, kernels::SpmvOptions{.threads = 2, .block_width = 4});
  EXPECT_EQ(w4.get(), w4_again.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// --- Region-reentrant block path and the engine ----------------------------

TEST(Spmm, RunLocalBlockCoversAllRowsInsideRegion) {
  const CsrMatrix m = test_matrix();
  const int k = 4;
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.threads = 4, .block_width = k}};
  const auto xs = random_vector(cols * k, 452);
  aligned_vector<value_t> ys(rows * k, -5.0);
  aligned_vector<value_t> want(rows * k, -5.0);
  const kernels::ConstDenseBlockView xb{xs.data(), m.ncols(), k, k};
  prepared.run(xb, kernels::DenseBlockView{want.data(), m.nrows(), k, k});

  const kernels::DenseBlockView yb{ys.data(), m.nrows(), k, k};
  const auto nparts = static_cast<int>(prepared.region_parts().size());
#pragma omp parallel default(none) num_threads(4) shared(prepared, xb, yb, nparts)
  {
    const int nt = omp_get_num_threads();
    for (int pi = omp_get_thread_num(); pi < nparts; pi += nt) {
      prepared.run_local(pi, xb, yb);
    }
  }
  expect_bitwise(ys, want);
}

TEST(Spmm, EngineSpmmMatchesPreparedRun) {
  const CsrMatrix m = test_matrix();
  const int k = 4;
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  const engine::SolverEngine eng{m, sim::KernelConfig{}, engine::EngineOptions{.threads = 4}};
  const auto xs = random_vector(cols * k, 453);
  const auto y0 = random_vector(rows * k, 454);
  aligned_vector<value_t> ys = y0;
  aligned_vector<value_t> want = y0;
  const kernels::ConstDenseBlockView xb{xs.data(), m.ncols(), k, k};
  eng.prepared().run(xb, kernels::DenseBlockView{want.data(), m.nrows(), k, k}, 1.5, 0.25);
  eng.spmm(xb, kernels::DenseBlockView{ys.data(), m.nrows(), k, k}, 1.5, 0.25);
  expect_near(ys, want, 1e-12);

  aligned_vector<value_t> bad(rows * 2);
  EXPECT_THROW(eng.spmm(xb, kernels::DenseBlockView{bad.data(), m.nrows(), 2, 2}),
               std::invalid_argument);
}

// --- SELL block kernel -----------------------------------------------------

TEST(Spmm, SellBlockMatchesVectorPath) {
  const CsrMatrix m = gen::powerlaw(2000, 1.7, 300, 455);
  const SellMatrix sell = SellMatrix::from_csr(m, 8, 256);
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());

  // Width 1 through the block kernel is the historical spmv_sell bit-for-bit.
  const auto x = random_vector(cols, 456);
  aligned_vector<value_t> y_vec(rows, -3.0);
  aligned_vector<value_t> y_blk(rows, -3.0);
  kernels::spmv_sell(sell, x, y_vec);
  kernels::spmm_sell(sell, kernels::ConstDenseBlockView::from_vector(x),
                     kernels::DenseBlockView::from_vector(y_blk));
  expect_bitwise(y_blk, y_vec);

  // Wider operands agree with per-column SpMVs.
  const int k = 4;
  const auto xs = random_vector(cols * k, 457);
  aligned_vector<value_t> ys(rows * k, -5.0);
  kernels::spmm_sell(sell, kernels::ConstDenseBlockView{xs.data(), m.ncols(), k, k},
                     kernels::DenseBlockView{ys.data(), m.nrows(), k, k});
  for (std::size_t c = 0; c < k; ++c) {
    const auto xc = column_of(xs, cols, k, c);
    aligned_vector<value_t> want(rows);
    spmv_reference(m, xc, want);
    expect_near(column_of(ys, rows, k, c), want, 1e-10);
  }
}

}  // namespace
}  // namespace sparta
