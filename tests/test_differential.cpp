// Property-based differential harness: several hundred PRNG-seeded matrices
// drawn from the generator families behind gen::suite, each pushed through
// every format build + kernel the registry can select — plain/vectorized/
// delta/decomposed CSR and symmetric storage via PreparedSpmv, and
// SELL-C-sigma — at operand widths 1/2/4/8, and compared against a naive COO
// reference evaluated in triplet order (a computation path none of the
// kernels share).
//
// Tolerance note: the reference accumulates y[i] in coordinate order with a
// plain double; the kernels reassociate (register-blocked lanes, chunked
// columns, scatter/reduce partials). For a row of m terms the worst-case
// reassociation drift is ~m * eps * sum|terms|; with |values|, |x| <= 1 and
// rows <= ~1000 nonzeros that is < 1e-12, so the comparison uses
// |got - want| <= 1e-10 * max(1, |want|) — the repo-wide kernel tolerance
// with a relative guard for the few large-row families.
//
// Every assertion prints the case seed, so any failure reproduces with
// matrix_for(seed, family).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/prng.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/spmv_sell.hpp"
#include "sim/kernel_model.hpp"
#include "sparse/sell.hpp"

namespace sparta {
namespace {

constexpr int kCases = 320;
constexpr std::uint64_t kBaseSeed = 0x5eed5eed;
constexpr int kWidths[] = {1, 2, 4, 8};

// One small matrix per case, cycling the suite's generator families with
// seeded parameter jitter (small sizes keep every-format x every-width
// affordable at several hundred cases).
CsrMatrix matrix_for(std::uint64_t seed, int family) {
  Xoshiro256 rng{seed};
  const auto n = static_cast<index_t>(40 + rng.bounded(360));
  switch (family) {
    case 0:
      return gen::banded(n, static_cast<index_t>(2 + rng.bounded(static_cast<std::uint64_t>(n / 3))),
                         static_cast<index_t>(2 + rng.bounded(8)), seed);
    case 1:
      return gen::random_uniform(n, static_cast<index_t>(1 + rng.bounded(12)), seed);
    case 2:
      return gen::powerlaw(n, 1.3 + rng.uniform() * 0.9,
                           static_cast<index_t>(8 + rng.bounded(64)), seed);
    case 3:
      return gen::fem_like(n, static_cast<index_t>(2 + rng.bounded(4)),
                           static_cast<index_t>(2 + rng.bounded(6)),
                           static_cast<index_t>(n / 4 + 1), seed);
    case 4:
      return gen::circuit_like(n, static_cast<index_t>(1 + rng.bounded(4)),
                               static_cast<index_t>(1 + rng.bounded(3)),
                               static_cast<index_t>(n / 2 + 1), seed);
    case 5:
      return gen::dense_rows_wide(n, static_cast<index_t>(4 + rng.bounded(24)), seed);
    case 6:
      return gen::block_diagonal(n, static_cast<index_t>(2 + rng.bounded(6)), seed);
    case 7:
      return gen::hybrid_regions(n, 0.2 + rng.uniform() * 0.6,
                                 static_cast<index_t>(2 + rng.bounded(8)), seed);
    default: {
      const auto side = static_cast<index_t>(5 + rng.bounded(14));
      return gen::stencil5(side, side);
    }
  }
}

// y = A x computed from a triplet expansion of the CSR, accumulated in
// coordinate order — deliberately none of the kernels' summation orders.
aligned_vector<value_t> coo_reference(const CsrMatrix& m, std::span<const value_t> x) {
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()), 0.0);
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      y[static_cast<std::size_t>(i)] += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
  }
  return y;
}

aligned_vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  aligned_vector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

void expect_close(std::span<const value_t> got, std::span<const value_t> want,
                  std::uint64_t seed, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what << " (seed " << seed << ")";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double tol = 1e-10 * std::max(1.0, std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol)
        << what << " row " << i << " (seed " << seed << ")";
  }
}

// Symmetrize a general matrix (half the cases exercise SymCsr): keep the
// lower triangle, mirror it, and put a positive value on the full diagonal.
CsrMatrix symmetrized(const CsrMatrix& m, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  CooMatrix coo{m.nrows(), m.nrows()};
  for (index_t i = 0; i < m.nrows(); ++i) {
    const auto cols = m.row_cols(i);
    const auto vals = m.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] >= i) break;  // columns are sorted; lower triangle only
      coo.add(i, cols[k], vals[k]);
      coo.add(cols[k], i, vals[k]);
    }
    coo.add(i, i, rng.uniform(1.0, 2.0));
  }
  coo.compress();
  return CsrMatrix::from_coo(coo);
}

void run_prepared_case(const CsrMatrix& m, const sim::KernelConfig& cfg, std::uint64_t seed,
                       const std::string& what) {
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};
  const auto rows = static_cast<std::size_t>(m.nrows());
  const auto cols = static_cast<std::size_t>(m.ncols());
  for (const int k : kWidths) {
    const auto kk = static_cast<std::size_t>(k);
    const auto xs = random_vector(cols * kk, seed ^ static_cast<std::uint64_t>(k));
    aligned_vector<value_t> ys(rows * kk, -7.0);
    prepared.run(kernels::ConstDenseBlockView{xs.data(), m.ncols(), k, k},
                 kernels::DenseBlockView{ys.data(), m.nrows(), k, k});
    for (std::size_t c = 0; c < kk; ++c) {
      aligned_vector<value_t> xc(cols), yc(rows);
      for (std::size_t r = 0; r < cols; ++r) xc[r] = xs[r * kk + c];
      const auto want = coo_reference(m, xc);
      for (std::size_t r = 0; r < rows; ++r) yc[r] = ys[r * kk + c];
      expect_close(yc, want, seed, what + " k" + std::to_string(k));
    }
  }
}

// Sharded across 8 gtest cases so ctest -j parallelizes the sweep.
class Differential : public ::testing::TestWithParam<int> {};

TEST_P(Differential, AllFormatsAllWidthsAgreeWithCooReference) {
  const int shard = GetParam();
  Xoshiro256 seeder{kBaseSeed + static_cast<std::uint64_t>(shard)};
  for (int case_i = shard; case_i < kCases; case_i += 8) {
    const std::uint64_t seed = seeder.next();
    const int family = case_i % 9;
    const CsrMatrix m = matrix_for(seed, family);
    SCOPED_TRACE("case " + std::to_string(case_i) + " family " + std::to_string(family) +
                 " seed " + std::to_string(seed));

    // PreparedSpmv surfaces: baseline, fully-codegen'd, delta, decomposed.
    run_prepared_case(m, sim::KernelConfig{}, seed, "csr");
    sim::KernelConfig full;
    full.vectorized = true;
    full.unrolled = true;
    full.prefetch = true;
    run_prepared_case(m, full, seed, "csr+vec+unroll+pref");
    sim::KernelConfig delta;
    delta.delta = true;
    run_prepared_case(m, delta, seed, "delta");
    sim::KernelConfig dec;
    dec.decomposed = true;
    run_prepared_case(m, dec, seed, "decomposed");

    const auto rows = static_cast<std::size_t>(m.nrows());
    const auto cols = static_cast<std::size_t>(m.ncols());
    const auto x = random_vector(cols, seed ^ 0xabcdef);
    const auto want = coo_reference(m, x);

    // SELL-C-sigma: vector kernel plus the block kernel at every width.
    const SellMatrix sell = SellMatrix::from_csr(m, 8, 64);
    aligned_vector<value_t> y_sell(rows, -7.0);
    kernels::spmv_sell(sell, x, y_sell);
    expect_close(y_sell, want, seed, "sell");
    for (const int k : {2, 4, 8}) {
      const auto kk = static_cast<std::size_t>(k);
      const auto xs = random_vector(cols * kk, seed ^ (0x5e11u + static_cast<std::uint64_t>(k)));
      aligned_vector<value_t> ys(rows * kk, -7.0);
      kernels::spmm_sell(sell, kernels::ConstDenseBlockView{xs.data(), m.ncols(), k, k},
                         kernels::DenseBlockView{ys.data(), m.nrows(), k, k});
      for (std::size_t c = 0; c < kk; ++c) {
        aligned_vector<value_t> xc(cols), yc(rows);
        for (std::size_t r = 0; r < cols; ++r) xc[r] = xs[r * kk + c];
        for (std::size_t r = 0; r < rows; ++r) yc[r] = ys[r * kk + c];
        expect_close(yc, coo_reference(m, xc), seed, "sell k" + std::to_string(k));
      }
    }

    // Symmetric storage over the symmetrized twin, widths 1/2/4/8, each
    // prepared for its width so the K-column scatter/reduce kernels run.
    const CsrMatrix ms = symmetrized(m, seed ^ 0x517);
    sim::KernelConfig symc;
    symc.symmetric = true;
    for (const int k : kWidths) {
      const kernels::PreparedSpmv sym{
          ms, kernels::SpmvOptions{.config = symc, .threads = 4, .block_width = k}};
      ASSERT_TRUE(sym.symmetric_applied()) << "seed " << seed;
      const auto kk = static_cast<std::size_t>(k);
      const auto xs = random_vector(rows * kk, seed ^ (0x5f3u + static_cast<std::uint64_t>(k)));
      aligned_vector<value_t> ys(rows * kk, -7.0);
      sym.run(kernels::ConstDenseBlockView{xs.data(), ms.ncols(), k, k},
              kernels::DenseBlockView{ys.data(), ms.nrows(), k, k});
      for (std::size_t c = 0; c < kk; ++c) {
        aligned_vector<value_t> xc(rows), yc(rows);
        for (std::size_t r = 0; r < rows; ++r) xc[r] = xs[r * kk + c];
        for (std::size_t r = 0; r < rows; ++r) yc[r] = ys[r * kk + c];
        expect_close(yc, coo_reference(ms, xc), seed, "sym k" + std::to_string(k));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, Differential, ::testing::Range(0, 8),
                         [](const auto& info) {
                           return "shard_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sparta
