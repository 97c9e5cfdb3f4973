// Tests for the persistent-parallel solver execution engine (src/engine/)
// and the region-reentrant PreparedSpmv API it drives: run_local /
// run_local_dot correctness against the serial reference, NUMA first-touch
// equivalence, partition edge cases, and engine-vs-oracle solver agreement
// on the generator suite (the oracle is tests/solver_oracle.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/prng.hpp"
#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "kernels/kernel_registry.hpp"
#include "solver_oracle.hpp"
#include "sparse/coo.hpp"
#include "sparse/partition.hpp"

namespace sparta {
namespace {

aligned_vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  aligned_vector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// A + A^T made strictly diagonally dominant: SPD, same structural family.
CsrMatrix spd_like(const CsrMatrix& a, std::uint64_t seed) {
  const CsrMatrix at = a.transpose();
  CooMatrix sym{a.nrows(), a.ncols()};
  for (index_t i = 0; i < a.nrows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) sym.add(i, cols[j], vals[j]);
    const auto tcols = at.row_cols(i);
    const auto tvals = at.row_vals(i);
    for (std::size_t j = 0; j < tcols.size(); ++j) sym.add(i, tcols[j], tvals[j]);
  }
  return gen::make_diagonally_dominant(CsrMatrix::from_coo(sym), seed);
}

double norm2(std::span<const value_t> v) {
  double acc = 0.0;
  for (const value_t e : v) acc += e * e;
  return std::sqrt(acc);
}

/// Residual agreement, normalized by the initial-residual scale ||b||
/// (x0 = 0): comparing converged residuals to each other directly would be
/// dominated by reduction-order rounding noise once both are tiny.
double residual_rel_diff(double rf, double rl, std::span<const value_t> b) {
  return std::abs(rf - rl) / std::max(norm2(b), 1e-300);
}

/// Drive the region API serially: every part, one after the other.
void run_all_parts(const kernels::PreparedSpmv& prepared, std::span<const value_t> x,
                   std::span<value_t> y) {
  for (int p = 0; p < static_cast<int>(prepared.region_parts().size()); ++p) {
    prepared.run_local(p, x, y);
  }
}

TEST(RegionApi, RunLocalMatchesReferenceAcrossConfigs) {
  const CsrMatrix a = gen::banded(500, 24, 7, 601);
  const auto x = random_vector(static_cast<std::size_t>(a.ncols()), 602);
  aligned_vector<value_t> expect(static_cast<std::size_t>(a.nrows()));
  spmv_reference(a, x, expect);

  std::vector<sim::KernelConfig> configs(6);
  configs[1].vectorized = true;
  configs[2].unrolled = true;
  configs[3].prefetch = true;
  configs[4].delta = true;
  configs[5].vectorized = true;
  configs[5].delta = true;

  for (const auto& cfg : configs) {
    for (const bool first_touch : {false, true}) {
      const kernels::PreparedSpmv prepared{
          a, kernels::SpmvOptions{.config = cfg, .threads = 4, .first_touch = first_touch}};
      ASSERT_EQ(prepared.region_parts().size(), 4u);
      aligned_vector<value_t> y(expect.size(), -1.0);
      run_all_parts(prepared, x, y);
      for (std::size_t i = 0; i < expect.size(); ++i) {
        ASSERT_NEAR(y[i], expect[i], 1e-12 * (1.0 + std::abs(expect[i])));
      }
    }
  }
}

TEST(RegionApi, RunLocalDotFusesReduction) {
  const CsrMatrix a = gen::random_uniform(300, 9, 603);
  const auto x = random_vector(static_cast<std::size_t>(a.ncols()), 604);
  const auto w = random_vector(static_cast<std::size_t>(a.nrows()), 605);
  aligned_vector<value_t> expect(static_cast<std::size_t>(a.nrows()));
  spmv_reference(a, x, expect);
  double expect_dot = 0.0;
  for (std::size_t i = 0; i < expect.size(); ++i) expect_dot += w[i] * expect[i];

  const kernels::PreparedSpmv prepared{
      a, kernels::SpmvOptions{.threads = 3, .first_touch = true}};
  aligned_vector<value_t> y(expect.size(), 0.0);
  double dot = 0.0;
  for (int p = 0; p < static_cast<int>(prepared.region_parts().size()); ++p) {
    dot += prepared.run_local_dot(p, x, y, w);
  }
  EXPECT_NEAR(dot, expect_dot, 1e-9 * (1.0 + std::abs(expect_dot)));
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_NEAR(y[i], expect[i], 1e-12 * (1.0 + std::abs(expect[i])));
  }
}

TEST(RegionApi, SingleRowMatrixWithAllNnz) {
  // One row holding every nonzero; more parts than rows.
  const index_t ncols = 256;
  CooMatrix coo{1, ncols};
  Xoshiro256 rng{606};
  for (index_t j = 0; j < ncols; ++j) coo.add(0, j, rng.uniform(-1.0, 1.0));
  const CsrMatrix a = CsrMatrix::from_coo(coo);

  const auto x = random_vector(static_cast<std::size_t>(ncols), 607);
  aligned_vector<value_t> expect(1);
  spmv_reference(a, x, expect);

  const kernels::PreparedSpmv prepared{
      a, kernels::SpmvOptions{.threads = 4, .first_touch = true}};
  validate_partition(
      {prepared.region_parts().begin(), prepared.region_parts().end()}, a.nrows());
  aligned_vector<value_t> y(1, 0.0);
  run_all_parts(prepared, x, y);
  EXPECT_NEAR(y[0], expect[0], 1e-12 * (1.0 + std::abs(expect[0])));
}

TEST(Partitioning, MorePartsThanRowsStillCovers) {
  const CsrMatrix a = gen::stencil5(2, 2);  // 4 rows
  const auto parts = partition_balanced_nnz(a, 9);
  ASSERT_EQ(parts.size(), 9u);
  validate_partition(parts, a.nrows());
  offset_t covered = 0;
  for (const auto& r : parts) covered += range_nnz(a, r);
  EXPECT_EQ(covered, a.nnz());
}

TEST(Partitioning, EmptyMatrixPartitions) {
  const CsrMatrix a;  // 0 x 0
  const auto parts = partition_balanced_nnz(a, 4);
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& r : parts) EXPECT_EQ(r.size(), 0);
}

TEST(EngineEdge, EmptyMatrixSolvesTrivially) {
  const CsrMatrix a;  // 0 x 0
  engine::EngineOptions opts;
  opts.threads = 3;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  aligned_vector<value_t> b, x;
  const auto rc = eng.cg(b, x);
  EXPECT_TRUE(rc.converged);
  EXPECT_EQ(rc.iterations, 0);
  const auto rb = eng.bicgstab(b, x);
  EXPECT_TRUE(rb.converged);
  EXPECT_EQ(rb.iterations, 0);
  const auto rg = eng.gmres(b, x);
  EXPECT_TRUE(rg.converged);
  EXPECT_EQ(rg.iterations, 0);
}

TEST(EngineEdge, MoreThreadsThanRows) {
  const CsrMatrix a = gen::stencil5(2, 2);  // 4 rows, SPD
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 608);
  engine::EngineOptions opts;
  opts.threads = 8;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = eng.cg(b, x);
  EXPECT_TRUE(r.converged);

  aligned_vector<value_t> x_oracle(b.size(), 0.0);
  oracle::cg(a, b, x_oracle, opts.max_iterations, opts.tolerance);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x[i], x_oracle[i], 1e-8);
}

TEST(EngineEdge, ZeroRhsYieldsZeroSolution) {
  const CsrMatrix a = gen::stencil5(8, 8);
  const aligned_vector<value_t> b(static_cast<std::size_t>(a.nrows()), 0.0);
  const engine::SolverEngine eng{a};
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = eng.cg(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  for (value_t v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EngineEdge, RejectsShapeMismatch) {
  const CsrMatrix a = gen::stencil5(4, 4);
  const engine::SolverEngine eng{a};
  aligned_vector<value_t> b(5), x(16);
  EXPECT_THROW(eng.cg(b, x), std::invalid_argument);
  EXPECT_THROW(eng.bicgstab(b, x), std::invalid_argument);
  EXPECT_THROW(eng.gmres(b, x), std::invalid_argument);
}

// The adopting constructor sizes nothing itself: the solvers iterate the
// prepared kernel's region parts but size their work vectors by the
// engine's matrix, so a kernel prepared from a differently shaped matrix
// must be refused up front.
TEST(EngineEdge, AdoptingConstructorRejectsForeignPreparedKernel) {
  const CsrMatrix a = gen::stencil5(4, 4);    // 16 x 16
  const CsrMatrix big = gen::stencil5(8, 8);  // 64 x 64
  const auto prepared_big = std::make_shared<const kernels::PreparedSpmv>(
      big, kernels::SpmvOptions{.threads = 2});
  EXPECT_THROW((engine::SolverEngine{a, prepared_big}), std::invalid_argument);

  CooMatrix rect{16, 20};
  rect.add(0, 0, 1.0);
  const CsrMatrix wide = CsrMatrix::from_coo(rect);
  const auto prepared_wide = std::make_shared<const kernels::PreparedSpmv>(
      wide, kernels::SpmvOptions{.threads = 2});
  EXPECT_THROW((engine::SolverEngine{a, prepared_wide}), std::invalid_argument);
  EXPECT_THROW((engine::SolverEngine{a, nullptr}), std::invalid_argument);

  // A kernel prepared from an equal-shaped matrix is adopted as is.
  const auto prepared_a = std::make_shared<const kernels::PreparedSpmv>(
      a, kernels::SpmvOptions{.threads = 2});
  const engine::SolverEngine eng{a, prepared_a};
  EXPECT_EQ(eng.threads(), 2);
  EXPECT_EQ(&eng.prepared(), prepared_a.get());
}

TEST(Engine, FusedCgConvergesLikeOracle) {
  const CsrMatrix a = gen::stencil5(20, 20);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 609);
  aligned_vector<value_t> x_fused(b.size(), 0.0), x_oracle(b.size(), 0.0);

  engine::EngineOptions opts;
  opts.threads = 4;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  const auto rf = eng.cg(b, x_fused);
  const auto rl = oracle::cg(a, b, x_oracle, opts.max_iterations, opts.tolerance);

  EXPECT_TRUE(rf.converged);
  EXPECT_TRUE(rl.converged);
  EXPECT_EQ(rf.iterations, rl.iterations);
  EXPECT_LT(residual_rel_diff(rf.residual_norm, rl.residual_norm, b), 1e-10);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_NEAR(x_fused[i], x_oracle[i], 1e-10);
}

TEST(Engine, FusedCgWithJacobiMatchesOracle) {
  const CsrMatrix a = spd_like(gen::banded(300, 18, 6, 610), 611);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 612);
  aligned_vector<value_t> x_fused(b.size(), 0.0), x_oracle(b.size(), 0.0);

  engine::EngineOptions opts;
  opts.threads = 4;
  opts.jacobi = true;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  const auto rf = eng.cg(b, x_fused);

  const auto rl = oracle::cg(a, b, x_oracle, opts.max_iterations, opts.tolerance, true);

  EXPECT_TRUE(rf.converged);
  EXPECT_TRUE(rl.converged);
  EXPECT_EQ(rf.iterations, rl.iterations);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_NEAR(x_fused[i], x_oracle[i], 1e-8);
}

TEST(Engine, FusedBicgstabMatchesOracle) {
  const CsrMatrix a =
      gen::make_diagonally_dominant(gen::random_uniform(300, 8, 613), 614);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 615);
  aligned_vector<value_t> x_fused(b.size(), 0.0), x_oracle(b.size(), 0.0);

  engine::EngineOptions opts;
  opts.threads = 4;
  const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
  const auto rf = eng.bicgstab(b, x_fused);
  const auto rl = oracle::bicgstab(a, b, x_oracle, opts.max_iterations, opts.tolerance);

  EXPECT_TRUE(rf.converged);
  EXPECT_TRUE(rl.converged);
  EXPECT_EQ(rf.iterations, rl.iterations);
  EXPECT_LT(residual_rel_diff(rf.residual_norm, rl.residual_norm, b), 1e-10);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_NEAR(x_fused[i], x_oracle[i], 1e-8);
}

TEST(Engine, FirstTouchTogglesAgree) {
  const CsrMatrix a = gen::stencil5(16, 16);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 616);

  engine::EngineOptions with_ft;
  with_ft.threads = 4;
  with_ft.first_touch = true;
  engine::EngineOptions without_ft = with_ft;
  without_ft.first_touch = false;

  aligned_vector<value_t> x1(b.size(), 0.0), x2(b.size(), 0.0);
  const engine::SolverEngine e1{a, sim::KernelConfig{}, with_ft};
  const engine::SolverEngine e2{a, sim::KernelConfig{}, without_ft};
  EXPECT_TRUE(e1.prepared().first_touch_applied());
  EXPECT_FALSE(e2.prepared().first_touch_applied());
  const auto r1 = e1.cg(b, x1);
  const auto r2 = e2.cg(b, x2);
  EXPECT_EQ(r1.iterations, r2.iterations);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_DOUBLE_EQ(x1[i], x2[i]);
}

// Fused CG agrees with the textbook oracle on every suite analogue. A small fixed iteration count makes agreement a
// property of the fused arithmetic itself: a wrong fusion shows up as an
// O(1) error on iteration one, while legitimate reduction-order rounding
// needs many iterations of chaotic amplification (on ill-conditioned
// matrices like rajat30/FullChip analogues) before it can clear 1e-10.
TEST(EngineAgreement, FusedCgMatchesOracleOnSuite) {
  // Each system runs plain and Jacobi CG on the general kernel and on
  // symmetric storage (spd_like makes A exactly symmetric, so the owner-
  // writes scatter/halo reduce path is the one exercised).
  sim::KernelConfig sym_cfg;
  sym_cfg.symmetric = true;
  std::uint64_t seed = 6500;
  for (const auto& spec : gen::suite_specs()) {
    const CsrMatrix a = spd_like(spec.make(), seed++);
    const auto b = random_vector(static_cast<std::size_t>(a.nrows()), seed++);
    for (const bool jacobi : {false, true}) {
      aligned_vector<value_t> x_oracle(b.size(), 0.0);
      const auto rl = oracle::cg(a, b, x_oracle, 4, 0.0, jacobi);
      for (const auto& cfg : {sim::KernelConfig{}, sym_cfg}) {
        engine::EngineOptions opts;
        opts.threads = 4;
        opts.max_iterations = 4;
        opts.tolerance = 0.0;
        opts.jacobi = jacobi;
        const engine::SolverEngine eng{a, cfg, opts};
        ASSERT_EQ(eng.prepared().symmetric_applied(), cfg.symmetric) << spec.name;
        aligned_vector<value_t> x_fused(b.size(), 0.0);
        const auto rf = eng.cg(b, x_fused);
        const std::string what = spec.name + (cfg.symmetric ? " sym" : " general") +
                                 (jacobi ? " jacobi" : "");
        EXPECT_EQ(rf.iterations, rl.iterations) << what;
        EXPECT_LT(residual_rel_diff(rf.residual_norm, rl.residual_norm, b), 1e-10) << what;
      }
    }
  }
}

TEST(EngineAgreement, FusedBicgstabMatchesOracleOnSuite) {
  std::uint64_t seed = 6600;
  for (const auto& spec : gen::suite_specs()) {
    const CsrMatrix a = gen::make_diagonally_dominant(spec.make(), seed++);
    const auto b = random_vector(static_cast<std::size_t>(a.nrows()), seed++);
    aligned_vector<value_t> x_fused(b.size(), 0.0), x_oracle(b.size(), 0.0);

    const auto rl = oracle::bicgstab(a, b, x_oracle, 3, 0.0);

    engine::EngineOptions opts;
    opts.threads = 4;
    opts.max_iterations = 3;
    opts.tolerance = 0.0;
    const engine::SolverEngine eng{a, sim::KernelConfig{}, opts};
    const auto rf = eng.bicgstab(b, x_fused);

    EXPECT_EQ(rf.iterations, rl.iterations) << spec.name;
    EXPECT_LT(residual_rel_diff(rf.residual_norm, rl.residual_norm, b), 1e-10) << spec.name;
  }
}

}  // namespace
}  // namespace sparta
