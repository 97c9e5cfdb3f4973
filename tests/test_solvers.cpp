// Tests for the iterative solvers — engine::SolverEngine's CG, BiCGSTAB and
// restarted GMRES — as solvers: convergence checked by the true residual
// through spmv_reference, preconditioning, iteration caps, restart cycles,
// tuned kernel configs, determinism across thread counts, and the reason a
// solve reports for stopping.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string_view>

#include "common/prng.hpp"
#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "obs/telemetry.hpp"
#include "sparse/coo.hpp"
#include "sparse/decomposed_csr.hpp"

namespace sparta {
namespace {

using solvers::StopReason;

enum class Method { kCg, kBicgstab, kGmres };
constexpr Method kAllMethods[] = {Method::kCg, Method::kBicgstab, Method::kGmres};

const char* name(Method m) {
  switch (m) {
    case Method::kCg: return "cg";
    case Method::kBicgstab: return "bicgstab";
    case Method::kGmres: return "gmres";
  }
  return "?";
}

solvers::SolveResult solve(const engine::SolverEngine& eng, Method m,
                           std::span<const value_t> b, std::span<value_t> x) {
  switch (m) {
    case Method::kCg: return eng.cg(b, x);
    case Method::kBicgstab: return eng.bicgstab(b, x);
    case Method::kGmres: return eng.gmres(b, x);
  }
  return {};
}

engine::EngineOptions options(int threads, int max_iterations = 1000, double tolerance = 1e-8) {
  engine::EngineOptions opts;
  opts.threads = threads;
  opts.max_iterations = max_iterations;
  opts.tolerance = tolerance;
  return opts;
}

aligned_vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  aligned_vector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double norm2(std::span<const value_t> v) {
  double acc = 0.0;
  for (const value_t e : v) acc += e * e;
  return std::sqrt(acc);
}

/// ||b - A x|| through the serial reference kernel.
double residual_norm(const CsrMatrix& a, std::span<const value_t> x,
                     std::span<const value_t> b) {
  aligned_vector<value_t> ax(b.size());
  spmv_reference(a, x, ax);
  double acc = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) acc += (b[i] - ax[i]) * (b[i] - ax[i]);
  return std::sqrt(acc);
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

TEST(Cg, SolvesPoissonSystem) {
  const CsrMatrix a = gen::stencil5(20, 20);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 501);
  aligned_vector<value_t> x(b.size(), 0.0);
  const engine::SolverEngine eng{a};
  const auto r = eng.cg(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.stop_reason, StopReason::converged);
  EXPECT_GT(r.iterations, 0);
  EXPECT_LT(residual_norm(a, x, b), 1e-6);
  EXPECT_GE(r.seconds, 0.0);
  EXPECT_LE(r.spmv_seconds, r.seconds + 1e-9);
}

TEST(Cg, JacobiPreconditioningDoesNotBreakConvergence) {
  const CsrMatrix a = spd_like(gen::banded(400, 20, 6, 502), 503);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 504);
  aligned_vector<value_t> x_plain(b.size(), 0.0), x_pc(b.size(), 0.0);
  engine::EngineOptions pc = options(4);
  pc.jacobi = true;
  const auto r_plain = engine::SolverEngine{a, sim::KernelConfig{}, options(4)}.cg(b, x_plain);
  const auto r_pc = engine::SolverEngine{a, sim::KernelConfig{}, pc}.cg(b, x_pc);
  EXPECT_TRUE(r_plain.converged);
  EXPECT_TRUE(r_pc.converged);
  EXPECT_LT(residual_norm(a, x_pc, b), 1e-5);
}

TEST(Cg, MaxIterationsCapsWork) {
  const CsrMatrix a = gen::stencil5(30, 30);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 505);
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = engine::SolverEngine{a, sim::KernelConfig{}, options(4, 3)}.cg(b, x);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.stop_reason, StopReason::max_iterations);
  EXPECT_EQ(r.iterations, 3);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  const CsrMatrix a =
      gen::make_diagonally_dominant(gen::random_uniform(300, 8, 507), 508);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 509);
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = engine::SolverEngine{a, sim::KernelConfig{}, options(4)}.gmres(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.stop_reason, StopReason::converged);
  EXPECT_LT(residual_norm(a, x, b), 1e-5);
  EXPECT_LE(r.spmv_seconds, r.seconds + 1e-9);
}

// A 2D Poisson system needs well over kGmresRestart Arnoldi steps, so the
// solve runs through several restart cycles (each recomputes the true
// residual and rebuilds the basis) before it converges.
TEST(Gmres, RestartCyclesConvergeBeyondKrylovDimension) {
  const CsrMatrix a = gen::stencil5(24, 24);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 512);
  aligned_vector<value_t> x(b.size(), 0.0);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto r = engine::SolverEngine{a, sim::KernelConfig{}, options(4)}.gmres(b, x);
  obs::set_enabled(was_enabled);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 2 * engine::kGmresRestart);
  EXPECT_LT(residual_norm(a, x, b), 1e-6);
  if (obs::kCompiledIn) {
    // One series entry per Arnoldi step, across all restart cycles.
    ASSERT_EQ(r.residual_history.size(), static_cast<std::size_t>(r.iterations));
    EXPECT_EQ(r.iter_seconds.size(), r.residual_history.size());
    EXPECT_EQ(r.residual_history.back(), r.residual_norm);
  }
}

TEST(Gmres, SolvesSpdSystemToo) {
  const CsrMatrix a = gen::stencil5(15, 15);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 513);
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = engine::SolverEngine{a}.gmres(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual_norm(a, x, b), 1e-5);
}

TEST(Gmres, IterationBudgetRespected) {
  const CsrMatrix a = gen::stencil5(30, 30);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 514);
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = engine::SolverEngine{a, sim::KernelConfig{}, options(4, 7)}.gmres(b, x);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.stop_reason, StopReason::max_iterations);
  EXPECT_EQ(r.iterations, 7);
}

// GMRES keeps its dense work serial and its SpMVs go through the one-shot
// kernel, which computes every row the same way at any thread count; with
// the baseline config the whole solve is therefore bitwise independent of
// the engine's thread count.
TEST(Gmres, DefaultConfigBitwiseEqualAcrossThreadCounts) {
  const CsrMatrix systems[] = {
      gen::make_diagonally_dominant(gen::random_uniform(300, 8, 507), 508),
      gen::stencil5(12, 12),  // 49 iterations: one restart
      gen::make_diagonally_dominant(gen::banded(200, 15, 5, 515), 516),
  };
  std::uint64_t seed = 540;
  for (const CsrMatrix& a : systems) {
    const auto b = random_vector(static_cast<std::size_t>(a.nrows()), seed++);
    aligned_vector<value_t> x1(b.size(), 0.0), x4(b.size(), 0.0);
    const auto r1 = engine::SolverEngine{a, sim::KernelConfig{}, options(1)}.gmres(b, x1);
    const auto r4 = engine::SolverEngine{a, sim::KernelConfig{}, options(4)}.gmres(b, x4);
    ASSERT_TRUE(r1.converged);
    EXPECT_EQ(r1.iterations, r4.iterations);
    EXPECT_EQ(r1.residual_norm, r4.residual_norm);
    for (std::size_t i = 0; i < b.size(); ++i) ASSERT_EQ(x1[i], x4[i]) << "row " << i;
  }
}

TEST(Bicgstab, SolvesNonsymmetricSystem) {
  const CsrMatrix a =
      gen::make_diagonally_dominant(gen::random_uniform(300, 8, 521), 522);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 523);
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = engine::SolverEngine{a, sim::KernelConfig{}, options(4)}.bicgstab(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.stop_reason, StopReason::converged);
  EXPECT_LT(residual_norm(a, x, b), 1e-5);
  EXPECT_LE(r.spmv_seconds, r.seconds + 1e-9);
}

TEST(Bicgstab, SolvesSpdSystem) {
  const CsrMatrix a = gen::stencil5(15, 15);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 524);
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = engine::SolverEngine{a}.bicgstab(b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(residual_norm(a, x, b), 1e-5);
}

TEST(Bicgstab, IterationBudgetRespected) {
  const CsrMatrix a = gen::stencil5(30, 30);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 525);
  aligned_vector<value_t> x(b.size(), 0.0);
  const auto r = engine::SolverEngine{a, sim::KernelConfig{}, options(4, 4)}.bicgstab(b, x);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.stop_reason, StopReason::max_iterations);
  EXPECT_EQ(r.iterations, 4);
}

TEST(Bicgstab, AgreesWithGmres) {
  const CsrMatrix a =
      gen::make_diagonally_dominant(gen::random_uniform(150, 6, 529), 530);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 531);
  aligned_vector<value_t> x_bi(b.size(), 0.0), x_gm(b.size(), 0.0);
  const engine::SolverEngine eng{a, sim::KernelConfig{}, options(4)};
  ASSERT_TRUE(eng.bicgstab(b, x_bi).converged);
  ASSERT_TRUE(eng.gmres(b, x_gm).converged);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x_bi[i], x_gm[i], 1e-5);
}

TEST(Solvers, CgAndGmresAgreeOnSpdSystem) {
  const CsrMatrix a = gen::stencil5(12, 12);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 518);
  aligned_vector<value_t> x_cg(b.size(), 0.0), x_gm(b.size(), 0.0);
  const engine::SolverEngine eng{a, sim::KernelConfig{}, options(4)};
  ASSERT_TRUE(eng.cg(b, x_cg).converged);
  ASSERT_TRUE(eng.gmres(b, x_gm).converged);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(x_cg[i], x_gm[i], 1e-5);
}

TEST(Solvers, ZeroRhsYieldsZeroSolution) {
  const CsrMatrix a = gen::stencil5(8, 8);
  const aligned_vector<value_t> b(static_cast<std::size_t>(a.nrows()), 0.0);
  const engine::SolverEngine eng{a};
  for (const Method m : kAllMethods) {
    aligned_vector<value_t> x(b.size(), 0.0);
    const auto r = solve(eng, m, b, x);
    EXPECT_TRUE(r.converged) << name(m);
    EXPECT_EQ(r.iterations, 0) << name(m);
    for (value_t v : x) EXPECT_DOUBLE_EQ(v, 0.0) << name(m);
  }
}

TEST(Solvers, RejectShapeMismatch) {
  const CsrMatrix a = gen::stencil5(4, 4);
  const engine::SolverEngine eng{a};
  aligned_vector<value_t> b(5), x(16), b16(16), x5(5);
  CooMatrix rect{4, 6};
  rect.add(0, 0, 1.0);
  const CsrMatrix ra = CsrMatrix::from_coo(rect);
  const engine::SolverEngine rect_eng{ra};
  aligned_vector<value_t> b4(4), x4(4);
  for (const Method m : kAllMethods) {
    EXPECT_THROW(solve(eng, m, b, x), std::invalid_argument) << name(m);
    EXPECT_THROW(solve(eng, m, b16, x5), std::invalid_argument) << name(m);
    EXPECT_THROW(solve(rect_eng, m, b4, x4), std::invalid_argument) << name(m);
  }
}

// Every solver reaches the requested true residual (||b - A x|| through
// spmv_reference, not the solver's own recurrence) when the engine runs a
// tuned kernel: delta-compressed indices, software prefetch, long-row
// decomposition and symmetric storage. The system is an SPD arrow matrix:
// a narrow band plus one dense row and column, long enough (> 1024 nnz) that
// the decomposition would split it; the host runs the decomposed config over
// merge-path ownership, where that row stays whole in one part.
TEST(Solvers, SolveWithTunedKernelConfig) {
  constexpr index_t n = 1200;
  const CsrMatrix band = gen::banded(n, 4, 3, 550);
  CooMatrix arrow{n, n};
  for (index_t i = 1; i < n; ++i) {
    const auto cols = band.row_cols(i);
    const auto vals = band.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) arrow.add(i, cols[j], vals[j]);
  }
  for (index_t j = 0; j < n; ++j) arrow.add(0, j, 0.5);
  const CsrMatrix a = spd_like(CsrMatrix::from_coo(arrow), 551);
  ASSERT_FALSE(DecomposedCsrMatrix::decompose(a).long_rows().empty());
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 552);
  // Acceptance: ||b - A x|| <= kTol ||b||. The solvers stop on their own
  // recurrence residual, which drifts from the true one by rounding, so
  // they run to a tighter tolerance.
  constexpr double kTol = 1e-8;

  sim::KernelConfig delta, prefetch, decomposed, symmetric;
  delta.delta = true;
  prefetch.prefetch = true;
  decomposed.decomposed = true;
  symmetric.symmetric = true;
  for (const sim::KernelConfig& cfg : {delta, prefetch, decomposed, symmetric}) {
    const engine::SolverEngine eng{a, cfg, options(4, 1000, kTol / 100)};
    EXPECT_EQ(eng.prepared().delta_applied(), cfg.delta);
    EXPECT_EQ(eng.prepared().symmetric_applied(), cfg.symmetric);
    for (const Method m : kAllMethods) {
      aligned_vector<value_t> x(b.size(), 0.0);
      const auto r = solve(eng, m, b, x);
      EXPECT_TRUE(r.converged) << cfg.describe() << " " << name(m);
      EXPECT_LE(residual_norm(a, x, b), kTol * norm2(b))
          << cfg.describe() << " " << name(m);
    }
  }
}

/// Read one counter of the engine's global telemetry registry.
double global_counter(std::string_view metric) {
  for (const auto& s : obs::Registry::global().snapshot()) {
    if (s.name == metric) return s.value;
  }
  return 0.0;
}

// Before stop reasons, a NaN in b made every solver run its whole
// iteration budget and return residual NaN with no explanation. Now the
// first non-finite residual norm ends the solve.
TEST(StopReasons, NonFiniteRhsStopsWithinOneIteration) {
  const CsrMatrix a = gen::stencil5(10, 10);
  const engine::SolverEngine eng{a, sim::KernelConfig{}, options(4)};
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (const value_t bad : {std::numeric_limits<value_t>::quiet_NaN(),
                            std::numeric_limits<value_t>::infinity()}) {
    auto b = random_vector(static_cast<std::size_t>(a.nrows()), 560);
    b[37] = bad;
    for (const Method m : kAllMethods) {
      const double before = global_counter("engine.stop.non_finite");
      aligned_vector<value_t> x(b.size(), 0.0);
      const auto r = solve(eng, m, b, x);
      EXPECT_FALSE(r.converged) << name(m);
      EXPECT_EQ(r.stop_reason, StopReason::non_finite) << name(m);
      EXPECT_LE(r.iterations, 1) << name(m);
      if (obs::kCompiledIn) {
        EXPECT_EQ(global_counter("engine.stop.non_finite"), before + 1.0) << name(m);
      }
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(StopReasons, NonFiniteMatrixOrGuessStops) {
  const CsrMatrix good = gen::stencil5(10, 10);
  CooMatrix coo{good.nrows(), good.ncols()};
  for (index_t i = 0; i < good.nrows(); ++i) {
    const auto cols = good.row_cols(i);
    const auto vals = good.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      coo.add(i, cols[j], i == 50 && cols[j] == i ? std::numeric_limits<value_t>::quiet_NaN()
                                                  : vals[j]);
    }
  }
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const auto b = random_vector(static_cast<std::size_t>(a.nrows()), 561);
  const engine::SolverEngine eng{a, sim::KernelConfig{}, options(4)};
  const engine::SolverEngine good_eng{good, sim::KernelConfig{}, options(4)};
  for (const Method m : kAllMethods) {
    aligned_vector<value_t> x(b.size(), 0.0);
    EXPECT_EQ(solve(eng, m, b, x).stop_reason, StopReason::non_finite) << name(m);
    aligned_vector<value_t> x_nan(b.size(), 0.0);
    x_nan[3] = std::numeric_limits<value_t>::quiet_NaN();
    const auto r = solve(good_eng, m, b, x_nan);
    EXPECT_EQ(r.stop_reason, StopReason::non_finite) << name(m);
    EXPECT_EQ(r.iterations, 0) << name(m);
  }
}

// [[0 1] [1 0]] with b = e0: p = r = e0 and A p = e1, so CG's p·Ap and
// BiCGSTAB's r0·v are exactly zero on the first step. GMRES breaks down
// when A v0 vanishes: [[0 0] [0 1]] with b = e0.
TEST(StopReasons, BreakdownIsReported) {
  CooMatrix swap{2, 2};
  swap.add(0, 1, 1.0);
  swap.add(1, 0, 1.0);
  const CsrMatrix a_swap = CsrMatrix::from_coo(swap);
  CooMatrix singular{2, 2};
  singular.add(1, 1, 1.0);
  const CsrMatrix a_singular = CsrMatrix::from_coo(singular);
  const aligned_vector<value_t> b{1.0, 0.0};

  const engine::SolverEngine eng_swap{a_swap, sim::KernelConfig{}, options(2)};
  for (const Method m : {Method::kCg, Method::kBicgstab}) {
    aligned_vector<value_t> x(2, 0.0);
    const auto r = solve(eng_swap, m, b, x);
    EXPECT_EQ(r.stop_reason, StopReason::breakdown) << name(m);
    EXPECT_FALSE(r.converged) << name(m);
    EXPECT_EQ(r.iterations, 0) << name(m);
  }
  aligned_vector<value_t> x(2, 0.0);
  const auto r =
      engine::SolverEngine{a_singular, sim::KernelConfig{}, options(2)}.gmres(b, x);
  EXPECT_EQ(r.stop_reason, StopReason::breakdown);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 1);
}

TEST(StopReasons, NamesAreStable) {
  EXPECT_STREQ(solvers::to_string(StopReason::converged), "converged");
  EXPECT_STREQ(solvers::to_string(StopReason::max_iterations), "max_iterations");
  EXPECT_STREQ(solvers::to_string(StopReason::breakdown), "breakdown");
  EXPECT_STREQ(solvers::to_string(StopReason::non_finite), "non_finite");
}

}  // namespace
}  // namespace sparta
