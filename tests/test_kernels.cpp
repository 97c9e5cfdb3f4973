// Correctness tests for every real host kernel: each optimized variant,
// prepared through PreparedSpmv, must reproduce the reference SpMV
// bit-for-bit-close on a battery of matrix families at several partition
// counts; each kernel keeps its stated determinism contract (DESIGN.md §16);
// and the registry must dispatch every KernelConfig the tuner can emit (all
// 15 sweep sets x schedules).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "common/prng.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/microbench_kernels.hpp"
#include "team_size.hpp"
#include "tuner/optimizations.hpp"

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

struct KernelMatrixCase {
  const char* name;
  CsrMatrix (*make)();
};

struct KernelConfigCase {
  const char* name;
  sim::KernelConfig config;
  double tol;
};

sim::KernelConfig make_config(bool vec, bool unroll, bool pf, bool delta, bool decomp,
                              sim::Schedule schedule = sim::Schedule::kStaticNnzBalanced) {
  sim::KernelConfig c;
  c.vectorized = vec;
  c.unrolled = unroll;
  c.prefetch = pf;
  c.delta = delta;
  c.decomposed = decomp;
  c.schedule = schedule;
  return c;
}

// One entry per host kernel of the optimization pool. Reassociating kernels
// (SIMD, unrolled, cooperative long rows) get the 1e-10 tolerance; the
// scalar ones reproduce the reference order and get 1e-12.
const KernelConfigCase kKernelConfigs[] = {
    {"base", make_config(false, false, false, false, false), 1e-12},
    {"vec", make_config(true, false, false, false, false), 1e-10},
    {"pf", make_config(false, false, true, false, false), 1e-12},
    {"vec_unroll", make_config(true, true, false, false, false), 1e-10},
    {"vec_unroll_pf", make_config(true, true, true, false, false), 1e-10},
    {"dynamic", make_config(false, false, false, false, false, sim::Schedule::kDynamicChunks),
     1e-12},
    {"delta", make_config(false, false, false, true, false), 1e-12},
    {"decomposed", make_config(false, false, false, false, true), 1e-10},
    {"decomposed_vec", make_config(true, false, false, false, true), 1e-10},
};

const KernelMatrixCase kMatrixFamilies[] = {
    {"stencil5", [] { return gen::stencil5(25, 20); }},
    {"banded", [] { return gen::banded(1500, 80, 9, 301); }},
    {"fem", [] { return gen::fem_like(1200, 5, 7, 250, 302); }},
    {"random", [] { return gen::random_uniform(900, 15, 303); }},
    {"powerlaw", [] { return gen::powerlaw(2000, 1.7, 300, 304); }},
    {"circuit", [] { return gen::circuit_like(1800, 3, 4, 1500, 305); }},
    {"diagonal", [] { return gen::diagonal(777); }},
    {"denserows", [] { return gen::dense_rows_wide(300, 80, 306); }},
    {"empty_rows",
     [] {
       CooMatrix coo{500, 500};
       coo.add(0, 1, 2.0);
       coo.add(499, 0, -1.0);
       coo.add(250, 250, 3.0);
       return CsrMatrix::from_coo(coo);
     }},
};

class KernelCorrectness
    : public ::testing::TestWithParam<std::tuple<KernelMatrixCase, KernelConfigCase>> {};

// One partition, one per core, and many more partitions than cores (37)
// must all reproduce the reference.
TEST_P(KernelCorrectness, MatchesReferenceAtEveryPartitionCount) {
  const auto& [family, kc] = GetParam();
  const CsrMatrix m = family.make();
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 1234);
  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  for (const int threads : {1, 4, 37}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const kernels::PreparedSpmv prepared{
        m, kernels::SpmvOptions{.config = kc.config, .threads = threads}};
    aligned_vector<value_t> y(want.size(), -7.0);
    prepared.run(x, y);
    expect_near(y, want, kc.tol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesKernels, KernelCorrectness,
    ::testing::Combine(::testing::ValuesIn(kMatrixFamilies), ::testing::ValuesIn(kKernelConfigs)),
    [](const auto& info) {
      return std::string{std::get<0>(info.param).name} + "_" + std::get<1>(info.param).name;
    });

// --- Determinism contract (DESIGN.md §16) ----------------------------------

// The one-shot drivers open their parallel regions with the default team, so
// a thread count under test must set both it (TeamSize) and
// SpmvOptions::threads.

// y = A X at operand width k, prepared and run with `threads` threads.
aligned_vector<value_t> run_at(const CsrMatrix& m, const sim::KernelConfig& cfg, int threads,
                               int k, std::span<const value_t> xs) {
  const TeamSize team{threads};
  const kernels::PreparedSpmv prepared{
      m, kernels::SpmvOptions{.config = cfg, .threads = threads, .block_width = k}};
  aligned_vector<value_t> ys(static_cast<std::size_t>(m.nrows()) * static_cast<std::size_t>(k),
                             -7.0);
  prepared.run(kernels::ConstDenseBlockView{xs.data(), m.ncols(), k, k},
               kernels::DenseBlockView{ys.data(), m.nrows(), k, k});
  return ys;
}

void expect_bitwise(std::span<const value_t> got, std::span<const value_t> want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << ": not bit-identical at index " << i;
  }
}

// Row-owned kernels compute each row of Y in one fixed-order pass by
// whichever thread owns it, so the output is independent of the partition
// and the team size: bitwise identical at every thread count.
TEST(KernelDeterminism, RowOwnedKernelsAreBitwiseAcrossThreadCounts) {
  const CsrMatrix m = gen::powerlaw(20000, 1.7, 2000, 330);
  const sim::KernelConfig row_owned[] = {
      make_config(false, false, false, false, false),
      make_config(true, false, false, false, false),
      make_config(false, false, true, false, false),
      make_config(true, true, false, false, false),
      make_config(true, true, true, false, false),
      make_config(false, false, false, false, false, sim::Schedule::kDynamicChunks),
      make_config(false, false, false, false, false, sim::Schedule::kStaticRows),
      make_config(false, false, false, true, false),
      make_config(true, false, false, true, false),
  };
  for (const int k : {1, 4}) {
    const auto xs = random_vector(static_cast<std::size_t>(m.ncols()) * static_cast<std::size_t>(k),
                                  331 + static_cast<std::uint64_t>(k));
    for (const auto& cfg : row_owned) {
      const auto want = run_at(m, cfg, 1, k, xs);
      for (const int threads : {2, 3, 4, 7}) {
        expect_bitwise(run_at(m, cfg, threads, k, xs), want,
                       cfg.describe() + " k" + std::to_string(k) + " at " +
                           std::to_string(threads) + " threads");
      }
    }
  }
}

// Decomposed sums each long row cooperatively and SymCsr reduces mirror
// contributions per partition: both reassociate by thread count, so the
// contract is only repeatability at a fixed thread count.
TEST(KernelDeterminism, DecomposedAndSymmetricRepeatAtAFixedThreadCount) {
  const CsrMatrix skewed = gen::powerlaw(20000, 1.7, 2000, 332);
  const CsrMatrix spd = gen::stencil5(100, 100);
  sim::KernelConfig sym;
  sym.symmetric = true;
  const std::pair<const CsrMatrix*, sim::KernelConfig> cases[] = {
      {&skewed, make_config(false, false, false, false, true)},
      {&skewed, make_config(true, true, false, false, true)},
      {&spd, sym},
  };
  for (const int k : {1, 4}) {
    for (const auto& [m, cfg] : cases) {
      const auto xs =
          random_vector(static_cast<std::size_t>(m->ncols()) * static_cast<std::size_t>(k),
                        333 + static_cast<std::uint64_t>(k));
      for (const int threads : {1, 3, 4}) {
        const auto first = run_at(*m, cfg, threads, k, xs);
        for (int rep = 0; rep < 3; ++rep) {
          expect_bitwise(run_at(*m, cfg, threads, k, xs), first,
                         cfg.describe() + " k" + std::to_string(k) + " at " +
                             std::to_string(threads) + " threads");
        }
      }
    }
  }
}

// --- Micro-benchmark kernels ----------------------------------------------

TEST(MicrobenchKernels, RegularizedColindHasRowIndices) {
  const CsrMatrix m = gen::banded(200, 20, 6, 310);
  const auto colind = kernels::regularized_colind(m);
  ASSERT_EQ(colind.size(), static_cast<std::size_t>(m.nnz()));
  for (index_t i = 0; i < m.nrows(); ++i) {
    for (offset_t j = m.rowptr()[static_cast<std::size_t>(i)];
         j < m.rowptr()[static_cast<std::size_t>(i) + 1]; ++j) {
      EXPECT_EQ(colind[static_cast<std::size_t>(j)], i);
    }
  }
}

TEST(MicrobenchKernels, RegularizedKernelComputesRowScaledSums) {
  // With colind := i, y[i] = x[i] * sum(row values).
  const CsrMatrix m = gen::banded(300, 30, 7, 311);
  const auto colind = kernels::regularized_colind(m);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 312);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto parts = partition_balanced_nnz(m, 3);
  kernels::spmv_with_colind(m, colind, x, y, parts);
  for (index_t i = 0; i < m.nrows(); ++i) {
    value_t row_sum = 0.0;
    for (value_t v : m.row_vals(i)) row_sum += v;
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], row_sum * x[static_cast<std::size_t>(i)], 1e-10);
  }
}

TEST(MicrobenchKernels, CustomColindMatchesReferenceWhenUnmodified) {
  const CsrMatrix m = gen::random_uniform(400, 10, 313);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 314);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  const auto parts = partition_balanced_nnz(m, 4);
  kernels::spmv_with_colind(m, m.colind(), x, y, parts);
  expect_near(y, want, 1e-12);
}

TEST(MicrobenchKernels, UnitStrideKernelComputesRowScaledSums) {
  const CsrMatrix m = gen::banded(300, 30, 7, 315);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 316);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto parts = partition_balanced_nnz(m, 3);
  kernels::spmv_unit_stride(m, x, y, parts);
  for (index_t i = 0; i < m.nrows(); ++i) {
    value_t row_sum = 0.0;
    for (value_t v : m.row_vals(i)) row_sum += v;
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], row_sum * x[static_cast<std::size_t>(i)], 1e-10);
  }
}

// --- Registry: every sweep config must run correctly ----------------------

class RegistryDispatch : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegistryDispatch, PreparedKernelMatchesReference) {
  const CsrMatrix m = gen::circuit_like(1500, 4, 3, 800, 320);
  const auto& combo = combined_optimization_sets()[GetParam()];
  const auto cfg = config_for(combo);
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};
  EXPECT_GE(prepared.prep_seconds(), 0.0);

  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 321);
  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()), -3.0);
  prepared.run(x, y);
  expect_near(y, want, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllSweepConfigs, RegistryDispatch,
                         ::testing::Range<std::size_t>(0, 15),
                         [](const auto& info) {
                           return "combo_" + std::to_string(info.param);
                         });

TEST(Registry, DeltaFallbackOnIncompressibleMatrix) {
  // Deltas above 16 bits: the registry must fall back to plain CSR.
  CooMatrix coo{3, 200000};
  coo.add(0, 0, 1.0);
  coo.add(0, 199999, 2.0);
  coo.add(1, 5, 3.0);
  coo.add(2, 100, 4.0);
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  sim::KernelConfig cfg;
  cfg.delta = true;
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 2}};
  EXPECT_FALSE(prepared.delta_applied());
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 322);
  aligned_vector<value_t> want(3), y(3);
  spmv_reference(m, x, want);
  prepared.run(x, y);
  expect_near(y, want, 1e-12);
}

TEST(Registry, RejectsNegativeThreads) {
  const CsrMatrix m = gen::diagonal(10);
  EXPECT_THROW(kernels::PreparedSpmv(m, kernels::SpmvOptions{.threads = -1}),
               std::invalid_argument);
  // threads = 0 means "all available" in the options API.
  EXPECT_GT(kernels::PreparedSpmv(m, kernels::SpmvOptions{}).threads(), 0);
}

TEST(Registry, StaticRowsScheduleSupported) {
  const CsrMatrix m = gen::banded(800, 50, 6, 323);
  sim::KernelConfig cfg;
  cfg.schedule = sim::Schedule::kStaticRows;
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 324);
  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  prepared.run(x, y);
  expect_near(y, want, 1e-12);
}

}  // namespace
}  // namespace sparta
