// Tests for the execution simulator: kernel cost model monotonicity, traffic
// accounting, schedule behavior and the architectural trends the paper's
// methodology depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/statistics.hpp"
#include "features/features.hpp"
#include "gen/generators.hpp"
#include "sim/simulator.hpp"
#include "sparse/decomposed_csr.hpp"
#include "sparse/delta_csr.hpp"
#include "team_size.hpp"
#include "tuner/optimizations.hpp"

namespace sparta {
namespace {

using sim::KernelConfig;
using sim::Schedule;
using sim::XAccess;

TEST(KernelConfigDescribe, EncodesFlags) {
  KernelConfig cfg;
  EXPECT_EQ(cfg.describe(), "csr");
  cfg.delta = true;
  cfg.vectorized = true;
  cfg.prefetch = true;
  EXPECT_EQ(cfg.describe(), "csr+delta+vec+pf");
  cfg = KernelConfig{};
  cfg.schedule = Schedule::kDynamicChunks;
  cfg.x_access = XAccess::kRegularized;
  EXPECT_EQ(cfg.describe(), "csr+dyn(reg-x)");
}

TEST(RowCycles, MonotonicInRowLength) {
  const auto m = knc();
  const KernelConfig cfg;
  double prev = 0.0;
  for (index_t len : {0, 1, 4, 16, 64, 256}) {
    const double c = sim::row_cycles(len, len, cfg, m);
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(RowCycles, PrefetchAddsOverhead) {
  const auto m = knc();
  KernelConfig plain, pf;
  pf.prefetch = true;
  EXPECT_GT(sim::row_cycles(100, 50, pf, m), sim::row_cycles(100, 50, plain, m));
}

TEST(RowCycles, VectorizationHelpsLongClusteredRows) {
  const auto m = knl();
  KernelConfig scalar, vec;
  vec.vectorized = true;
  // 512 elements in 64 distinct lines (8 per line): clustered.
  EXPECT_LT(sim::row_cycles(512, 64, vec, m), sim::row_cycles(512, 64, scalar, m));
}

TEST(RowCycles, VectorizationHurtsShortScatteredRows) {
  const auto m = knc();
  KernelConfig scalar, vec;
  vec.vectorized = true;
  // 4 elements, all in distinct lines: masked vector + gather overhead.
  EXPECT_GT(sim::row_cycles(4, 4, vec, m), sim::row_cycles(4, 4, scalar, m));
}

TEST(RowCycles, UnitStrideCheaperThanIndirect) {
  const auto m = knc();
  KernelConfig indirect;
  KernelConfig unit;
  unit.x_access = XAccess::kUnitStride;
  EXPECT_LT(sim::row_cycles(64, 64, unit, m), sim::row_cycles(64, 64, indirect, m));
}

TEST(RowStreamBytes, DeltaShrinksIndexTraffic) {
  const KernelConfig plain;
  KernelConfig delta;
  delta.delta = true;
  const double plain_bytes = sim::row_stream_bytes(100, plain, DeltaWidth::k8);
  const double d8 = sim::row_stream_bytes(100, delta, DeltaWidth::k8);
  const double d16 = sim::row_stream_bytes(100, delta, DeltaWidth::k16);
  EXPECT_LT(d8, d16);
  EXPECT_LT(d16, plain_bytes);
}

TEST(RowStreamBytes, UnitStrideDropsColind) {
  KernelConfig unit;
  unit.x_access = XAccess::kUnitStride;
  const KernelConfig plain;
  EXPECT_LT(sim::row_stream_bytes(100, unit, DeltaWidth::k8),
            sim::row_stream_bytes(100, plain, DeltaWidth::k8));
}

TEST(DistinctLines, CountsLineTransitions) {
  const std::vector<index_t> cols{0, 1, 2, 8, 9, 100};
  EXPECT_EQ(sim::distinct_lines(cols, 8), 3);
  EXPECT_EQ(sim::distinct_lines({}, 8), 0);
  const std::vector<index_t> one{5};
  EXPECT_EQ(sim::distinct_lines(one, 8), 1);
}

TEST(Simulate, ProducesPositiveRates) {
  const CsrMatrix m = gen::banded(20000, 500, 10, 91);
  for (const auto& machine : paper_platforms()) {
    const auto r = sim::simulate_spmv(m, machine, KernelConfig{});
    EXPECT_GT(r.run.seconds, 0.0) << machine.name;
    EXPECT_GT(r.run.gflops, 0.0) << machine.name;
    EXPECT_EQ(r.run.thread_seconds.size(), static_cast<std::size_t>(machine.threads()));
  }
}

TEST(Simulate, BandwidthNeverExceedsStream) {
  const CsrMatrix m = gen::fem_like(20000, 8, 8, 2000, 92);
  for (const auto& machine : paper_platforms()) {
    const auto r = sim::simulate_spmv(m, machine, KernelConfig{});
    const double roof = (r.run.fits_llc ? machine.stream_llc_gbs : machine.stream_main_gbs);
    EXPECT_LE(r.run.bandwidth_gbs, roof * 1.0001) << machine.name;
  }
}

TEST(Simulate, RegularizedAccessEliminatesMissLatency) {
  const CsrMatrix m = gen::random_uniform(20000, 16, 93);
  KernelConfig reg;
  reg.x_access = XAccess::kRegularized;
  const auto base = sim::simulate_spmv(m, knc(), KernelConfig{});
  const auto regular = sim::simulate_spmv(m, knc(), reg);
  // Scattered matrix: removing irregularity must speed things up notably.
  EXPECT_GT(regular.run.gflops, 1.2 * base.run.gflops);
}

TEST(Simulate, RegularMatrixGainsLittleFromRegularization) {
  const CsrMatrix m = gen::block_diagonal(30000, 16, 94);
  KernelConfig reg;
  reg.x_access = XAccess::kRegularized;
  const auto base = sim::simulate_spmv(m, knc(), KernelConfig{});
  const auto regular = sim::simulate_spmv(m, knc(), reg);
  EXPECT_LT(regular.run.gflops, 1.25 * base.run.gflops);
}

TEST(Simulate, PrefetchHidesLatencyOnScatteredMatrix) {
  const CsrMatrix m = gen::random_uniform(20000, 16, 95);
  KernelConfig pf;
  pf.prefetch = true;
  const auto base = sim::simulate_spmv(m, knc(), KernelConfig{});
  const auto with_pf = sim::simulate_spmv(m, knc(), pf);
  EXPECT_GT(with_pf.run.gflops, base.run.gflops);
}

TEST(Simulate, PrefetchSlowsDownRegularMatrix) {
  // Paper Fig. 1: prefetching can cause slowdowns on regular matrices.
  const CsrMatrix m = gen::block_diagonal(30000, 16, 96);
  KernelConfig pf;
  pf.prefetch = true;
  const auto base = sim::simulate_spmv(m, knc(), KernelConfig{});
  const auto with_pf = sim::simulate_spmv(m, knc(), pf);
  EXPECT_LE(with_pf.run.gflops, base.run.gflops * 1.02);
}

TEST(Simulate, ImbalancedMatrixHasSkewedThreadTimes) {
  const CsrMatrix skew = gen::circuit_like(40000, 3, 6, 30000, 97);
  const auto r = sim::simulate_spmv(skew, knc(), KernelConfig{});
  const double med = stats::median(r.run.thread_seconds);
  const double mx = stats::max(r.run.thread_seconds);
  EXPECT_GT(mx, 2.0 * med);
}

TEST(Simulate, BalancedMatrixHasUniformThreadTimes) {
  const CsrMatrix m = gen::banded(40000, 300, 9, 98);
  const auto r = sim::simulate_spmv(m, knc(), KernelConfig{});
  const double med = stats::median(r.run.thread_seconds);
  const double mx = stats::max(r.run.thread_seconds);
  EXPECT_LT(mx, 1.5 * med);
}

TEST(Simulate, DecompositionFixesLongRowImbalance) {
  const CsrMatrix skew = gen::circuit_like(40000, 3, 6, 30000, 99);
  KernelConfig dec;
  dec.decomposed = true;
  const auto base = sim::simulate_spmv(skew, knc(), KernelConfig{});
  const auto fixed = sim::simulate_spmv(skew, knc(), dec);
  EXPECT_GT(fixed.run.gflops, base.run.gflops);
  EXPECT_GT(fixed.long_rows, 0);
}

TEST(Simulate, DynamicScheduleHelpsUnevenRows) {
  const CsrMatrix m = gen::powerlaw(60000, 1.6, 3000, 100);
  KernelConfig rows;
  rows.schedule = Schedule::kStaticRows;
  KernelConfig dyn;
  dyn.schedule = Schedule::kDynamicChunks;
  const auto r_rows = sim::simulate_spmv(m, knc(), rows);
  const auto r_dyn = sim::simulate_spmv(m, knc(), dyn);
  EXPECT_GE(r_dyn.run.gflops, r_rows.run.gflops);
}

TEST(Simulate, DeltaFallsBackWhenIncompressible) {
  const CsrMatrix m = gen::random_uniform(120000, 4, 101);  // gaps > 64k likely
  KernelConfig delta;
  delta.delta = true;
  const auto r = sim::simulate_spmv(m, knc(), delta);
  EXPECT_FALSE(r.delta_applied);
  const auto base = sim::simulate_spmv(m, knc(), KernelConfig{});
  EXPECT_NEAR(r.run.gflops, base.run.gflops, 1e-9);
}

TEST(Simulate, DeltaReducesTrafficWhenCompressible) {
  const CsrMatrix m = gen::banded(60000, 100, 10, 102);
  KernelConfig delta;
  delta.delta = true;
  const auto base = sim::simulate_spmv(m, knc(), KernelConfig{});
  const auto comp = sim::simulate_spmv(m, knc(), delta);
  EXPECT_TRUE(comp.delta_applied);
  EXPECT_LT(comp.run.total_dram_bytes, base.run.total_dram_bytes);
}

TEST(Simulate, SameWorkloadFasterOnKnlThanKnc) {
  // KNL's MCDRAM bandwidth dominates for bandwidth-bound matrices.
  const CsrMatrix m = gen::fem_like(20000, 8, 8, 2000, 103);
  const auto on_knc = sim::simulate_spmv(m, knc(), KernelConfig{});
  const auto on_knl = sim::simulate_spmv(m, knl(), KernelConfig{});
  EXPECT_GT(on_knl.run.gflops, on_knc.run.gflops);
}

TEST(Simulate, LatencyHurtsLessOnBroadwell) {
  // Same scattered matrix: relative gain from regularization is larger on
  // KNC (expensive misses, weak overlap) than on Broadwell.
  const CsrMatrix m = gen::random_uniform(20000, 16, 104);
  KernelConfig reg;
  reg.x_access = XAccess::kRegularized;
  const double gain_knc = sim::simulate_spmv(m, knc(), reg).run.gflops /
                          sim::simulate_spmv(m, knc(), KernelConfig{}).run.gflops;
  const double gain_bdw = sim::simulate_spmv(m, broadwell(), reg).run.gflops /
                          sim::simulate_spmv(m, broadwell(), KernelConfig{}).run.gflops;
  EXPECT_GT(gain_knc, gain_bdw);
}

// --- simulate_spmv_batch ----------------------------------------------------

void expect_bitwise(const sim::SimResult& got, const sim::SimResult& want,
                    const std::string& what) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(got.run.gflops), bits(want.run.gflops)) << what;
  EXPECT_EQ(bits(got.run.seconds), bits(want.run.seconds)) << what;
  ASSERT_EQ(got.run.thread_seconds.size(), want.run.thread_seconds.size()) << what;
  for (std::size_t t = 0; t < got.run.thread_seconds.size(); ++t) {
    EXPECT_EQ(bits(got.run.thread_seconds[t]), bits(want.run.thread_seconds[t]))
        << what << " thread " << t;
  }
  EXPECT_EQ(got.delta_applied, want.delta_applied) << what;
  EXPECT_EQ(got.long_rows, want.long_rows) << what;
}

TEST(Simulate, DecomposedWithoutLongRowsEqualsPlain) {
  const CsrMatrix m = gen::stencil27(16, 16, 16);
  KernelConfig plain;
  plain.vectorized = true;
  KernelConfig dec = plain;
  dec.decomposed = true;
  const auto b = sim::simulate_spmv(m, knc(), dec);
  EXPECT_EQ(b.long_rows, 0);
  expect_bitwise(b, sim::simulate_spmv(m, knc(), plain), "decomposed vs plain");
}

/// Every distinct config Autotuner::evaluate simulates for `m` (baseline,
/// the 15 sweep sets, the 16 class-mask selections) plus the P_ML and P_CMP
/// micro-benchmark configs.
std::vector<KernelConfig> tuner_configs(const CsrMatrix& m, const MachineSpec& machine) {
  std::vector<KernelConfig> out;
  const auto add = [&](const KernelConfig& c) {
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  };
  add(sim::baseline_config());
  for (const auto& combo : combined_optimization_sets()) add(config_for(combo));
  const auto fv = extract_features(m, {machine.llc_bytes, machine.values_per_line()});
  for (std::uint32_t mask = 0; mask < 16; ++mask) {
    add(config_for(select_optimizations(BottleneckSet::from_mask(mask), fv, ImbPolicy{})));
  }
  for (const auto x : {XAccess::kRegularized, XAccess::kUnitStride}) {
    KernelConfig c = sim::baseline_config();
    c.x_access = x;
    add(c);
  }
  return out;
}

void expect_batch_matches_single(const CsrMatrix& m, const std::string& name) {
  const MachineSpec machine = knc();
  const auto cfgs = tuner_configs(m, machine);
  std::vector<sim::SimResult> single;
  single.reserve(cfgs.size());
  for (const auto& c : cfgs) single.push_back(sim::simulate_spmv(m, machine, c));
  for (const int threads : {1, 4}) {
    const TeamSize team{threads};
    const auto batch = sim::simulate_spmv_batch(m, machine, cfgs);
    ASSERT_EQ(batch.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      expect_bitwise(batch[i], single[i],
                     name + " " + cfgs[i].describe() + " @" + std::to_string(threads));
    }
  }
}

TEST(SimBatch, EqualsSingleOnStencilWithoutLongRows) {
  const CsrMatrix m = gen::stencil27(16, 16, 16);
  ASSERT_EQ(DecomposedCsrMatrix::decompose(m).long_rows().size(), 0U);
  expect_batch_matches_single(m, "stencil27");
}

TEST(SimBatch, EqualsSingleOnPowerLawWithLongRows) {
  const CsrMatrix m = gen::powerlaw(20000, 1.6, 3000, 105);
  ASSERT_GT(DecomposedCsrMatrix::decompose(m).long_rows().size(), 0U);
  expect_batch_matches_single(m, "powerlaw");
}

TEST(SimBatch, EqualsSingleOnCircuitWithDenseRows) {
  // Scattered dense rows: the cooperative long-row pass reads the x caches
  // without a warm-up replay, so a cache left dirty by an earlier config
  // would show here.
  const CsrMatrix m = gen::circuit_like(20000, 3, 4, 12000, 109);
  expect_batch_matches_single(m, "circuit");
}

TEST(SimBatch, EqualsSingleOnDeltaIncompressible) {
  const CsrMatrix m = gen::random_uniform(80000, 4, 106);
  ASSERT_FALSE(DeltaCsrMatrix::pick_width(m).has_value());
  expect_batch_matches_single(m, "incompressible");
}

TEST(SimBatch, BatchOfOneIndependentOfTeamSize) {
  // A batch of one static config splits into one item per modeled thread;
  // a dynamic config stays whole. Either way the result must not depend on
  // the host team, and must equal its slot in a larger batch.
  const CsrMatrix m = gen::circuit_like(20000, 3, 4, 12000, 110);
  ASSERT_GT(DecomposedCsrMatrix::decompose(m).long_rows().size(), 0U);
  KernelConfig dec;
  dec.decomposed = true;
  dec.vectorized = true;
  KernelConfig rows = dec;
  rows.schedule = sim::Schedule::kStaticRows;
  KernelConfig dyn = dec;
  dyn.schedule = sim::Schedule::kDynamicChunks;
  const std::vector<KernelConfig> cfgs{dec, rows, dyn};
  const auto together = sim::simulate_spmv_batch(m, knc(), cfgs);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    for (const int threads : {1, 4}) {
      const TeamSize team{threads};
      const auto one = sim::simulate_spmv_batch(m, knc(), std::span{&cfgs[i], 1});
      ASSERT_EQ(one.size(), 1U);
      EXPECT_EQ(one.front().long_rows, together[i].long_rows);
      expect_bitwise(one.front(), together[i],
                     cfgs[i].describe() + " alone @" + std::to_string(threads));
    }
  }
}

TEST(SimBatch, DuplicateConfigsGetIdenticalSlots) {
  const CsrMatrix m = gen::circuit_like(20000, 3, 4, 12000, 107);
  KernelConfig dec;
  dec.decomposed = true;
  dec.vectorized = true;
  const std::vector<KernelConfig> cfgs{dec, KernelConfig{}, dec, dec, KernelConfig{}};
  const TeamSize team{4};
  const auto batch = sim::simulate_spmv_batch(m, knc(), cfgs);
  ASSERT_EQ(batch.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    expect_bitwise(batch[i], sim::simulate_spmv(m, knc(), cfgs[i]), "slot " + std::to_string(i));
  }
}

TEST(SimBatch, EmptySpanYieldsNoResults) {
  const CsrMatrix m = gen::stencil27(4, 4, 4);
  EXPECT_TRUE(sim::simulate_spmv_batch(m, knc(), {}).empty());
}

TEST(SimBatch, ForwardsSimulationErrors) {
  const CsrMatrix m = gen::stencil27(8, 8, 8);
  MachineSpec bad = knc();
  bad.cores = 0;  // no modeled threads: the batch refuses before replaying
  const std::vector<KernelConfig> cfgs(4);
  const TeamSize team{4};
  EXPECT_THROW((void)sim::simulate_spmv_batch(m, bad, cfgs), std::invalid_argument);
  EXPECT_THROW((void)sim::simulate_spmv(m, bad, KernelConfig{}), std::invalid_argument);
}

TEST(SimBatch, NestedInsideParallelRegionMatches) {
  const CsrMatrix m = gen::powerlaw(20000, 1.6, 3000, 108);
  KernelConfig dec;
  dec.decomposed = true;
  KernelConfig delta;
  delta.delta = true;
  const std::vector<KernelConfig> cfgs{KernelConfig{}, dec, delta};
  const auto want = sim::simulate_spmv_batch(m, knc(), cfgs);
  std::vector<std::vector<sim::SimResult>> got(2);
#pragma omp parallel for num_threads(2) schedule(static, 1)
  for (int i = 0; i < 2; ++i) {
    got[static_cast<std::size_t>(i)] = sim::simulate_spmv_batch(m, knc(), cfgs);
  }
  for (const auto& g : got) {
    ASSERT_EQ(g.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) expect_bitwise(g[i], want[i], cfgs[i].describe());
  }
}

TEST(DynamicChunkRows, ReasonableGranularity) {
  EXPECT_GE(sim::dynamic_chunk_rows(100, 228), 16);
  EXPECT_EQ(sim::dynamic_chunk_rows(1 << 20, 64), (1 << 20) / (64 * 16));
}

}  // namespace
}  // namespace sparta
