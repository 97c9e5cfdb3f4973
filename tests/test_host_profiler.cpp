// Tests for the host profiling path: real timed bounds, the timed baseline
// kernel, and end-to-end host tuning through Autotuner's kHostProfile
// policy. These run real kernels on whatever machine executes the suite, so
// assertions stick to invariants that hold regardless of the hardware.
#include <gtest/gtest.h>

#include <stdexcept>

#include "gen/generators.hpp"
#include "kernels/microbench_kernels.hpp"
#include "tuner/optimizer.hpp"

namespace sparta {
namespace {

/// The host spec with a fixed team size and no STREAM probe.
MachineSpec host_with(int cores) {
  MachineSpec host = host_machine(false);
  host.cores = cores;
  return host;
}

/// An Autotuner measuring on `cores` threads with `iterations` timed calls.
Autotuner host_tuner(int cores, int iterations, ProfileThresholds thresholds = {}) {
  return Autotuner{host_with(cores), thresholds, CostModelParams{.timing_iters = iterations}};
}

TuneOptions host_policy() { return {.policy = TunePolicy::kHostProfile}; }

TEST(SpmvTimed, ProducesCorrectResultAndTimings) {
  const CsrMatrix m = gen::banded(4000, 100, 8, 801);
  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()), 1.0);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto parts = partition_balanced_nnz(m, 4);
  const auto run = kernels::time_csr_parts(kernels::make_view(m), x, y, parts, 3);

  aligned_vector<value_t> want(y.size());
  spmv_reference(m, x, want);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], want[i], 1e-12);

  EXPECT_GT(run.seconds, 0.0);
  ASSERT_EQ(run.part_seconds.size(), 4u);
  for (double t : run.part_seconds) {
    EXPECT_GE(t, 0.0);
    // A partition's busy time cannot exceed the total by more than noise.
    EXPECT_LE(t, run.seconds * 4.0 + 1e-3);
  }
}

TEST(HostBounds, InvariantsHold) {
  const CsrMatrix m = gen::banded(20000, 400, 10, 802);
  const auto b = measure_bounds_host(m, host_with(2), 3);
  EXPECT_GT(b.p_csr, 0.0);
  EXPECT_GT(b.p_ml, 0.0);
  EXPECT_GT(b.p_cmp, 0.0);
  EXPECT_GT(b.t_csr_seconds, 0.0);
  EXPECT_EQ(b.thread_seconds.size(), 2u);
  // Analytic roofs preserve their ordering regardless of measurement noise.
  EXPECT_GT(b.p_peak, b.p_mb);
  // The imbalance bound never falls meaningfully below the baseline.
  EXPECT_GE(b.p_imb, 0.5 * b.p_csr);
}

TEST(HostBounds, ReusesProvidedStreamProbe) {
  const CsrMatrix m = gen::banded(8000, 200, 8, 803);
  // Pin both bandwidth regimes on the spec to the same value so P_MB is
  // exactly determined by byte counts regardless of whether the working set
  // is classified as LLC-resident.
  MachineSpec host = host_with(2);
  host.stream_main_gbs = 10.0;
  host.stream_llc_gbs = 10.0;
  const auto b = measure_bounds_host(m, host, 2);
  // With a pinned 10 GB/s bandwidth, P_MB is exactly determined by bytes.
  const double xy = static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
  const double expect =
      2.0 * static_cast<double>(m.nnz()) /
      ((static_cast<double>(m.bytes()) + xy) / (10.0 * 1e9)) * 1e-9;
  EXPECT_NEAR(b.p_mb, expect, 1e-9);
}

TEST(HostTune, ReturnsExecutablePlanWithRealCosts) {
  const CsrMatrix m = gen::powerlaw(20000, 1.7, 500, 804);
  const auto plan = host_tuner(2, 3).tune(m, host_policy());
  EXPECT_EQ(plan.strategy, "profile-host");
  EXPECT_GT(plan.gflops, 0.0);
  EXPECT_GT(plan.t_spmv_seconds, 0.0);
  EXPECT_GT(plan.t_pre_seconds, 0.0);
  // The plan's optimizations must be consistent with its classes.
  for (Optimization o : plan.optimizations) {
    EXPECT_TRUE(plan.classes.contains(target_class(o)));
  }
}

TEST(HostTune, EmptyClassSetKeepsBaselineConfig) {
  // A tiny diagonal matrix has no meaningful headroom anywhere; whatever the
  // classifier decides, the returned config must be runnable.
  const CsrMatrix m = gen::diagonal(5000);
  const auto plan = host_tuner(2, 2).tune(m, host_policy());
  EXPECT_GT(plan.gflops, 0.0);
}

TEST(HostTune, SymmetricStencilShipsSymmetricStorage) {
  // MB and IMB are switched off (their optimizations exclude symmetric
  // storage), so whatever the host measures, the selected config takes the
  // symmetric-storage rider.
  const CsrMatrix m = gen::stencil27(16, 16, 16);
  const auto tuner = host_tuner(2, 2, ProfileThresholds{.t_imb = 1e30, .approx = 1e30});
  const auto plan = tuner.tune(m, host_policy());
  EXPECT_TRUE(plan.config.symmetric) << plan.config.describe();
  EXPECT_FALSE(plan.classes.contains(Bottleneck::kMB));
  EXPECT_FALSE(plan.classes.contains(Bottleneck::kIMB));
  EXPECT_GT(plan.gflops, 0.0);
}

TEST(HostTune, TraceRecordsMeasuredPhases) {
  const CsrMatrix m = gen::banded(6000, 100, 8, 805);
  TuneOptions opts = host_policy();
  opts.name = "banded";
  opts.collect_trace = true;
  const auto plan = host_tuner(2, 2).tune(m, opts);
  ASSERT_NE(plan.trace, nullptr);
  const obs::TuneTrace& t = *plan.trace;
  EXPECT_EQ(t.matrix, "banded");
  EXPECT_EQ(t.strategy, "profile-host");
  EXPECT_EQ(t.config, plan.config.describe());
  for (const char* phase : {"bounds", "features", "prepare", "measure", "plan"}) {
    EXPECT_GT(t.phase_micros(phase), 0.0) << phase;
  }
  // t_pre is the wall time of the bounds, features and prepare phases.
  const double phases_seconds =
      (t.phase_micros("bounds") + t.phase_micros("features") + t.phase_micros("prepare")) * 1e-6;
  EXPECT_NEAR(plan.t_pre_seconds, phases_seconds, 1e-12 * phases_seconds);
  ASSERT_EQ(t.extra.size(), 1u);
  EXPECT_EQ(t.extra[0].first, "prep_seconds");
  EXPECT_GE(t.extra[0].second, 0.0);
}

TEST(HostTune, PlanFromAnEvaluationThrows) {
  const CsrMatrix m = gen::banded(2000, 50, 6, 806);
  const Autotuner tuner{host_with(2)};
  const auto e = tuner.evaluate("banded", m);
  EXPECT_THROW((void)tuner.plan(e, host_policy()), std::invalid_argument);
}

}  // namespace
}  // namespace sparta
