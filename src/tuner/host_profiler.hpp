// Host profiling path: the paper's methodology executed with *real* kernels
// and wall-clock timers on the machine this binary runs on — the deployment
// mode a downstream user of the library cares about. The modeled platforms
// (sim/) reproduce the paper's testbeds; this module applies the identical
// bound-and-bottleneck pipeline to live hardware:
//   P_CSR / P_IMB — timed baseline run with per-part durations
//   P_ML          — the same timed kernel on a regularized-colind view
//   P_CMP         — timed run of the unit-stride kernel
//   P_MB / P_peak — analytic, anchored on the measured STREAM bandwidth
// Every timed figure (the four bounds and tune_host's t_spmv) is the mean
// wall time of one call over `iterations` calls after one warm-up call, so
// the ratios classify_profile() compares (P_ML/P_CSR, P_CMP/P_CSR,
// P_IMB/P_CSR) divide like by like. classify_profile() then consumes the
// measured bounds unchanged.
#pragma once

#include "machine/stream_probe.hpp"
#include "tuner/optimizer.hpp"

namespace sparta {

struct HostProfileOptions {
  /// Threads for the measurement kernels (0 = all available).
  int threads = 0;
  /// SpMV iterations per timed benchmark (paper uses 64).
  int iterations = 16;
  /// Reuse a previous STREAM probe instead of re-measuring (probe costs
  /// tens of ms; pass the result when profiling many matrices).
  const StreamResult* stream = nullptr;
  /// Matrix label recorded in the trace.
  std::string name{};
  /// Attach an obs::TuneTrace (measured bounds, classes, per-phase wall
  /// microseconds) to the returned plan.
  bool collect_trace = obs::enabled();
};

/// Measure all per-class bounds on the host.
PerfBounds measure_bounds_host(const CsrMatrix& m, const HostProfileOptions& options = {});

/// Full profile-guided tuning on the host: measure bounds, classify, select
/// and *prepare* the optimized kernel, then time it. The returned plan's
/// gflops/t_spmv are real measurements and t_pre is the real wall-clock
/// preprocessing cost (profiling + conversion), so the amortization formula
/// can be applied to live data.
OptimizationPlan tune_host(const CsrMatrix& m, const HostProfileOptions& options = {},
                           const ProfileThresholds& thresholds = {},
                           const ImbPolicy& imb = {});

}  // namespace sparta
