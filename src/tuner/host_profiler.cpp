#include "tuner/host_profiler.hpp"

#include <omp.h>

#include <algorithm>
#include <optional>

#include "common/statistics.hpp"
#include "common/timer.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/microbench_kernels.hpp"

namespace sparta {

namespace {

int resolve_threads(const HostProfileOptions& options) {
  return options.threads > 0 ? options.threads : std::max(1, omp_get_max_threads());
}

double gflops(const CsrMatrix& m, double seconds) {
  return seconds > 0.0 ? 2.0 * static_cast<double>(m.nnz()) / seconds * 1e-9 : 0.0;
}

/// Mean wall time of one call over `iterations` calls after one warm-up
/// call: the statistic time_csr_parts reports.
template <class Fn>
double mean_seconds(Fn&& fn, int iterations) {
  fn();
  Timer t;
  for (int i = 0; i < iterations; ++i) fn();
  return t.seconds() / iterations;
}

}  // namespace

PerfBounds measure_bounds_host(const CsrMatrix& m, const HostProfileOptions& options) {
  const int threads = resolve_threads(options);
  const auto parts = partition_balanced_nnz(m, threads);

  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()), 1.0);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));

  PerfBounds b;

  // Baseline with per-thread timing (warm-up iteration excluded).
  const kernels::CsrView source = kernels::make_view(m);
  kernels::time_csr_parts(source, x, y, parts, 1);
  const auto timed = kernels::time_csr_parts(source, x, y, parts, options.iterations);
  b.t_csr_seconds = timed.seconds;
  b.thread_seconds = timed.part_seconds;
  b.p_csr = gflops(m, timed.seconds);

  std::vector<double> busy;
  for (double t : timed.part_seconds) {
    if (t > 1e-3 * timed.seconds) busy.push_back(t);
  }
  const double t_median = stats::median(busy.empty() ? timed.part_seconds : busy);
  b.p_imb = t_median > 0.0 ? gflops(m, t_median) : b.p_csr;

  // P_ML: the same kernel on the regularized-colind view.
  const auto reg_colind = kernels::regularized_colind(m);
  const kernels::CsrView regularized{m.rowptr(), reg_colind, m.values(), m.nrows()};
  kernels::time_csr_parts(regularized, x, y, parts, 1);
  b.p_ml = gflops(m, kernels::time_csr_parts(regularized, x, y, parts, options.iterations)
                         .seconds);

  // P_CMP: the unit-stride kernel.
  b.p_cmp = gflops(m, mean_seconds([&] { kernels::spmv_unit_stride(m, x, y, parts); },
                                   options.iterations));

  // P_MB / P_peak from the measured STREAM bandwidth.
  StreamResult probe;
  if (options.stream != nullptr) {
    probe = *options.stream;
  } else {
    probe = stream_triad_probe(3);
  }
  MachineSpec host = host_machine(false);
  host.stream_main_gbs = probe.main_gbs;
  host.stream_llc_gbs = std::max(probe.llc_gbs, probe.main_gbs);
  b.p_mb = p_mb_bound(m, host);
  b.p_peak = p_peak_bound(m, host);
  return b;
}

OptimizationPlan tune_host(const CsrMatrix& m, const HostProfileOptions& options,
                           const ProfileThresholds& thresholds, const ImbPolicy& imb) {
  const int threads = resolve_threads(options);
  OptimizationPlan plan;
  plan.strategy = "profile-host";
  std::vector<obs::PhaseCost> phases;

  Timer preprocessing;
  PerfBounds bounds;
  {
    const obs::ScopedPhase phase{phases, "bounds"};
    bounds = measure_bounds_host(m, options);
  }
  FeatureVector features;
  {
    const obs::ScopedPhase phase{phases, "features"};
    plan.classes = classify_profile(bounds, thresholds);
    features = extract_features(m);
    plan.optimizations = select_optimizations(plan.classes, features, imb);
    plan.config = config_for(plan.optimizations);
  }

  // Prepare (format conversion etc.) — part of the preprocessing bill.
  std::optional<kernels::PreparedSpmv> prepared;
  {
    const obs::ScopedPhase phase{phases, "prepare"};
    prepared.emplace(m, kernels::SpmvOptions{.config = plan.config, .threads = threads});
  }
  plan.t_pre_seconds = preprocessing.seconds();

  // Measure the optimized kernel.
  {
    const obs::ScopedPhase phase{phases, "measure"};
    aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()), 1.0);
    aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
    plan.t_spmv_seconds = mean_seconds([&] { prepared->run(x, y); }, options.iterations);
  }
  plan.gflops = plan.t_spmv_seconds > 0.0
                    ? 2.0 * static_cast<double>(m.nnz()) / plan.t_spmv_seconds * 1e-9
                    : 0.0;

  if (options.collect_trace) {
    auto t = std::make_shared<obs::TuneTrace>();
    t->matrix = options.name;
    t->strategy = plan.strategy;
    t->nrows = m.nrows();
    t->nnz = m.nnz();
    t->features = named_features(features);
    t->bounds = named_bounds(bounds);
    t->classes = named_classes(plan.classes);
    t->class_mask = plan.classes.mask();
    t->optimizations.reserve(plan.optimizations.size());
    for (Optimization o : plan.optimizations) t->optimizations.push_back(to_string(o));
    t->config = plan.config.describe();
    t->gflops = plan.gflops;
    t->t_spmv_seconds = plan.t_spmv_seconds;
    t->t_pre_seconds = plan.t_pre_seconds;
    t->phases = std::move(phases);
    t->extra.emplace_back("prep_seconds", prepared->prep_seconds());
    plan.trace = std::move(t);
  }
  return plan;
}

}  // namespace sparta
