#include "tuner/optimizer.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validate_tuner.hpp"
#include "common/timer.hpp"
#include "kernels/kernel_registry.hpp"
#include "sparse/properties.hpp"

namespace sparta {

std::vector<obs::NamedValue> named_features(const FeatureVector& fv) {
  std::vector<obs::NamedValue> out;
  out.reserve(kNumFeatures);
  for (int i = 0; i < kNumFeatures; ++i) {
    const auto f = static_cast<Feature>(i);
    out.emplace_back(std::string{feature_name(f)}, fv[f]);
  }
  return out;
}

std::vector<obs::NamedValue> named_bounds(const PerfBounds& b) {
  std::vector<obs::NamedValue> out{
      {"P_CSR", b.p_csr},   {"P_MB", b.p_mb},     {"P_ML", b.p_ml},
      {"P_IMB", b.p_imb},   {"P_CMP", b.p_cmp},   {"P_peak", b.p_peak},
      {"t_csr_seconds", b.t_csr_seconds},
  };
  if (b.p_csr > 0.0) {
    // The ratios the Fig. 4 rules actually compare against the thresholds.
    out.emplace_back("P_MB/P_CSR", b.p_mb / b.p_csr);
    out.emplace_back("P_ML/P_CSR", b.p_ml / b.p_csr);
    out.emplace_back("P_IMB/P_CSR", b.p_imb / b.p_csr);
    out.emplace_back("P_CMP/P_CSR", b.p_cmp / b.p_csr);
  }
  return out;
}

std::vector<std::string> named_classes(BottleneckSet s) {
  std::vector<std::string> out;
  for (int i = 0; i < kNumBottlenecks; ++i) {
    const auto b = static_cast<Bottleneck>(i);
    if (s.contains(b)) out.push_back(to_string(b));
  }
  return out;
}

std::string to_string(TunePolicy policy) {
  switch (policy) {
    case TunePolicy::kProfile:
      return "profile";
    case TunePolicy::kFeature:
      return "feature";
    case TunePolicy::kOracle:
      return "oracle";
    case TunePolicy::kTrivialSingle:
      return "trivial-single";
    case TunePolicy::kTrivialCombined:
      return "trivial-combined";
    case TunePolicy::kHostProfile:
      return "profile-host";
  }
  return "?";
}

Autotuner::Autotuner(MachineSpec machine, ProfileThresholds thresholds, CostModelParams cost,
                     ImbPolicy imb)
    : machine_(std::move(machine)), thresholds_(thresholds), cost_(cost), imb_(imb) {}

FeatureExtractionConfig Autotuner::extraction_config() const {
  return {machine_.llc_bytes, machine_.values_per_line()};
}

double Autotuner::Evaluation::gflops_for(const sim::KernelConfig& cfg) const {
  for (const auto& [c, g] : perf) {
    if (c == cfg) return g;
  }
  throw std::out_of_range{"Evaluation: config '" + cfg.describe() + "' was not simulated"};
}

double Autotuner::Evaluation::seconds_at(double gflops) const {
  return gflops > 0.0 ? 2.0 * static_cast<double>(nnz) / gflops * 1e-9 : 0.0;
}

Autotuner::Evaluation Autotuner::measure(const std::string& name, const CsrMatrix& m,
                                         bool host) const {
  Evaluation e;
  e.name = name;
  e.nrows = m.nrows();
  e.nnz = m.nnz();
  e.symmetric = m.nrows() == m.ncols() && is_symmetric(m);
  {
    const obs::ScopedPhase phase{e.phases, "bounds"};
    e.bounds = host ? measure_bounds_host(m, machine_, cost_.timing_iters)
                    : measure_bounds(m, machine_);
  }
  {
    const obs::ScopedPhase phase{e.phases, "features"};
    e.features = extract_features(m, extraction_config());
  }
  // measure_bounds already ran the baseline (mask 0 / empty sweep entry).
  e.perf.emplace_back(sim::baseline_config(), e.bounds.p_csr);
  return e;
}

void Autotuner::simulate(Evaluation& e, const CsrMatrix& m,
                         std::span<const sim::KernelConfig> candidates) const {
  {
    const obs::ScopedPhase phase{e.phases, "simulate"};
    // Configs not yet rated, in first-use order, as one batch.
    std::vector<sim::KernelConfig> fresh;
    for (const auto& cfg : candidates) {
      const bool rated = std::any_of(e.perf.begin(), e.perf.end(),
                                     [&](const auto& entry) { return entry.first == cfg; });
      if (!rated && std::find(fresh.begin(), fresh.end(), cfg) == fresh.end()) {
        fresh.push_back(cfg);
      }
    }
    const auto runs = sim::simulate_spmv_batch(m, machine_, fresh);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      e.perf.emplace_back(fresh[i], runs[i].run.gflops);
    }
  }
  auto& reg = obs::Registry::global();
  reg.counter("tuner.evaluate.calls").add();
  double total_micros = 0.0;
  for (const auto& p : e.phases) total_micros += p.micros;
  reg.histogram("tuner.evaluate.micros").record(total_micros);
}

Autotuner::Evaluation Autotuner::evaluate(const std::string& name, const CsrMatrix& m) const {
  Evaluation e = measure(name, m);
  // All 15 sweep candidates, then every class-mask selection the
  // classifiers could emit.
  const auto& combos = combined_optimization_sets();
  std::vector<sim::KernelConfig> candidates;
  candidates.reserve(combos.size() + 16);
  for (const auto& combo : combos) candidates.push_back(config_for(combo));
  for (std::uint32_t mask = 0; mask < 16; ++mask) {
    const auto classes = BottleneckSet::from_mask(mask);
    candidates.push_back(config_for(select_optimizations(classes, e.features, imb_)));
  }
  simulate(e, m, candidates);
  e.combo_gflops.reserve(combos.size());
  for (std::size_t i = 0; i < combos.size(); ++i) {
    e.combo_gflops.push_back(e.gflops_for(candidates[i]));
  }
  for (std::uint32_t mask = 0; mask < 16; ++mask) {
    e.class_mask_gflops[mask] = e.gflops_for(candidates[combos.size() + mask]);
  }
  return e;
}

double Autotuner::setup_seconds(const std::vector<Optimization>& ops, double t_csr) const {
  // Conversion work runs through the parallel inspector pipeline and is
  // divided by its modeled speedup; the fixed JIT cost is serial codegen.
  double conversion = 0.0;
  bool codegen = false;
  for (Optimization o : ops) {
    switch (o) {
      case Optimization::kDeltaVec:
        conversion += cost_.delta_setup_spmv * t_csr;
        codegen = true;
        break;
      case Optimization::kPrefetch:
        codegen = true;
        break;
      case Optimization::kDecompose:
        conversion += cost_.decompose_setup_spmv * t_csr;
        break;
      case Optimization::kAutoSched:
        conversion += cost_.autosched_setup_spmv * t_csr;
        break;
      case Optimization::kUnrollVec:
        codegen = true;
        break;
    }
  }
  if (codegen) conversion += cost_.codegen_setup_spmv * t_csr;
  double sec = conversion / cost_.inspector_speedup();
  if (codegen) sec += cost_.jit_fixed_seconds;
  return sec;
}

OptimizationPlan Autotuner::plan_from_classes(const Evaluation& e, BottleneckSet classes,
                                              std::string strategy,
                                              double selection_seconds) const {
  OptimizationPlan plan;
  plan.strategy = std::move(strategy);
  plan.classes = classes;
  plan.optimizations = select_optimizations(classes, e.features, imb_);
  plan.config = config_for(plan.optimizations);
  plan.gflops = e.gflops_for(plan.config);
  plan.t_spmv_seconds = e.seconds_at(plan.gflops);
  plan.t_pre_seconds = selection_seconds + setup_seconds(plan.optimizations, e.bounds.t_csr_seconds);
  return plan;
}

BottleneckSet Autotuner::classify(const Evaluation& e, const FeatureClassifier* fc) const {
  return fc != nullptr ? fc->classify(e.features) : classify_profile(e.bounds, thresholds_);
}

OptimizationPlan Autotuner::plan_profile_impl(const Evaluation& e) const {
  const auto classes = classify(e, nullptr);
  // Selection cost: the profiling phase times the baseline and the two
  // micro-benchmarks, timing_iters runs each (P_MB/P_peak are analytic and
  // P_IMB falls out of the baseline run — paper §III-B).
  const double t_ml_bench = e.seconds_at(e.bounds.p_ml);
  const double t_cmp_bench = e.seconds_at(e.bounds.p_cmp);
  const double selection =
      cost_.timing_iters * (e.bounds.t_csr_seconds + t_ml_bench + t_cmp_bench);
  return plan_from_classes(e, classes, "profile", selection);
}

OptimizationPlan Autotuner::plan_feature_impl(const Evaluation& e,
                                              const FeatureClassifier& fc) const {
  const auto classes = classify(e, &fc);
  // Selection cost: feature extraction (tree query is O(log n), negligible).
  const bool needs_nnz_pass =
      std::any_of(fc.config().subset.begin(), fc.config().subset.end(), [](Feature f) {
        return f == Feature::kClusteringAvg || f == Feature::kMissesAvg;
      });
  const double selection = (needs_nnz_pass ? cost_.feat_extract_full_spmv
                                           : cost_.feat_extract_linear_spmv) *
                           e.bounds.t_csr_seconds / cost_.inspector_speedup();
  return plan_from_classes(e, classes, "feature", selection);
}

namespace {

/// The classifier a kFeature call needs; throws when the options lack it.
const FeatureClassifier& classifier_of(const TuneOptions& opts) {
  if (opts.classifier == nullptr) {
    throw std::invalid_argument{
        "Autotuner: TunePolicy::kFeature requires TuneOptions::classifier"};
  }
  return *opts.classifier;
}

/// Symmetric-storage rider: an exactly symmetric matrix runs its plan on
/// lower-triangle+diagonal storage whenever the selected config is
/// compatible (never next to the rewrites it is exclusive with, and the
/// scatter/reduce windows need a static schedule).
sim::KernelConfig with_symmetric_rider(const Autotuner::Evaluation& e, sim::KernelConfig c) {
  if (e.symmetric && !c.delta && !c.decomposed && c.schedule != sim::Schedule::kDynamicChunks) {
    c.symmetric = true;
  }
  return c;
}

/// The sweep rates the oracle and trivial plans read; only evaluate()
/// simulates the sweep.
const std::vector<double>& sweep_gflops(const Autotuner::Evaluation& e) {
  if (e.combo_gflops.size() != combined_optimization_sets().size()) {
    throw std::out_of_range{"Evaluation: the candidate sweep was not simulated"};
  }
  return e.combo_gflops;
}

}  // namespace

OptimizationPlan Autotuner::plan_oracle_impl(const Evaluation& e) const {
  OptimizationPlan plan;
  plan.strategy = "oracle";
  plan.gflops = e.bounds.p_csr;
  plan.config = sim::baseline_config();
  const auto& combos = combined_optimization_sets();
  const auto& rates = sweep_gflops(e);
  for (std::size_t i = 0; i < combos.size(); ++i) {
    if (rates[i] > plan.gflops) {
      plan.gflops = rates[i];
      plan.optimizations = combos[i];
      plan.config = config_for(combos[i]);
    }
  }
  plan.t_spmv_seconds = e.seconds_at(plan.gflops);
  plan.t_pre_seconds = 0.0;  // the oracle is a hypothetical upper bound
  return plan;
}

OptimizationPlan Autotuner::plan_trivial_impl(const Evaluation& e, bool combined) const {
  OptimizationPlan plan;
  plan.strategy = combined ? "trivial-combined" : "trivial-single";
  plan.gflops = e.bounds.p_csr;
  plan.config = sim::baseline_config();
  const auto& combos = combined_optimization_sets();
  const auto& rates = sweep_gflops(e);
  const std::size_t limit = combined ? combos.size() : single_optimization_sets().size();
  double sweep_seconds = 0.0;
  for (std::size_t i = 0; i < limit; ++i) {
    // Pay for this trial: setup + timed runs of the candidate.
    sweep_seconds += setup_seconds(combos[i], e.bounds.t_csr_seconds) +
                     cost_.timing_iters * e.seconds_at(rates[i]);
    if (rates[i] > plan.gflops) {
      plan.gflops = rates[i];
      plan.optimizations = combos[i];
      plan.config = config_for(combos[i]);
    }
  }
  plan.t_spmv_seconds = e.seconds_at(plan.gflops);
  plan.t_pre_seconds = sweep_seconds;
  return plan;
}

OptimizationPlan Autotuner::plan_host_impl(const Evaluation& e) const {
  OptimizationPlan plan;
  plan.strategy = to_string(TunePolicy::kHostProfile);
  plan.classes = classify(e, nullptr);
  plan.optimizations = select_optimizations(plan.classes, e.features, imb_);
  plan.config = with_symmetric_rider(e, config_for(plan.optimizations));
  plan.gflops = e.gflops_for(plan.config);
  plan.t_spmv_seconds = e.seconds_at(plan.gflops);
  // Measured preprocessing: profiling, feature extraction and the kernel's
  // preparation. Timing the shipped kernel is not part of it.
  for (const auto& phase : e.phases) {
    if (phase.name == "bounds" || phase.name == "features" || phase.name == "prepare") {
      plan.t_pre_seconds += phase.micros * 1e-6;
    }
  }
  return plan;
}

OptimizationPlan Autotuner::plan(const Evaluation& e, const TuneOptions& opts) const {
  if (opts.policy == TunePolicy::kHostProfile) {
    throw std::invalid_argument{
        "Autotuner: TunePolicy::kHostProfile plans are measured; only tune() makes one"};
  }
  return build_plan(e, opts);
}

OptimizationPlan Autotuner::build_plan(const Evaluation& e, const TuneOptions& opts,
                                       std::vector<obs::NamedValue> extra) const {
  std::vector<obs::PhaseCost> plan_phases;
  OptimizationPlan p;
  {
    const obs::ScopedPhase phase{plan_phases, "plan"};
    switch (opts.policy) {
      case TunePolicy::kProfile:
        p = plan_profile_impl(e);
        break;
      case TunePolicy::kFeature:
        p = plan_feature_impl(e, classifier_of(opts));
        break;
      case TunePolicy::kOracle:
        p = plan_oracle_impl(e);
        break;
      case TunePolicy::kTrivialSingle:
        p = plan_trivial_impl(e, /*combined=*/false);
        break;
      case TunePolicy::kTrivialCombined:
        p = plan_trivial_impl(e, /*combined=*/true);
        break;
      case TunePolicy::kHostProfile:
        p = plan_host_impl(e);
        break;
    }
    // The symmetric-storage rider on a modeled plan: the reported rate is
    // left at the simulated general-kernel value — conservative, since the
    // halved matrix stream only helps — but the storage build is charged to
    // t_pre like any other conversion (the oracle stays a zero-overhead
    // hypothetical). A host plan already ships and times the rider config,
    // and its measured t_pre includes the storage build.
    const sim::KernelConfig shipped = with_symmetric_rider(e, p.config);
    if (shipped != p.config) {
      p.config = shipped;
      if (p.strategy != "oracle") {
        p.t_pre_seconds +=
            cost_.sym_setup_spmv * e.bounds.t_csr_seconds / cost_.inspector_speedup();
      }
    }
  }
  auto& reg = obs::Registry::global();
  reg.counter("tuner.plan.calls").add();
  reg.counter("tuner.plan." + p.strategy).add();
  if (opts.collect_trace) {
    auto t = std::make_shared<obs::TuneTrace>();
    t->matrix = opts.name.empty() ? e.name : opts.name;
    t->strategy = p.strategy;
    t->nrows = e.nrows;
    t->nnz = e.nnz;
    t->features = named_features(e.features);
    t->bounds = named_bounds(e.bounds);
    t->classes = named_classes(p.classes);
    t->class_mask = p.classes.mask();
    t->optimizations.reserve(p.optimizations.size());
    for (Optimization o : p.optimizations) t->optimizations.push_back(to_string(o));
    t->config = p.config.describe();
    t->gflops = p.gflops;
    t->t_spmv_seconds = p.t_spmv_seconds;
    t->t_pre_seconds = p.t_pre_seconds;
    t->phases = e.phases;
    t->phases.insert(t->phases.end(), plan_phases.begin(), plan_phases.end());
    t->extra = std::move(extra);
    p.trace = std::move(t);
  }
  // Decision-consistency contract: the composed config must match the
  // optimization list, and the timing-model outputs must be sane.
  SPARTA_CHECK_STRUCTURE(p);
  return p;
}

OptimizationPlan Autotuner::tune(const CsrMatrix& m, const TuneOptions& opts) const {
  if (opts.policy == TunePolicy::kHostProfile) {
    // Measured bounds select the config; the shipped kernel (after the
    // symmetric rider) is prepared once and timed as a mean over
    // timing_iters calls after one warm-up call, the bounds' statistic.
    Evaluation e = measure(opts.name, m, /*host=*/true);
    const auto shipped = with_symmetric_rider(
        e, config_for(select_optimizations(classify(e, nullptr), e.features, imb_)));
    std::optional<kernels::PreparedSpmv> prepared;
    {
      const obs::ScopedPhase phase{e.phases, "prepare"};
      prepared.emplace(m, kernels::SpmvOptions{.config = shipped, .threads = machine_.cores});
    }
    double seconds = 0.0;
    {
      const obs::ScopedPhase phase{e.phases, "measure"};
      aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()), 1.0);
      aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
      seconds = mean_seconds([&] { prepared->run(x, y); }, cost_.timing_iters);
    }
    // The measured rate replaces the baseline entry measure() recorded: the
    // plan reports the kernel it ships.
    e.perf.assign(
        1, {shipped, seconds > 0.0 ? 2.0 * static_cast<double>(m.nnz()) / seconds * 1e-9 : 0.0});
    return build_plan(e, opts, {{"prep_seconds", prepared->prep_seconds()}});
  }
  if (opts.policy != TunePolicy::kProfile && opts.policy != TunePolicy::kFeature) {
    return plan(evaluate(opts.name, m), opts);
  }
  // A profile or feature plan reads the bounds, the features and the rate of
  // the one config its classes select — the only config simulated here.
  const FeatureClassifier* fc =
      opts.policy == TunePolicy::kFeature ? &classifier_of(opts) : nullptr;
  Evaluation e = measure(opts.name, m);
  const auto selected = config_for(select_optimizations(classify(e, fc), e.features, imb_));
  simulate(e, m, std::span{&selected, 1});
  return build_plan(e, opts);
}

TrainingSample Autotuner::label(const Evaluation& e) const {
  return {e.features, classify_profile(e.bounds, thresholds_)};
}

TrainingSample Autotuner::label(const CsrMatrix& m) const {
  TrainingSample s;
  s.features = extract_features(m, extraction_config());
  s.labels = classify_profile(measure_bounds(m, machine_), thresholds_);
  return s;
}

}  // namespace sparta
