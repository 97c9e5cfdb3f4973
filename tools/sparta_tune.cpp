// sparta_tune — command-line front end of the optimizer.
//
//   sparta_tune [--platform knc|knl|broadwell|host]
//               [--strategy profile|feature|oracle|trivial-single|trivial-combined|
//                profile-host]
//               [--model model.txt] [--run] [--threads N]
//               [--telemetry] [--trace FILE] (matrix.mtx | suite:<name>)
//
// Classifies the matrix on the chosen platform, prints the plan (classes,
// optimizations, expected rate, preprocessing cost), and with --run executes
// the optimized host kernel against the reference for validation and timing.
// --strategy feature requires a model file from sparta_train (or falls back
// to training a small corpus on the fly). --strategy profile-host (with
// --platform host only) measures the bounds and the shipped kernel on this
// machine with --threads threads; its rate and t_pre are wall-clock figures.
//
// --trace FILE appends the full decision record as one JSON line (obs::
// TuneTrace: features, bound ratios, classes, per-phase microseconds, plus
// t_vendor_seconds) to FILE ("-" for stdout); the Table V amortization
// numbers are re-derivable from the trace alone. --telemetry enables the
// obs registry (equivalent to SPARTA_TELEMETRY=1) and dumps its counters on
// exit.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>

#include "common/cli.hpp"
#include "gen/suite.hpp"
#include "sparta.hpp"

namespace {

sparta::MachineSpec platform_by_name(const std::string& name) {
  using namespace sparta;
  if (name == "knc") return knc();
  if (name == "knl") return knl();
  if (name == "broadwell") return broadwell();
  if (name == "host") return host_machine(true);
  throw std::invalid_argument{"unknown platform '" + name + "'"};
}

std::optional<sparta::TunePolicy> policy_by_name(const std::string& name) {
  using sparta::TunePolicy;
  if (name == "profile") return TunePolicy::kProfile;
  if (name == "feature") return TunePolicy::kFeature;
  if (name == "oracle") return TunePolicy::kOracle;
  if (name == "trivial-single") return TunePolicy::kTrivialSingle;
  if (name == "trivial-combined") return TunePolicy::kTrivialCombined;
  if (name == "profile-host") return TunePolicy::kHostProfile;
  return std::nullopt;
}

void write_trace(const std::string& path, const sparta::obs::TuneTrace& trace) {
  if (path == "-") {
    std::cout << trace.to_jsonl() << "\n";
    return;
  }
  std::ofstream out{path, std::ios::app};
  if (!out) {
    std::cerr << "error: cannot open trace file '" << path << "'\n";
    std::exit(1);
  }
  out << trace.to_jsonl() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sparta;
  CliParser cli{{"run", "telemetry", "help"},
                {"platform", "strategy", "model", "threads", "corpus", "trace"}};
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.has("help") || cli.positional().size() != 1) {
    std::cerr << "usage: sparta_tune [--platform knc|knl|broadwell|host]\n"
                 "                   [--strategy profile|feature|oracle|trivial-single|\n"
                 "                    trivial-combined|profile-host] [--model file]\n"
                 "                   [--run] [--threads N]\n"
                 "                   [--telemetry] [--trace FILE] (matrix.mtx | suite:<name>)\n"
                 "  --strategy profile-host\n"
                 "               profile with real kernels and wall-clock timers on this\n"
                 "               machine (needs --platform host; --threads sets its cores)\n"
                 "  --telemetry  enable the obs registry (= SPARTA_TELEMETRY=1) and print\n"
                 "               its counters on exit\n"
                 "  --trace      append the tuning decision record as JSONL to FILE\n"
                 "               ('-' for stdout)\n";
    return cli.has("help") ? 0 : 2;
  }

  if (cli.has("telemetry")) obs::set_enabled(true);
  const auto trace_path = cli.value("trace");

  const std::string strategy = cli.value_or("strategy", "profile");
  const auto policy = policy_by_name(strategy);
  if (!policy) {
    std::cerr << "error: unknown strategy '" << strategy << "'\n";
    return 2;
  }
  const std::string platform = cli.value_or("platform", "knl");
  const bool measured = *policy == TunePolicy::kHostProfile;
  if (measured && (platform != "host" || cli.int_or("threads", 1) < 1)) {
    std::cerr << "error: --strategy profile-host measures this machine; it needs "
                 "--platform host and --threads >= 1\n";
    return 2;
  }
  MachineSpec machine = platform_by_name(platform);
  if (measured) machine.cores = cli.int_or("threads", machine.cores);
  const Autotuner tuner{machine};

  const std::string source = cli.positional().front();
  const CsrMatrix matrix = source.rfind("suite:", 0) == 0
                               ? gen::make_suite_matrix(source.substr(6))
                               : mm::read_csr_file(source);
  std::cout << "matrix: " << matrix.nrows() << " x " << matrix.ncols() << ", " << matrix.nnz()
            << " nonzeros\n";

  const auto dump_telemetry = [&] {
    if (!cli.has("telemetry")) return;
    obs::print_table(std::cout, obs::Registry::global().snapshot());
  };

  TuneOptions opts{.policy = *policy, .name = source};
  opts.collect_trace = trace_path.has_value() || obs::enabled();
  std::optional<FeatureClassifier> fc;
  if (*policy == TunePolicy::kFeature) {
    fc = [&] {
      if (const auto model = cli.value("model")) {
        return FeatureClassifier::load_file(*model);
      }
      const int corpus_n = cli.int_or("corpus", 60);
      std::cout << "(no --model given; training on a " << corpus_n
                << "-matrix corpus — use sparta_train to do this once)\n";
      std::vector<TrainingSample> corpus;
      for (auto& m : gen::training_population(corpus_n)) {
        corpus.push_back(tuner.label(m.matrix));
      }
      return FeatureClassifier::train(corpus);
    }();
    opts.classifier = &*fc;
  }
  std::optional<Autotuner::Evaluation> evaluation;
  if (!measured) evaluation = tuner.evaluate(source, matrix);
  const OptimizationPlan plan = measured ? tuner.tune(matrix, opts) : tuner.plan(*evaluation, opts);

  std::cout << "platform:        " << machine.name << " (" << machine.threads()
            << " threads)\n"
            << "strategy:        " << plan.strategy << "\n"
            << "classes:         " << to_string(plan.classes) << "\n"
            << "optimizations:   " << to_string(plan.optimizations) << "\n"
            << "kernel variant:  " << plan.config.describe() << "\n"
            << (measured ? "measured" : "expected") << " rate:   " << Table::num(plan.gflops)
            << " GFLOP/s";
  if (evaluation) std::cout << " (baseline " << Table::num(evaluation->bounds.p_csr) << ")";
  std::cout << "\npreprocessing:   " << Table::num(plan.t_pre_seconds * 1e3, 3)
            << (measured ? " ms (measured)\n" : " ms (model)\n");

  if (trace_path && plan.trace) {
    obs::TuneTrace trace = *plan.trace;
    if (evaluation) {
      // Attach the modeled vendor baseline so the amortization analysis
      // (Table V: N_iters,min = t_pre / (t_vendor - t_optimizer)) closes
      // from the trace alone.
      const double vendor_gflops = vendor::vendor_csr_gflops(matrix, machine);
      trace.extra.emplace_back("t_vendor_seconds", evaluation->seconds_at(vendor_gflops));
    }
    write_trace(*trace_path, trace);
  }

  if (cli.has("run")) {
    const int threads = cli.int_or("threads", host_machine().cores);
    const kernels::PreparedSpmv spmv{matrix,
                                     kernels::SpmvOptions{.config = plan.config, .threads = threads}};
    aligned_vector<value_t> x(static_cast<std::size_t>(matrix.ncols()), 1.0);
    aligned_vector<value_t> y(static_cast<std::size_t>(matrix.nrows()));
    aligned_vector<value_t> want(y.size());
    Timer t;
    constexpr int kIters = 20;
    for (int i = 0; i < kIters; ++i) spmv.run(x, y);
    const double sec = t.seconds() / kIters;
    spmv_reference(matrix, x, want);
    double max_err = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) max_err = std::max(max_err, std::abs(y[i] - want[i]));
    std::cout << "host run:        "
              << Table::num(2.0 * static_cast<double>(matrix.nnz()) / sec * 1e-9, 2)
              << " GFLOP/s over " << kIters << " iterations with " << threads
              << " threads; max |error| = " << max_err << "\n";
    dump_telemetry();
    return max_err < 1e-9 ? 0 : 1;
  }
  dump_telemetry();
  return 0;
}
