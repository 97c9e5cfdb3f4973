// Shared plumbing for the figure/table benches: suite evaluation, training
// corpus labeling and the speedup summaries the paper reports.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/statistics.hpp"
#include "common/timer.hpp"
#include "gen/suite.hpp"
#include "tuner/feature_classifier.hpp"
#include "tuner/optimizer.hpp"

namespace sparta::bench {

/// Parse the shared bench flags and apply them: `--threads N` pins the
/// OpenMP thread count (overriding OMP_NUM_THREADS); `--telemetry` enables
/// the obs registry (= SPARTA_TELEMETRY=1) and dumps its merged counters to
/// stderr at exit. Recognized flags are stripped from argc/argv so binaries
/// with their own parsers (google-benchmark) can chain theirs afterwards.
/// Call first in main().
void init(int& argc, char** argv);

/// OpenMP thread count the bench kernels will use: the --threads value if
/// given, otherwise omp_get_max_threads(). Printed by print_header.
int effective_threads();

/// Size of the training corpus (paper: 210 matrices). Override with the
/// SPARTA_CORPUS environment variable for quick runs.
int corpus_size();

/// Evaluate every suite analogue on one platform (the expensive step; a few
/// seconds per platform).
std::vector<Autotuner::Evaluation> evaluate_suite(const Autotuner& tuner);

/// Build and label the training corpus on one platform.
std::vector<TrainingSample> labeled_corpus(const Autotuner& tuner, int count);

/// Train the default (full-feature-subset) classifier from a corpus.
FeatureClassifier train_default_classifier(const std::vector<TrainingSample>& corpus);

/// Arithmetic mean of per-matrix speedups a/b.
double mean_speedup(const std::vector<double>& numer, const std::vector<double>& denom);

/// Print a standard bench header (title, paper item, effective threads).
void print_header(const std::string& title, const std::string& paper_item);

/// Median wall seconds of the two sides of a ratio gate.
struct PairedMedians {
  double a = 0.0;
  double b = 0.0;
};

/// Time `a` and `b` alternately, call by call (a, b, a, b, ...), `reps`
/// calls each, and return the median of each side. Both sides then see the
/// same stretch of machine noise, so the ratio of the medians is what a gate
/// compares (two best-of windows taken at different times let one noisy
/// window fail it). Each callable returns a value folded into `sink` to keep
/// its work observable.
template <class FnA, class FnB>
PairedMedians time_interleaved(int reps, double& sink, FnA&& a, FnB&& b) {
  std::vector<double> ta, tb;
  for (int r = 0; r < reps; ++r) {
    const Timer t_a;
    sink += a();
    ta.push_back(t_a.seconds());
    const Timer t_b;
    sink += b();
    tb.push_back(t_b.seconds());
  }
  return {stats::median(ta), stats::median(tb)};
}

}  // namespace sparta::bench
