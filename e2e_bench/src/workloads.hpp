// The benchmark's three workloads. Each is a single-process, closed-loop
// caller: it issues one request, waits for the answer, then issues the next.
// Inputs are generated (and, for mtx-stream, written as .mtx files) in the
// constructor, which is not timed; run_rep() runs the whole workload once
// and times only set-up (read, plan, prepare, engine construction) and the
// iterate phase. Correctness checks run between requests, outside every
// timer, and count into RepResult::failed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kernels/kernel_config.hpp"
#include "machine/machine_spec.hpp"
#include "obs/trace.hpp"
#include "sparse/csr.hpp"
#include "spans.hpp"
#include "tuner/optimizer.hpp"
#include "tuner/plan_cache.hpp"

namespace e2e {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  /// Directory for generated .mtx inputs and the span file.
  std::string work_dir;
};

/// One distinct matrix a workload solves with, as the layer probes need it.
struct MatrixUse {
  std::string name;
  const sparta::CsrMatrix* matrix = nullptr;
  sparta::kernels::KernelConfig config;
  /// Per rep: tune calls on this matrix, and engine iterations on it.
  std::int64_t requests = 0;
  std::int64_t iters = 0;
};

struct RepResult {
  double setup_s = 0.0;
  double solve_s = 0.0;
  /// Latency of each request (set-up it triggered plus its solve).
  std::vector<double> request_s;
  std::int64_t iters = 0;
  int attempted = 0;
  int failed = 0;
  double max_rel_residual = 0.0;
  int plan_hits = 0;
  int plan_misses = 0;
  /// Evaluation phases (bounds/features/simulate/plan) summed over misses;
  /// only filled in the traced run, whose tune calls collect a trace.
  std::vector<sparta::obs::PhaseCost> miss_phases;
  double prep_seconds = 0.0;  // sum of PreparedSpmv::prep_seconds()
  double read_bytes = 0.0;    // .mtx bytes read

  [[nodiscard]] double tts() const { return setup_s + solve_s; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual RepResult run_rep(Tracer& tracer, int rep) = 0;
  /// Typical seconds of one rep on a 4-core host; fixes how many reps a run
  /// of a given length makes, so every run of a workload does the same work.
  [[nodiscard]] virtual double nominal_rep_seconds() const = 0;
  /// Operand width of the solves (1 for CG/BiCGSTAB, 4 for PPR batches).
  [[nodiscard]] virtual int width() const = 0;
  /// Distinct matrices and the plans the last rep chose for them.
  [[nodiscard]] std::vector<MatrixUse> uses() const { return uses_; }
  /// Index into uses() of the matrix the kernel probes run on (the largest).
  [[nodiscard]] std::size_t representative() const;
  /// "config" for one-matrix workloads; "config:count,..." (sorted) otherwise.
  [[nodiscard]] std::string plan_summary() const;
  /// Whether requests read Matrix Market files (else the reader is probed).
  [[nodiscard]] virtual bool reads_files() const { return false; }
  /// Plan cache of the last rep (for the plan-hit probe).
  [[nodiscard]] sparta::tuner::PlanCache* last_plan_cache() const { return plans_.get(); }
  /// The tuner every rep plans with; part of the plan-cache key.
  [[nodiscard]] const sparta::Autotuner& tuner() const { return tuner_; }
  /// Human-readable input description (sizes, ratio to L3).
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  std::vector<MatrixUse> uses_;
  std::unique_ptr<sparta::tuner::PlanCache> plans_;
  /// Fixed host spec (no bandwidth probe): the plan is a function of the
  /// matrix alone.
  sparta::Autotuner tuner_{sparta::host_machine(false)};
};

std::unique_ptr<Workload> make_workload(const Config& cfg);

}  // namespace e2e
