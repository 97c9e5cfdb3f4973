// e2e_bench: time-to-solution benchmark program.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 --threads T
//             --work-dir DIR [--expect-plan PLAN]
//
// --trace 0 repeats the workload for about S seconds with no spans and
// prints the end-to-end metrics. --trace 1 runs it untraced and then traced
// (about S/2 seconds each), probes each layer on the workload's matrices,
// writes the spans to DIR/spans-<workload>-<seed>.jsonl and prints the
// per-layer metrics. Informational lines start with "# "; the last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
// code is 0 only if every correctness check passed and the plan matches
// --expect-plan.
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/statistics.hpp"
#include "common/timer.hpp"
#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "machine/machine_spec.hpp"
#include "machine/stream_probe.hpp"
#include "obs/json.hpp"
#include "sparse/matrix_market.hpp"
#include "tuner/optimizer.hpp"
#include "tuner/plan_cache.hpp"
#include "vendor/vendor_csr.hpp"
#include "workloads.hpp"

namespace {

using e2e::Config;
using e2e::RepResult;
using e2e::Stage;
using e2e::Tracer;
using e2e::Workload;
using sparta::CsrMatrix;
using sparta::index_t;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void info(const std::string& line) { std::printf("# %s\n", line.c_str()); }

std::string num(double v) {
  std::string s;
  sparta::obs::json::append_number(s, v);
  return s;
}

/// Nearest-rank percentile: always one of the samples, so p50 and p90 each
/// stay inside one request population (warm or cold) instead of mixing them.
double nearest_rank(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double median_of(const std::vector<RepResult>& reps, double (*field)(const RepResult&)) {
  std::vector<double> xs;
  for (const RepResult& r : reps) xs.push_back(field(r));
  return sparta::stats::median(xs);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Median wall seconds of `fn` after one untimed call: at least 5 calls,
/// more until `budget_s` is spent (at most 200).
template <class F>
double median_seconds(F&& fn, double budget_s = 0.25) {
  fn();
  std::vector<double> ts;
  const sparta::Timer total;
  while (ts.size() < 5 || (total.seconds() < budget_s && ts.size() < 200)) {
    const sparta::Timer t;
    fn();
    ts.push_back(t.seconds());
  }
  return sparta::stats::median(ts);
}

std::size_t l3_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::size_t>(v);
  std::ifstream is{"/sys/devices/system/cpu/cpu0/cache/index3/size"};
  std::size_t kib = 0;
  if (is >> kib) return kib << 10;
  return std::size_t{32} << 20;
}

/// STREAM triad a = b + s c with each array 4x the L3, first-touched by the
/// threads that stream it; median GB/s of 5 passes (24 bytes per element).
double triad_gbs(int threads, std::size_t array_bytes) {
  const std::size_t n = array_bytes / sizeof(double);
  const std::unique_ptr<double[]> a{new double[n]}, b{new double[n]}, c{new double[n]};
  double* ap = a.get();
  double* bp = b.get();
  double* cp = c.get();
#pragma omp parallel for default(none) shared(n, ap, bp, cp) num_threads(threads) schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    ap[i] = 0.0;
    bp[i] = 1.0;
    cp[i] = 2.0;
  }
  std::vector<double> gbs;
  for (int pass = 0; pass < 5; ++pass) {
    const sparta::Timer t;
#pragma omp parallel for default(none) shared(n, ap, bp, cp) num_threads(threads) schedule(static)
    for (std::size_t i = 0; i < n; ++i) ap[i] = bp[i] + 3.0 * cp[i];
    gbs.push_back(3.0 * static_cast<double>(array_bytes) / t.seconds() / 1e9);
  }
  if (ap[n / 2] != 7.0) throw std::logic_error{"triad: wrong result"};
  return sparta::stats::median(gbs);
}

std::vector<double> random_block(index_t rows, int width, std::uint64_t seed) {
  sparta::Xoshiro256 rng{seed};
  std::vector<double> v(static_cast<std::size_t>(rows) * static_cast<std::size_t>(width));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Max over entries of |y - ref| / max(1, |ref|) between a one-shot run of
/// `k` (width `width`) and the reference SpMV, column by column.
double one_shot_error(const CsrMatrix& m, const sparta::kernels::PreparedSpmv& k, int width) {
  const auto n = static_cast<std::size_t>(m.nrows());
  const auto w = static_cast<std::size_t>(width);
  std::vector<double> x = random_block(m.ncols(), width, 99);
  std::vector<double> y(n * w), xc(static_cast<std::size_t>(m.ncols())), ref(n);
  k.run(sparta::kernels::ConstDenseBlockView{x.data(), m.ncols(), width, width},
        sparta::kernels::DenseBlockView{y.data(), m.nrows(), width, width});
  double err = 0.0;
  for (std::size_t c = 0; c < w; ++c) {
    for (std::size_t i = 0; i < xc.size(); ++i) xc[i] = x[i * w + c];
    sparta::spmv_reference(m, xc, ref);
    for (std::size_t i = 0; i < n; ++i) {
      err = std::max(err, std::abs(y[i * w + c] - ref[i]) / std::max(1.0, std::abs(ref[i])));
    }
  }
  return err;
}

/// Median one-shot PreparedSpmv::run seconds at `width`.
double run_seconds(const CsrMatrix& m, const sparta::kernels::PreparedSpmv& k, int width,
                   double budget_s = 0.25) {
  std::vector<double> x = random_block(m.ncols(), width, 7);
  std::vector<double> y(static_cast<std::size_t>(m.nrows()) * static_cast<std::size_t>(width));
  const sparta::kernels::ConstDenseBlockView xv{x.data(), m.ncols(), width, width};
  const sparta::kernels::DenseBlockView yv{y.data(), m.nrows(), width, width};
  return median_seconds([&] { k.run(xv, yv); }, budget_s);
}

double kernel_config_id(const sparta::kernels::KernelConfig& c) {
  // Bit per optimization flag, then the schedule and x-access enums.
  unsigned id = (c.vectorized ? 1U : 0U) | (c.unrolled ? 2U : 0U) | (c.prefetch ? 4U : 0U) |
                (c.delta ? 8U : 0U) | (c.decomposed ? 16U : 0U) | (c.symmetric ? 32U : 0U);
  id |= static_cast<unsigned>(c.schedule) << 6U;
  id |= static_cast<unsigned>(c.x_access) << 8U;
  return static_cast<double>(id);
}

/// Starts the OpenMP pool and touches the engine/kernel code once.
void warm_up(int threads) {
  const CsrMatrix a = sparta::gen::stencil27(12, 12, 12);
  const sparta::engine::SolverEngine eng{a, sparta::kernels::KernelConfig{},
                                         sparta::engine::EngineOptions{.threads = threads}};
  std::vector<double> b(static_cast<std::size_t>(a.nrows()), 1.0), x(b.size(), 0.0);
  (void)eng.cg(b, x);
}

/// Runs as many reps as fit `budget_s` at the workload's nominal rep time
/// (at least one); the count depends on the budget only, not on the clock.
std::vector<RepResult> run_reps(Workload& w, Tracer& tr, double budget_s, int first_rep) {
  const auto count = std::max(1, static_cast<int>(budget_s / w.nominal_rep_seconds()));
  std::vector<RepResult> reps;
  for (int i = 0; i < count; ++i) reps.push_back(w.run_rep(tr, first_rep + i));
  return reps;
}

struct Tally {
  int attempted = 0;
  int failed = 0;
  double max_rel_residual = 0.0;

  void add(const std::vector<RepResult>& reps) {
    for (const RepResult& r : reps) {
      attempted += r.attempted;
      failed += r.failed;
      max_rel_residual = std::max(max_rel_residual, r.max_rel_residual);
    }
  }
};

void print_reps(const char* label, const std::vector<RepResult>& reps) {
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    info(std::string{label} + " rep " + std::to_string(i) + ": setup " + num(r.setup_s) +
         " s, solve " + num(r.solve_s) + " s, iters " + std::to_string(r.iters) + ", plan hits " +
         std::to_string(r.plan_hits) + "/" + std::to_string(r.plan_hits + r.plan_misses) +
         ", failed " + std::to_string(r.failed) + "/" + std::to_string(r.attempted));
  }
}

std::vector<Metric> end_to_end(const std::vector<RepResult>& reps) {
  // Percentiles per pass, then the median over passes: each pass has the
  // same mix of cold (set-up-carrying) and warm requests.
  auto request_ms = [&](double p) {
    std::vector<double> xs;
    for (const RepResult& r : reps) xs.push_back(nearest_rank(r.request_s, p) * 1e3);
    return sparta::stats::median(xs);
  };
  return {
      {"setup_s", median_of(reps, [](const RepResult& r) { return r.setup_s; }), "s"},
      {"solve_s", median_of(reps, [](const RepResult& r) { return r.solve_s; }), "s"},
      {"time_to_solution_s", median_of(reps, [](const RepResult& r) { return r.tts(); }), "s"},
      {"request_p50_ms", request_ms(50.0), "ms"},
      {"request_p90_ms", request_ms(90.0), "ms"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

/// Writes the leading rows of `m` (at most 1M nonzeros) as .mtx, then times
/// reading it back; returns {seconds, file bytes}.
std::pair<double, double> reader_probe(Tracer& tr, const CsrMatrix& m, const std::string& dir) {
  index_t rows = 0;
  while (rows < m.nrows() && m.rowptr()[static_cast<std::size_t>(rows) + 1] <= 1000000) ++rows;
  const auto end = static_cast<std::ptrdiff_t>(m.rowptr()[static_cast<std::size_t>(rows)]);
  const CsrMatrix slice{
      rows, m.ncols(),
      sparta::numa_vector<sparta::offset_t>(m.rowptr().begin(), m.rowptr().begin() + rows + 1),
      sparta::numa_vector<index_t>(m.colind().begin(), m.colind().begin() + end),
      sparta::numa_vector<double>(m.values().begin(), m.values().begin() + end)};
  const std::string path = dir + "/probe-slice.mtx";
  sparta::mm::write_file(path, slice);
  const auto bytes = static_cast<double>(std::filesystem::file_size(path));
  Stage s{tr, "sparse.mm_read"};
  const CsrMatrix back = sparta::mm::read_csr_file(path);
  const double seconds = s.finish();
  std::filesystem::remove(path);
  if (back.nnz() != slice.nnz()) throw std::logic_error{"reader probe: nnz mismatch"};
  return {seconds, bytes};
}

/// One-shot kernel timings of a matrix under its plan.
struct KernelTimes {
  double prepare_s = 0.0;  // preparation at the solve width
  double bytes_w = 0.0;    // computed bytes_per_run(width)
  double t_w = 0.0;        // median run at the solve width
  double t_1 = 0.0;        // width 1
  double t_4 = 0.0;        // width 4
  double t_w1t = 0.0;      // solve width, prepared for 1 thread
  double t_vendor = 0.0;   // vendor CSR, width 1
  double check_err = 0.0;  // max one-shot error against the reference
};

KernelTimes kernel_probe(Tracer& tr, const CsrMatrix& m, const sparta::kernels::KernelConfig& cfg,
                         int threads, int width) {
  auto prepared = [&](int t, int bw) {
    return std::make_unique<sparta::kernels::PreparedSpmv>(
        m, sparta::kernels::SpmvOptions{
               .config = cfg, .threads = t, .first_touch = true, .block_width = bw});
  };
  KernelTimes k;
  std::unique_ptr<sparta::kernels::PreparedSpmv> k_w, k_1, k_4, k_1t;
  {
    Stage s{tr, "kernels.prepare"};
    k_w = prepared(threads, width);
    k.prepare_s = s.finish();
  }
  k_1 = width == 1 ? nullptr : prepared(threads, 1);
  k_4 = width == 4 ? nullptr : prepared(threads, 4);
  k_1t = prepared(1, width);
  const sparta::kernels::PreparedSpmv& one = k_1 ? *k_1 : *k_w;
  const sparta::kernels::PreparedSpmv& four = k_4 ? *k_4 : *k_w;
  k.bytes_w = k_w->bytes_per_run(width);
  {
    Stage s{tr, "check.one_shot"};
    k.check_err = std::max(one_shot_error(m, *k_w, width), one_shot_error(m, one, 1));
  }
  {
    Stage s{tr, "kernels.run"};
    k.t_w = run_seconds(m, *k_w, width);
    k.t_1 = width == 1 ? k.t_w : run_seconds(m, one, 1);
    k.t_4 = width == 4 ? k.t_w : run_seconds(m, four, 4);
  }
  {
    Stage s{tr, "kernels.run_1t"};
    k.t_w1t = run_seconds(m, *k_1t, width);
  }
  {
    Stage s{tr, "vendor.run"};
    std::vector<double> x = random_block(m.ncols(), 1, 7);
    std::vector<double> y(static_cast<std::size_t>(m.nrows()));
    k.t_vendor = median_seconds([&] { sparta::vendor::vendor_csr_host(m, x, y, threads); });
  }
  return k;
}

/// The traced run: per-layer metrics from spans around the workload's calls
/// plus probes of each layer on the workload's own matrices.
std::vector<Metric> per_layer(const Config& cfg, Workload& w, Tally& tally) {
  const int threads = cfg.threads;
  const int width = w.width();
  Tracer off{false};
  const std::vector<RepResult> plain = run_reps(w, off, cfg.seconds / 2.0, 0);
  Tracer tr{true};
  const std::vector<RepResult> traced = run_reps(w, tr, cfg.seconds / 2.0, 1000);
  print_reps("untraced", plain);
  print_reps("traced", traced);
  tally.add(plain);
  tally.add(traced);
  const double ntraced = static_cast<double>(traced.size());
  const double tts_plain = median_of(plain, [](const RepResult& r) { return r.tts(); });
  const double tts_traced = median_of(traced, [](const RepResult& r) { return r.tts(); });
  const RepResult& last = traced.back();
  auto traced_mean = [&](double (*field)(const RepResult&)) {
    double sum = 0.0;
    for (const RepResult& r : traced) sum += field(r);
    return sum / ntraced;
  };

  auto layer = tr.totals();
  auto per_rep = [&](const char* name) { return layer[name].total_s / ntraced; };
  auto phase_s = [&](const char* name) {
    double micros = 0.0;
    for (const RepResult& r : traced) {
      for (const auto& p : r.miss_phases) {
        if (p.name == name) micros += p.micros;
      }
    }
    return micros * 1e-6 / ntraced;
  };

  // Probes run after the traced reps, each in its own span.
  tr.set_request("probe");
  const std::vector<e2e::MatrixUse> uses = w.uses();
  const e2e::MatrixUse& rep_use = uses[w.representative()];
  const CsrMatrix& m = *rep_use.matrix;
  const sparta::kernels::KernelConfig cfg_k = rep_use.config;

  // Reader: the workload's own reads, or a probe read of a row slice.
  double read_s = per_rep("sparse.mm_read");
  double read_bytes = last.read_bytes;
  if (!w.reads_files()) std::tie(read_s, read_bytes) = reader_probe(tr, m, cfg.work_dir);

  // Fingerprint cost per rep: each tune call fingerprints its matrix once.
  double fingerprint_s = 0.0;
  for (const e2e::MatrixUse& u : uses) {
    Stage s{tr, "tuner.fingerprint"};
    fingerprint_s += static_cast<double>(u.requests) *
                     median_seconds([&] { (void)sparta::tuner::fingerprint(*u.matrix); }, 0.02);
  }

  // Plan hit: the workload's own hits, or one re-tune of the representative
  // matrix on the last rep's cache.
  double plan_hit_s = per_rep("tuner.plan_hit");
  if (layer["tuner.plan_hit"].count == 0) {
    auto* cache = w.last_plan_cache();
    const auto before = cache->stats();
    Stage s{tr, "tuner.plan_hit"};
    (void)cache->tune(w.tuner(), m, sparta::TuneOptions{.collect_trace = true});
    plan_hit_s = s.finish();
    if (cache->stats().hits != before.hits + 1) throw std::logic_error{"plan-hit probe missed"};
  }

  // A fresh evaluation of the representative matrix: the exact count of
  // simulated configurations and the plan + prepare cost for break-even.
  const sparta::Autotuner& tuner = w.tuner();
  double plan_s = 0.0;
  std::size_t configs = 0;
  {
    Stage s{tr, "tuner.evaluate"};
    const auto e = tuner.evaluate(rep_use.name, m);
    configs = e.perf.size();
    (void)tuner.plan(e);
    plan_s = s.finish();
  }

  const KernelTimes k = kernel_probe(tr, m, cfg_k, threads, width);
  ++tally.attempted;
  if (!(k.check_err <= 1e-10)) ++tally.failed;

  // Iterate-phase split: one-shot SpMV time of every matrix at the solve
  // width, times the iterations spent on it, against the traced solve time.
  double spmv_in_solve_s = 0.0, flops = 0.0;
  for (const e2e::MatrixUse& u : uses) {
    if (u.iters == 0) continue;
    double t_u = k.t_w;
    if (u.matrix != &m) {
      Stage s{tr, "kernels.run"};
      const sparta::kernels::PreparedSpmv ku{
          *u.matrix, sparta::kernels::SpmvOptions{.config = u.config,
                                                  .threads = threads,
                                                  .first_touch = true,
                                                  .block_width = width}};
      t_u = run_seconds(*u.matrix, ku, width, 0.02);
    }
    spmv_in_solve_s += static_cast<double>(u.iters) * t_u;
    flops += 2.0 * static_cast<double>(u.matrix->nnz()) * width * static_cast<double>(u.iters);
  }
  const double solve_s = traced_mean([](const RepResult& r) { return r.solve_s; });
  const auto iters = static_cast<double>(last.iters);

  const std::size_t l3 = l3_bytes();
  double stream_gbs = 0.0;
  {
    Stage s{tr, "machine.triad"};
    stream_gbs = triad_gbs(threads, 4 * l3);
  }
  std::vector<double> lib_probe;
  {
    Stage s{tr, "machine.lib_probe"};
    for (int i = 0; i < 5; ++i) lib_probe.push_back(sparta::stream_triad_probe().main_gbs);
  }
  std::string probes;
  for (double g : lib_probe) probes += " " + num(g);
  info("stream_triad_probe() main GB/s:" + probes + "; triad arrays " +
       std::to_string(4 * l3 >> 20) + " MiB each, L3 " + std::to_string(l3 >> 20) + " MiB");

  const double gbps = k.bytes_w / k.t_w / 1e9;
  const double gain = k.t_vendor - k.t_1;
  const double break_even = gain > 0.0 ? (plan_s + k.prepare_s) / gain : -1.0;
  info("representative " + rep_use.name + ": plan " + cfg_k.describe() + ", break-even " +
       (gain > 0.0 ? num(break_even) + " SpMVs" : std::string{"never (tuned not faster)"}));
  info("one-shot vs reference max rel error " + num(k.check_err) + ", plan cache " +
       std::to_string(last.plan_hits) + " hits / " +
       std::to_string(last.plan_hits + last.plan_misses) + " tune calls (last traced rep)");
  for (const auto& [name, t] : tr.totals()) {
    info("span " + name + ": count " + std::to_string(t.count) + ", total " + num(t.total_s) +
         " s, self " + num(t.self_s) + " s");
  }
  const std::string span_path = cfg.work_dir + "/spans-" + cfg.workload + "-" +
                                std::to_string(cfg.seed) + ".jsonl";
  if (!tr.write_jsonl(span_path)) throw std::runtime_error{"cannot write " + span_path};
  info("spans written to " + span_path);

  tally.max_rel_residual = std::max(tally.max_rel_residual, k.check_err);
  const double hits = last.plan_hits, calls = last.plan_hits + last.plan_misses;
  return {
      {"sparse.mm_read_s", read_s, "s"},
      {"sparse.mm_read_mb_per_s", read_bytes / read_s / 1e6, "MB/s"},
      {"tuner.fingerprint_s", fingerprint_s, "s"},
      {"tuner.plan_hit_s", plan_hit_s, "s"},
      {"tuner.plan_cache_hit_ratio", hits / calls, "ratio"},
      {"tuner.plan_miss_s", per_rep("tuner.plan_miss"), "s"},
      {"tuner.evaluate.bounds_s", phase_s("bounds"), "s"},
      {"features.extract_s", phase_s("features"), "s"},
      {"sim.simulate_s", phase_s("simulate"), "s"},
      {"sim.configs_simulated", static_cast<double>(configs), "count"},
      {"kernels.prepare_s", per_rep("kernels.prepare"), "s"},
      {"kernels.prep_inner_s", traced_mean([](const RepResult& r) { return r.prep_seconds; }), "s"},
      {"kernels.config", kernel_config_id(cfg_k), "id"},
      {"kernels.matrix_bytes", k.bytes_w, "B"},
      {"kernels.spmv_ms", k.t_w * 1e3, "ms"},
      {"kernels.spmv_gbps", gbps, "GB/s"},
      {"kernels.stream_frac", gbps / stream_gbs, "ratio"},
      {"kernels.spmv_ms_1t", k.t_w1t * 1e3, "ms"},
      {"kernels.thread_speedup", k.t_w1t / k.t_w, "ratio"},
      {"kernels.spmm4_vs_4spmv", 4.0 * k.t_1 / k.t_4, "ratio"},
      {"vendor.spmv_ms", k.t_vendor * 1e3, "ms"},
      {"kernels.speedup_vs_vendor", k.t_vendor / k.t_1, "ratio"},
      {"tuner.break_even_iters", break_even, "iters"},
      {"engine.iters", iters, "count"},
      {"engine.iter_ms", solve_s / iters * 1e3, "ms"},
      {"engine.gflops", flops / solve_s / 1e9, "GFLOP/s"},
      {"engine.non_spmv_ms", (solve_s - spmv_in_solve_s) / iters * 1e3, "ms"},
      {"machine.stream_gbs", stream_gbs, "GB/s"},
      {"machine.lib_probe_main_gbs",
       *std::max_element(lib_probe.begin(), lib_probe.end()) -
           *std::min_element(lib_probe.begin(), lib_probe.end()),
       "GB/s"},
      {"check.max_rel_residual", 0.0, "ratio"},  // filled in by the caller
      {"obs.trace_overhead_frac", (tts_traced - tts_plain) / tts_plain, "ratio"},
      {"fail_frac", 0.0, "ratio"},  // filled in by the caller
  };
}

void usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1 --threads T "
               "--work-dir DIR [--expect-plan PLAN]\n");
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::string expect_plan;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(val);
    } else if (key == "--seconds") {
      cfg.seconds = std::stod(val);
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--threads") {
      cfg.threads = std::stoi(val);
    } else if (key == "--work-dir") {
      cfg.work_dir = val;
    } else if (key == "--expect-plan") {
      expect_plan = val;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || cfg.work_dir.empty() || cfg.threads < 1 || argc % 2 == 0) {
    usage();
    return 2;
  }
  try {
    omp_set_num_threads(cfg.threads);
    std::filesystem::create_directories(cfg.work_dir);
    info("workload " + cfg.workload + ", seed " + std::to_string(cfg.seed) + ", threads " +
         std::to_string(cfg.threads) + " (nproc " + std::to_string(omp_get_num_procs()) +
         "), seconds " + num(cfg.seconds) + ", trace " + (cfg.trace ? "1" : "0"));
    const std::unique_ptr<Workload> w = e2e::make_workload(cfg);
    info("inputs: " + w->describe());
    warm_up(cfg.threads);

    Tally tally;
    std::vector<Metric> metrics;
    if (cfg.trace) {
      metrics = per_layer(cfg, *w, tally);
    } else {
      Tracer off{false};
      const std::vector<RepResult> reps = run_reps(*w, off, cfg.seconds, 0);
      print_reps("untraced", reps);
      tally.add(reps);
      metrics = end_to_end(reps);
    }

    const std::string plan = w->plan_summary();
    const bool plan_ok = expect_plan.empty() || plan == expect_plan;
    info("plan " + plan + (plan_ok ? "" : " differs from the recorded plan " + expect_plan));
    for (Metric& m : metrics) {
      if (m.name == "check.max_rel_residual") m.value = tally.max_rel_residual;
      if (m.name == "fail_frac") m.value = static_cast<double>(tally.failed) / tally.attempted;
    }
    const bool correct = tally.failed == 0 && plan_ok;

    std::string out = "{\"correct\":";
    out += correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(tally.attempted);
    out += ",\"failed\":" + std::to_string(tally.failed) + ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ',';
      sparta::obs::json::append_quoted(out, metrics[i].name);
      out += ":{\"value\":" + num(metrics[i].value) + ",\"unit\":";
      sparta::obs::json::append_quoted(out, metrics[i].unit);
      out += '}';
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
