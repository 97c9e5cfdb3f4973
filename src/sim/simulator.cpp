#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <stdexcept>

#include <omp.h>

#include "sparse/decomposed_csr.hpp"
#include "sparse/partition.hpp"

namespace sparta::sim {

index_t dynamic_chunk_rows(index_t nrows, int threads) {
  return std::max<index_t>(16, nrows / (static_cast<index_t>(threads) * 16));
}

namespace {

/// Cycles per reduction level when all threads combine partial sums of a
/// cooperative long row (cache-line ping-pong between cores).
constexpr double kReductionCyclesPerLevel = 64.0;

/// Proxy seconds used for greedy dynamic-schedule assignment; mirrors the
/// exec-model formula closely enough to order thread loads.
double proxy_seconds(const ThreadTally& t, const MachineSpec& m, double per_thread_bw,
                     double latency_s, double exposure) {
  const double thread_clock = m.clock_ghz * 1e9 / m.smt;
  const double t_comp = t.cycles * m.issue_penalty / thread_clock;
  const double bytes =
      t.stream_bytes + static_cast<double>(t.x_misses) * static_cast<double>(m.cache_line_bytes);
  const double t_bw = bytes / per_thread_bw;
  const double t_lat = static_cast<double>(t.x_misses) * latency_s * exposure;
  return std::max(t_comp, t_bw) + t_lat;
}

/// True when some row is long under the default decomposition threshold.
bool has_long_row(const CsrMatrix& m) {
  const index_t threshold = DecomposedCsrMatrix::default_threshold(m);
  for (index_t i = 0; i < m.nrows(); ++i) {
    if (m.row_nnz(i) > threshold) return true;
  }
  return false;
}

/// One configuration of a batch, resolved on the calling thread before the
/// replay: the effective config (delta dropped when the matrix is
/// incompressible), the matrix its rows run over (the short part under
/// decomposition), one row range per modeled thread for the static
/// schedules, and the per-modeled-thread tallies the work items fill.
struct Job {
  KernelConfig cfg;
  DeltaWidth width = DeltaWidth::k8;
  const CsrMatrix* base = nullptr;
  const DecomposedCsrMatrix* dec = nullptr;
  std::vector<RowRange> parts;  // empty for Schedule::kDynamicChunks
  std::vector<ThreadTally> tallies;
  SimResult result;
};

/// `delta_width` is the matrix's delta width (nullopt when it is
/// incompressible), `dec` its long-row decomposition (null when it has no
/// long row, in which case the short part would equal `m` and the
/// cooperative pass would be empty).
Job make_job(const CsrMatrix& m, const MachineSpec& machine, const KernelConfig& cfg,
             std::optional<DeltaWidth> delta_width, const DecomposedCsrMatrix* dec) {
  Job job;
  job.cfg = cfg;
  if (job.cfg.delta) {
    if (delta_width) {
      job.width = *delta_width;
    } else {
      job.cfg.delta = false;
      job.result.delta_applied = false;
    }
  }
  job.dec = job.cfg.decomposed ? dec : nullptr;
  job.base = &m;
  if (job.dec != nullptr) {
    job.result.long_rows = static_cast<index_t>(job.dec->long_rows().size());
    job.base = &job.dec->short_part();
  }
  const int T = machine.threads();
  switch (job.cfg.schedule) {
    case Schedule::kStaticNnzBalanced:
      job.parts = partition_balanced_nnz(*job.base, T);
      break;
    case Schedule::kStaticRows:
      job.parts = partition_equal_rows(job.base->nrows(), T);
      break;
    case Schedule::kDynamicChunks:
      break;
  }
  job.tallies.resize(static_cast<std::size_t>(T));
  return job;
}

/// Replay rows `r` through one modeled thread's cache into its tally.
/// Warm-cache methodology: the paper reports warm-cache rates (128
/// back-to-back SpMVs), so each range's x accesses are replayed once before
/// counting — a thread whose x window fits its private cache then sees
/// steady-state hits, exactly like iteration 2..128 on hardware.
void replay_rows(const Job& job, const MachineSpec& machine, RowRange r, SetAssocCache& cache,
                 ThreadTally& tally) {
  (void)simulate_rows(*job.base, r, job.cfg, machine, job.width, cache);
  tally += simulate_rows(*job.base, r, job.cfg, machine, job.width, cache);
}

/// Modeled thread t's share of the cooperative long-row pass: a contiguous
/// slice of each long row, then its part of the reduction of the partial
/// sums. Touches only thread t's cache and tally.
void replay_long_slices(const Job& job, const MachineSpec& machine, int t, SetAssocCache& cache,
                        ThreadTally& tally) {
  if (job.dec == nullptr) return;
  const int T = machine.threads();
  const double reduction_cycles =
      kReductionCyclesPerLevel * std::ceil(std::log2(static_cast<double>(std::max(T, 2))));
  const auto long_rowptr = job.dec->long_rowptr();
  const auto long_cols = job.dec->long_colind();
  const int vpl = machine.values_per_line();
  for (std::size_t k = 0; k < job.dec->long_rows().size(); ++k) {
    const auto b = static_cast<std::size_t>(long_rowptr[k]);
    const auto len = static_cast<std::size_t>(long_rowptr[k + 1]) - b;
    const std::size_t sb = b + len * static_cast<std::size_t>(t) / static_cast<std::size_t>(T);
    const std::size_t se =
        b + len * (static_cast<std::size_t>(t) + 1) / static_cast<std::size_t>(T);
    if (sb >= se) continue;
    const auto slice = std::span<const index_t>{long_cols}.subspan(sb, se - sb);
    const auto slice_len = static_cast<index_t>(slice.size());
    tally.cycles +=
        row_cycles(slice_len, distinct_lines(slice, vpl), job.cfg, machine) + reduction_cycles;
    tally.stream_bytes += row_stream_bytes(slice_len, job.cfg, job.width);
    tally.nnz += slice_len;
    if (job.cfg.x_access == XAccess::kIndirect) {
      std::int64_t prev_line = -2;
      for (index_t c : slice) {
        ++tally.x_accesses;
        const auto line = static_cast<std::int64_t>(static_cast<std::uint64_t>(c) *
                                                    sizeof(value_t) / machine.cache_line_bytes);
        if (!cache.access(static_cast<std::uint64_t>(c) * sizeof(value_t))) {
          ++tally.x_misses;
          if (line != prev_line && line != prev_line + 1) ++tally.x_irregular_misses;
        }
        prev_line = line;
      }
    } else {
      tally.x_accesses += static_cast<std::uint64_t>(slice_len);
    }
  }
}

/// The dynamic schedule: chunks go greedily to the modeled thread with the
/// least proxy load so far, which couples every modeled thread, so the whole
/// config replays as one work item over one cache per modeled thread.
void replay_dynamic(Job& job, const MachineSpec& machine, const CsrMatrix& m,
                    std::vector<SetAssocCache>& caches) {
  const int T = machine.threads();
  for (auto& c : caches) c.clear();
  const double bw_total =
      (m.spmv_working_set_bytes() <= machine.llc_bytes ? machine.stream_llc_gbs
                                                       : machine.stream_main_gbs) *
      1e9;
  const double latency_s = (m.spmv_working_set_bytes() <= machine.llc_bytes
                                ? machine.llc_latency_ns
                                : machine.dram_latency_ns) *
                           1e-9;
  const double per_thread_bw = std::min(machine.core_bw_gbs * 1e9 / machine.smt, bw_total / T);
  double exposure = 1.0 - machine.latency_overlap;
  if (job.cfg.prefetch) exposure *= kPrefetchResidualLatency;

  const CsrMatrix& base = *job.base;
  const index_t chunk = dynamic_chunk_rows(base.nrows(), T);
  std::vector<double> load(static_cast<std::size_t>(T), 0.0);
  for (index_t row = 0; row < base.nrows(); row += chunk) {
    const auto t = static_cast<std::size_t>(std::min_element(load.begin(), load.end()) -
                                            load.begin());
    const RowRange r{row, std::min<index_t>(row + chunk, base.nrows())};
    const ThreadTally before = job.tallies[t];
    replay_rows(job, machine, r, caches[t], job.tallies[t]);
    ThreadTally delta_tally = job.tallies[t];
    delta_tally.cycles -= before.cycles;
    delta_tally.stream_bytes -= before.stream_bytes;
    delta_tally.x_misses -= before.x_misses;
    load[t] += proxy_seconds(delta_tally, machine, per_thread_bw, latency_s, exposure);
  }
  for (int t = 0; t < T; ++t) {
    const auto k = static_cast<std::size_t>(t);
    replay_long_slices(job, machine, t, caches[k], job.tallies[k]);
  }
}

/// One parallel work item: modeled thread `thread` of job `job` (its row
/// range, then its long-row slices), or the whole job when `thread` < 0.
struct Item {
  std::size_t job;
  int thread;
};

}  // namespace

std::vector<SimResult> simulate_spmv_batch(const CsrMatrix& m, const MachineSpec& machine,
                                           std::span<const KernelConfig> cfgs) {
  if (cfgs.empty()) return {};
  const int T = machine.threads();
  if (T < 1) throw std::invalid_argument{"simulate_spmv_batch: machine models no threads"};
  const auto any = [&](bool KernelConfig::*flag) {
    return std::any_of(cfgs.begin(), cfgs.end(),
                       [&](const KernelConfig& c) { return c.*flag; });
  };
  std::optional<DeltaWidth> width;
  if (any(&KernelConfig::delta)) width = DeltaCsrMatrix::pick_width(m);
  std::optional<DecomposedCsrMatrix> dec;
  if (any(&KernelConfig::decomposed) && has_long_row(m)) {
    dec.emplace(DecomposedCsrMatrix::decompose(m));
  }
  const DecomposedCsrMatrix* shared_dec = dec ? &*dec : nullptr;

  // Static-schedule configs split into one item per modeled thread: each
  // modeled thread's row range and long-row slices touch only its own cache
  // and tally, so the tallies are bitwise those of a serial replay. Whole
  // dynamic configs go first, the largest items leading the queue.
  std::vector<Job> jobs;
  jobs.reserve(cfgs.size());
  for (const auto& cfg : cfgs) jobs.push_back(make_job(m, machine, cfg, width, shared_dec));
  std::vector<Item> items;
  items.reserve(jobs.size() * static_cast<std::size_t>(T));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].parts.empty()) items.push_back({j, -1});
  }
  const bool any_dynamic = !items.empty();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].parts.empty()) continue;
    for (int t = 0; t < T; ++t) items.push_back({j, t});
  }

  // x caches per worker, built here on the calling thread and cleared per
  // item (clear() restores a fresh cache's lines and clock), so the workers
  // allocate nothing large and repeated batches do not grow the process's
  // heaps. Each cache object is line-aligned (see SetAssocCache), so the
  // workers' per-access fields never share a line. A static item needs one
  // cache; a dynamic item one per modeled thread.
  const auto n = static_cast<int>(items.size());
  const int team = omp_in_parallel() ? 1 : std::clamp(omp_get_max_threads(), 1, n);
  const int per_worker = any_dynamic ? T : 1;
  std::vector<std::vector<SetAssocCache>> caches(static_cast<std::size_t>(team));
  for (auto& set : caches) {
    set.reserve(static_cast<std::size_t>(per_worker));
    for (int t = 0; t < per_worker; ++t) {
      set.emplace_back(machine.x_cache_bytes_per_thread(), machine.cache_line_bytes);
    }
  }

  // An exception must not leave the parallel region: each item keeps its
  // own, and the first in item order is rethrown after the join.
  std::vector<std::exception_ptr> errors(items.size());
#pragma omp parallel for default(none) \
    shared(jobs, items, errors, caches, m, machine, n) num_threads(team) schedule(dynamic, 1)
  for (int i = 0; i < n; ++i) {
    const Item item = items[static_cast<std::size_t>(i)];
    Job& job = jobs[item.job];
    auto& mine = caches[static_cast<std::size_t>(omp_get_thread_num())];
    try {
      if (item.thread < 0) {
        replay_dynamic(job, machine, m, mine);
      } else {
        const auto t = static_cast<std::size_t>(item.thread);
        SetAssocCache& cache = mine.front();
        cache.clear();
        replay_rows(job, machine, job.parts[t], cache, job.tallies[t]);
        replay_long_slices(job, machine, item.thread, cache, job.tallies[t]);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(i)] = std::current_exception();
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  std::vector<SimResult> results;
  results.reserve(jobs.size());
  for (auto& job : jobs) {
    job.result.run =
        combine_threads(job.tallies, job.cfg, machine, m.spmv_working_set_bytes(), m.nnz());
    results.push_back(std::move(job.result));
  }
  return results;
}

SimResult simulate_spmv(const CsrMatrix& m, const MachineSpec& machine,
                        const KernelConfig& cfg) {
  return simulate_spmv_batch(m, machine, std::span{&cfg, 1}).front();
}

}  // namespace sparta::sim
