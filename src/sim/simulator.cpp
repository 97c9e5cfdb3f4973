#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>

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

/// One configuration against the batch's shared preprocessing: `delta_width`
/// is the matrix's delta width (nullopt when it is incompressible), `dec` its
/// long-row decomposition (null when it has no long row, in which case the
/// short part would equal `m` and the cooperative pass would be empty).
/// `caches` holds one x cache per modeled thread; they are cleared first.
SimResult simulate_one(const CsrMatrix& m, const MachineSpec& machine,
                       const KernelConfig& cfg_in, std::optional<DeltaWidth> delta_width,
                       const DecomposedCsrMatrix* dec, std::vector<SetAssocCache>& caches) {
  SimResult result;
  KernelConfig cfg = cfg_in;

  DeltaWidth width = DeltaWidth::k8;
  if (cfg.delta) {
    if (delta_width) {
      width = *delta_width;
    } else {
      cfg.delta = false;
      result.delta_applied = false;
    }
  }

  if (!cfg.decomposed) dec = nullptr;
  const CsrMatrix* base = &m;
  if (dec != nullptr) {
    result.long_rows = static_cast<index_t>(dec->long_rows().size());
    base = &dec->short_part();
  }

  const int T = machine.threads();
  for (auto& c : caches) c.clear();
  std::vector<ThreadTally> tallies(static_cast<std::size_t>(T));

  // Warm-cache methodology: the paper reports warm-cache rates (128
  // back-to-back SpMVs), so each thread's x accesses are replayed once
  // before counting — a thread whose x window fits its private cache then
  // sees steady-state hits, exactly like iteration 2..128 on hardware.
  const bool warm = true;

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
  if (cfg.prefetch) exposure *= kPrefetchResidualLatency;

  auto run_range = [&](int t, RowRange r) {
    if (warm) {
      (void)simulate_rows(*base, r, cfg, machine, width, caches[static_cast<std::size_t>(t)]);
    }
    tallies[static_cast<std::size_t>(t)] +=
        simulate_rows(*base, r, cfg, machine, width, caches[static_cast<std::size_t>(t)]);
  };

  switch (cfg.schedule) {
    case Schedule::kStaticNnzBalanced: {
      const auto parts = partition_balanced_nnz(*base, T);
      for (int t = 0; t < T; ++t) run_range(t, parts[static_cast<std::size_t>(t)]);
      break;
    }
    case Schedule::kStaticRows: {
      const auto parts = partition_equal_rows(base->nrows(), T);
      for (int t = 0; t < T; ++t) run_range(t, parts[static_cast<std::size_t>(t)]);
      break;
    }
    case Schedule::kDynamicChunks: {
      const index_t chunk = dynamic_chunk_rows(base->nrows(), T);
      std::vector<double> load(static_cast<std::size_t>(T), 0.0);
      for (index_t row = 0; row < base->nrows(); row += chunk) {
        const auto t = static_cast<int>(
            std::min_element(load.begin(), load.end()) - load.begin());
        const RowRange r{row, std::min<index_t>(row + chunk, base->nrows())};
        const ThreadTally before = tallies[static_cast<std::size_t>(t)];
        run_range(t, r);
        ThreadTally delta_tally = tallies[static_cast<std::size_t>(t)];
        delta_tally.cycles -= before.cycles;
        delta_tally.stream_bytes -= before.stream_bytes;
        delta_tally.x_misses -= before.x_misses;
        load[static_cast<std::size_t>(t)] +=
            proxy_seconds(delta_tally, machine, per_thread_bw, latency_s, exposure);
      }
      break;
    }
  }

  // Cooperative long-row pass: every thread takes a contiguous slice of each
  // long row, then all threads reduce the partial sums.
  if (dec != nullptr) {
    const double reduction_cycles =
        kReductionCyclesPerLevel * std::ceil(std::log2(static_cast<double>(std::max(T, 2))));
    const auto long_rowptr = dec->long_rowptr();
    const auto long_cols = dec->long_colind();
    const int vpl = machine.values_per_line();
    for (std::size_t k = 0; k < dec->long_rows().size(); ++k) {
      const auto b = static_cast<std::size_t>(long_rowptr[k]);
      const auto e = static_cast<std::size_t>(long_rowptr[k + 1]);
      const auto len = e - b;
      for (int t = 0; t < T; ++t) {
        const std::size_t sb = b + len * static_cast<std::size_t>(t) / static_cast<std::size_t>(T);
        const std::size_t se =
            b + len * (static_cast<std::size_t>(t) + 1) / static_cast<std::size_t>(T);
        if (sb >= se) continue;
        auto& tally = tallies[static_cast<std::size_t>(t)];
        const auto slice =
            std::span<const index_t>{long_cols}.subspan(sb, se - sb);
        const auto slice_len = static_cast<index_t>(slice.size());
        tally.cycles += row_cycles(slice_len, distinct_lines(slice, vpl), cfg, machine) +
                        reduction_cycles;
        tally.stream_bytes += row_stream_bytes(slice_len, cfg, width);
        tally.nnz += slice_len;
        if (cfg.x_access == XAccess::kIndirect) {
          std::int64_t prev_line = -2;
          for (index_t c : slice) {
            ++tally.x_accesses;
            const auto line = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(c) * sizeof(value_t) / machine.cache_line_bytes);
            if (!caches[static_cast<std::size_t>(t)].access(static_cast<std::uint64_t>(c) *
                                                            sizeof(value_t))) {
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
  }

  result.run = combine_threads(tallies, cfg, machine, m.spmv_working_set_bytes(), m.nnz());
  return result;
}

}  // namespace

std::vector<SimResult> simulate_spmv_batch(const CsrMatrix& m, const MachineSpec& machine,
                                           std::span<const KernelConfig> cfgs) {
  if (cfgs.empty()) return {};
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

  // One set of x caches per worker, built here on the calling thread and
  // cleared per config (clear() restores a fresh cache's lines and clock), so
  // the workers allocate nothing large and repeated batches do not grow the
  // process's heaps.
  const auto n = static_cast<int>(cfgs.size());
  const int team = omp_in_parallel() ? 1 : std::clamp(omp_get_max_threads(), 1, n);
  std::vector<std::vector<SetAssocCache>> caches(static_cast<std::size_t>(team));
  for (auto& set : caches) {
    set.reserve(static_cast<std::size_t>(machine.threads()));
    for (int t = 0; t < machine.threads(); ++t) {
      set.emplace_back(machine.x_cache_bytes_per_thread(), machine.cache_line_bytes);
    }
  }

  // An exception must not leave the parallel region: each slot keeps its
  // own, and the first in config order is rethrown after the join.
  std::vector<SimResult> results(cfgs.size());
  std::vector<std::exception_ptr> errors(cfgs.size());
#pragma omp parallel for default(none) \
    shared(results, errors, caches, cfgs, m, machine, width, shared_dec, n) num_threads(team) \
    schedule(dynamic, 1)
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    try {
      results[k] = simulate_one(m, machine, cfgs[k], width, shared_dec,
                                caches[static_cast<std::size_t>(omp_get_thread_num())]);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

SimResult simulate_spmv(const CsrMatrix& m, const MachineSpec& machine,
                        const KernelConfig& cfg) {
  return simulate_spmv_batch(m, machine, std::span{&cfg, 1}).front();
}

}  // namespace sparta::sim
