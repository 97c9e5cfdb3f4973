// SpMV execution simulator — the platform substrate of this reproduction.
//
// simulate_spmv_batch() "runs" a set of SpMV kernel variants for one matrix
// on a modeled platform and reports per-thread and total times for each.
// Everything the paper measures on real KNC/KNL/Broadwell hardware (baseline
// runs, bound micro-benchmarks, optimized kernels) flows through it, so the
// tuner above it is written exactly as it would be against real hardware.
//
// A batch resolves the matrix's delta width and long-row decomposition once
// and shares them read-only across its configurations, which it simulates
// concurrently on the host's OpenMP team (serially when called from inside
// a parallel region). A static-schedule configuration is split into one
// work item per modeled thread, so even a batch of one keeps the team busy;
// a dynamic-schedule configuration, whose greedy chunk assignment couples
// its modeled threads, is one item. Every result is bitwise equal to
// simulating its configuration alone and independent of the host team
// size; simulate_spmv() is the batch of one.
#pragma once

#include <span>
#include <vector>

#include "machine/machine_spec.hpp"
#include "sim/exec_model.hpp"
#include "sim/kernel_model.hpp"
#include "sparse/csr.hpp"

namespace sparta::sim {

/// Extended result with optimization applicability notes.
struct SimResult {
  RunReport run;
  /// False when cfg.delta was requested but some intra-row column delta
  /// exceeds 16 bits, so the matrix kept plain CSR (paper §III-E).
  bool delta_applied = true;
  /// Number of rows routed to the cooperative long-row path (0 unless
  /// cfg.decomposed).
  index_t long_rows = 0;
};

/// Simulate one SpMV invocation per configuration (warm cache: the paper
/// reports warm-cache rates, so each thread's private cache is pre-warmed by
/// a dry run). Result i belongs to cfgs[i]; duplicates are simulated again.
std::vector<SimResult> simulate_spmv_batch(const CsrMatrix& m, const MachineSpec& machine,
                                           std::span<const KernelConfig> cfgs);

/// Simulate one configuration (a batch of one).
SimResult simulate_spmv(const CsrMatrix& m, const MachineSpec& machine,
                        const KernelConfig& cfg);

/// Rows per self-scheduled chunk used by Schedule::kDynamicChunks.
index_t dynamic_chunk_rows(index_t nrows, int threads);

}  // namespace sparta::sim
