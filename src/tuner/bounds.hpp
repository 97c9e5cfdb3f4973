// Per-class performance upper bounds — paper §III-B.
//
// For a matrix on a platform we compute:
//   P_CSR  — the baseline CSR kernel's performance
//   P_MB   — bandwidth roof: 2*NNZ / ((S_csr + S_x + S_y) / B_max)
//   P_ML   — micro-benchmark with regularized column indices
//   P_IMB  — 2*NNZ / median per-thread time of the baseline run
//   P_CMP  — micro-benchmark with unit-stride x access and no colind
//   P_peak — format-independent roof: indexing eliminated entirely,
//            2*NNZ / ((S_values + S_x + S_y) / B_max)
// B_max is adjusted upwards when the working set fits the LLC (paper fn. 2).
// P_peak and P_MB are analytic; P_ML and P_CMP run a micro-benchmark
// "on-the-fly"; P_IMB is deduced from the baseline run — exactly the cost
// structure the paper describes.
//
// Two sources produce the same PerfBounds: measure_bounds() runs the
// micro-benchmarks on the simulated platform, measure_bounds_host() runs
// them as real kernels with wall-clock timers on the machine executing the
// binary (the Autotuner's profile-host policy). Both take P_MB/P_peak from
// the MachineSpec's STREAM figures, so a host spec from host_machine(true)
// carries its one STREAM probe into every matrix it profiles.
#pragma once

#include "machine/machine_spec.hpp"
#include "sim/simulator.hpp"
#include "sparse/csr.hpp"
#include "tuner/bottleneck.hpp"

namespace sparta {

/// All bounds plus the baseline measurement they are compared against.
/// Rates are GFLOP/s (2 flops per nonzero, as the paper counts).
struct PerfBounds {
  double p_csr = 0.0;
  double p_mb = 0.0;
  double p_ml = 0.0;
  double p_imb = 0.0;
  double p_cmp = 0.0;
  double p_peak = 0.0;
  /// Baseline kernel wall time (simulated or measured seconds) — the t_spmv
  /// of the amortization analysis.
  double t_csr_seconds = 0.0;
  /// Per-thread times of the baseline run (for diagnostics/tests).
  std::vector<double> thread_seconds;
};

/// Analytic bandwidth roof (P_MB).
double p_mb_bound(const CsrMatrix& m, const MachineSpec& machine);

/// Analytic format-independent roof (P_peak).
double p_peak_bound(const CsrMatrix& m, const MachineSpec& machine);

/// Effective STREAM bandwidth for this working set (LLC-adjusted), GB/s.
double effective_bandwidth_gbs(const CsrMatrix& m, const MachineSpec& machine);

/// Measure every bound on the modeled platform (3 simulator runs: baseline,
/// P_ML micro-benchmark, P_CMP micro-benchmark).
PerfBounds measure_bounds(const CsrMatrix& m, const MachineSpec& machine);

/// Measure every bound on this host with `machine.cores` threads: P_CSR and
/// P_IMB from the timed baseline run with per-part durations, P_ML from the
/// same kernel on a regularized-colind view, P_CMP from the unit-stride
/// kernel. Each timed figure is the mean wall time of one call over
/// `iterations` calls after one warm-up call, so the ratios
/// classify_profile() compares divide like by like.
PerfBounds measure_bounds_host(const CsrMatrix& m, const MachineSpec& machine, int iterations);

}  // namespace sparta
