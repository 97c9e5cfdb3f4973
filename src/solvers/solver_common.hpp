// The result record of the iterative solvers (engine::SolverEngine's CG,
// BiCGSTAB and GMRES): iteration count, residual, why the solve stopped,
// and the wall-time split the amortization analysis (§IV-D) charges.
#pragma once

#include <cstdint>
#include <vector>

namespace sparta::solvers {

/// Why a solve returned.
enum class StopReason : std::uint8_t {
  converged,       // ||r|| <= tolerance * ||b||
  max_iterations,  // iteration budget spent first
  breakdown,       // a recurrence denominator hit exactly zero
  non_finite,      // a residual norm or recurrence scalar became NaN/Inf
};

[[nodiscard]] constexpr const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::converged: return "converged";
    case StopReason::max_iterations: return "max_iterations";
    case StopReason::breakdown: return "breakdown";
    case StopReason::non_finite: return "non_finite";
  }
  return "unknown";
}

/// Convergence report.
struct SolveResult {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;  // stop_reason == StopReason::converged
  StopReason stop_reason = StopReason::max_iterations;
  /// Total wall seconds and the share spent inside SpMV (for the
  /// amortization analysis, which assumes t_other is SpMV-independent).
  double seconds = 0.0;
  double spmv_seconds = 0.0;
  /// Per-iteration series (||r|| after each iteration; wall seconds per
  /// iteration). Collected only while telemetry is enabled (obs::enabled())
  /// — empty otherwise, so the hot solver loop never allocates by default.
  std::vector<double> residual_history;
  std::vector<double> iter_seconds;
};

}  // namespace sparta::solvers
