// Solver scenario: Conjugate Gradient on a 2D Poisson problem, run by the
// solver engine on the baseline kernel and on the autotuned one — the
// iterative-method context in which the paper's amortization analysis
// (§IV-D) lives.
//
// Prints the solver statistics with the baseline kernel and with the tuned
// kernel, plus the amortization iteration count N_iters,min for this system.
// Exits non-zero if the tuned solve does not converge.
#include <iostream>

#include "sparta.hpp"

int main() {
  using namespace sparta;

  // A 2D Poisson system (SPD), the canonical CG workload.
  const CsrMatrix a = gen::stencil5(220, 220);
  std::cout << "system: " << a.nrows() << " unknowns, " << a.nnz() << " nonzeros\n";

  aligned_vector<value_t> b(static_cast<std::size_t>(a.nrows()), 1.0);
  engine::EngineOptions opts;
  opts.threads = host_machine().cores;
  opts.max_iterations = 2000;
  opts.tolerance = 1e-8;

  const auto report = [](const char* label, const solvers::SolveResult& r) {
    std::cout << label << r.iterations << " iterations, " << solvers::to_string(r.stop_reason)
              << ", residual " << r.residual_norm << ", " << Table::num(r.seconds * 1e3, 1)
              << " ms (" << Table::num(r.spmv_seconds * 1e3, 1) << " ms in SpMV)\n";
  };

  // Baseline: balanced-nnz scalar CSR.
  const engine::SolverEngine baseline{a, sim::KernelConfig{}, opts};
  aligned_vector<value_t> x0(b.size(), 0.0);
  const auto r0 = baseline.cg(b, x0);
  report("baseline CG:  ", r0);

  // Tuned: ask the autotuner (on the host profile) for a plan, then solve
  // with the optimized kernel.
  const Autotuner tuner{host_machine(true)};
  const auto plan = tuner.tune(a);
  std::cout << "autotuner: classes " << to_string(plan.classes) << ", kernel "
            << plan.config.describe() << "\n";
  const engine::SolverEngine tuned{a, plan.config, opts};
  aligned_vector<value_t> x1(b.size(), 0.0);
  const auto r1 = tuned.cg(b, x1);
  report("tuned CG:     ", r1);

  // Amortization: N_iters,min = t_pre / (t_spmv - t_spmv') with measured
  // per-iteration SpMV times (paper §IV-D).
  if (r0.iterations > 0 && r1.iterations > 0) {
    const double t_spmv = r0.spmv_seconds / r0.iterations;
    const double t_spmv_opt = r1.spmv_seconds / r1.iterations;
    const double t_pre = tuned.prepared().prep_seconds();
    if (t_spmv > t_spmv_opt) {
      std::cout << "amortization: preprocessing (" << Table::num(t_pre * 1e3, 2)
                << " ms) pays off after " << Table::num(t_pre / (t_spmv - t_spmv_opt), 0)
                << " solver iterations\n";
    } else {
      std::cout << "amortization: tuned kernel not faster on this host/matrix — the\n"
                << "  optimizer correctly reports "
                << (plan.optimizations.empty() ? "no optimization is worthwhile"
                                               : "a modest plan")
                << "\n";
    }
  }
  return r1.converged ? 0 : 1;
}
