// Persistent-parallel solver execution engine.
//
// The paper's amortization analysis (§IV-D, Table V) puts SpMV inside
// iterative solvers that call it hundreds of times — but a solver loop that
// opens one OpenMP parallel region per SpMV *and* per dot/axpy pays fork/
// join latency several times per iteration, and matrix arrays touched by a
// single allocating thread sit on one NUMA node. This engine runs the
// *entire* solve inside a single `#pragma omp parallel` region:
//
//  - each thread owns the balanced-nnz RowRange(s) from the PreparedSpmv's
//    region partition and performs every vector operation on its own rows;
//  - SpMV and the dependent BLAS-1 reduction are fused into one pass over
//    the owned rows (PreparedSpmv::run_local_dot), e.g. y = A·p together
//    with p·y for CG;
//  - reductions use an atomic-free cache-line-padded per-thread accumulator
//    array combined by a single thread between barriers, so every thread
//    observes identical scalars (deterministic for a fixed thread count);
//  - matrix streams and solver vectors are first-touch initialized by their
//    owning threads (see NumaArray and PreparedSpmv's first_touch mode).
//
// CG and BiCGSTAB run this way. Restarted GMRES is dense-dominated (its
// Arnoldi/Givens work grows with the Krylov dimension, not with nnz), so it
// keeps its dense work serial and drives the same prepared kernel through
// the one-shot PreparedSpmv::run(). The engine is the only solver
// implementation; the tests validate it against a textbook oracle over
// spmv_reference (tests/solver_oracle.hpp).
#pragma once

#include <memory>
#include <span>

#include "common/types.hpp"
#include "kernels/kernel_registry.hpp"
#include "sim/kernel_model.hpp"
#include "solvers/solver_common.hpp"
#include "sparse/csr.hpp"

namespace sparta::engine {

/// Krylov subspace dimension m of GMRES(m).
inline constexpr int kGmresRestart = 30;

struct EngineOptions {
  /// Region width; 0 means omp_get_max_threads().
  int threads = 0;
  /// First-touch the matrix streams and solver vectors NUMA-locally.
  bool first_touch = true;
  /// Jacobi (diagonal) preconditioning — CG only.
  bool jacobi = false;
  int max_iterations = 1000;
  double tolerance = 1e-8;  // on ||r|| / ||b||
};

/// One matrix + kernel config, prepared once, solvable many times. The
/// source matrix must outlive the engine.
class SolverEngine {
 public:
  explicit SolverEngine(const CsrMatrix& a, const sim::KernelConfig& cfg = {},
                        const EngineOptions& opts = {});

  /// Adopt an already-prepared kernel instance (e.g. from the tuner's
  /// PlanCache) instead of re-running preprocessing. `prepared` must be
  /// non-null and built from `a` (std::invalid_argument if null or if its
  /// dimensions differ from a's); its thread count wins over opts.threads.
  SolverEngine(const CsrMatrix& a, std::shared_ptr<const kernels::PreparedSpmv> prepared,
               const EngineOptions& opts = {});

  /// Fused CG for SPD A (Jacobi-preconditioned if opts.jacobi). `x` holds
  /// the initial guess on entry and the solution on exit.
  solvers::SolveResult cg(std::span<const value_t> b, std::span<value_t> x) const;

  /// Fused BiCGSTAB (van der Vorst 1992) for general A: two SpMVs per
  /// iteration.
  solvers::SolveResult bicgstab(std::span<const value_t> b, std::span<value_t> x) const;

  /// Restarted GMRES(kGmresRestart) for general A: Arnoldi with modified
  /// Gram-Schmidt, Givens rotations for the least-squares update. One SpMV
  /// per iteration; opts.max_iterations bounds the SpMVs across restarts.
  solvers::SolveResult gmres(std::span<const value_t> b, std::span<value_t> x) const;

  /// Y = alpha * A * X + beta * Y over dense operand blocks (X: ncols x k,
  /// Y: nrows x k), executed inside one persistent parallel region: each
  /// thread drives the region-reentrant block path over its owned row
  /// ranges, so a k-wide multiply costs one fork/join — not one per column
  /// — and reads the matrix stream once per k columns. Throws
  /// std::invalid_argument on an operand width mismatch.
  void spmm(kernels::ConstDenseBlockView x, kernels::DenseBlockView y, value_t alpha = 1.0,
            value_t beta = 0.0) const;

  [[nodiscard]] const kernels::PreparedSpmv& prepared() const { return *prepared_; }
  /// The engine's owning handle — shareable with other engines/callers.
  [[nodiscard]] const std::shared_ptr<const kernels::PreparedSpmv>& prepared_ptr() const {
    return prepared_;
  }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] const EngineOptions& options() const { return opts_; }

 private:
  void init_jacobi();

  const CsrMatrix* a_;
  EngineOptions opts_;
  int threads_;
  std::shared_ptr<const kernels::PreparedSpmv> prepared_;
  aligned_vector<value_t> inv_diag_;  // Jacobi weights; empty unless opts_.jacobi
};

}  // namespace sparta::engine
