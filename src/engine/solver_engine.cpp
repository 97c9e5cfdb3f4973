#include "engine/solver_engine.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/numa.hpp"
#include "common/timer.hpp"
#include "obs/telemetry.hpp"

namespace sparta::engine {

namespace {

/// Cache-line-padded per-thread reduction slot: threads write their partials
/// here between barriers and one thread combines them in tid order, so every
/// reduction is atomic-free and deterministic for a fixed thread count.
struct alignas(kCacheLineBytes) Slot {
  double a = 0.0;
  double b = 0.0;
};

double sum_a(const aligned_vector<Slot>& slots, int nt) {
  double acc = 0.0;
  for (int t = 0; t < nt; ++t) acc += slots[static_cast<std::size_t>(t)].a;
  return acc;
}

double sum_b(const aligned_vector<Slot>& slots, int nt) {
  double acc = 0.0;
  for (int t = 0; t < nt; ++t) acc += slots[static_cast<std::size_t>(t)].b;
  return acc;
}

/// Count one solve's stop reason as `engine.stop.<reason>`. The names are
/// literals so that recording a reason allocates nothing.
void count_stop(obs::Registry& reg, solvers::StopReason reason) {
  switch (reason) {
    case solvers::StopReason::converged: reg.counter("engine.stop.converged").add(); return;
    case solvers::StopReason::max_iterations:
      reg.counter("engine.stop.max_iterations").add();
      return;
    case solvers::StopReason::breakdown: reg.counter("engine.stop.breakdown").add(); return;
    case solvers::StopReason::non_finite: reg.counter("engine.stop.non_finite").add(); return;
  }
}

// Serial BLAS-1 for GMRES's dense Arnoldi work (the region solvers fuse
// theirs into the owned-row sweeps). GMRES spells out every fused
// multiply-add, here and in its Givens and back-substitution steps, so its
// rounding does not depend on how the compiler contracts or vectorizes an
// inlined call site: dot is an in-order FMA chain.
double dot(std::span<const value_t> a, std::span<const value_t> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc = std::fma(a[i], b[i], acc);
  return acc;
}

double norm2(std::span<const value_t> a) { return std::sqrt(dot(a, a)); }

/// y += alpha * x
void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

}  // namespace

SolverEngine::SolverEngine(const CsrMatrix& a, const sim::KernelConfig& cfg,
                           const EngineOptions& opts)
    : a_(&a),
      opts_(opts),
      threads_(opts.threads > 0 ? opts.threads : omp_get_max_threads()),
      prepared_(std::make_shared<const kernels::PreparedSpmv>(
          a, kernels::SpmvOptions{.config = cfg,
                                  .threads = threads_,
                                  .first_touch = opts.first_touch})) {
  init_jacobi();
}

SolverEngine::SolverEngine(const CsrMatrix& a,
                           std::shared_ptr<const kernels::PreparedSpmv> prepared,
                           const EngineOptions& opts)
    : a_(&a), opts_(opts), prepared_(std::move(prepared)) {
  if (!prepared_) {
    throw std::invalid_argument{"SolverEngine: prepared kernel must be non-null"};
  }
  if (prepared_->nrows() != a.nrows() || prepared_->ncols() != a.ncols()) {
    throw std::invalid_argument{
        "SolverEngine: prepared kernel was built from a matrix of different dimensions"};
  }
  // The region partition is fixed at preparation time; the engine must run
  // exactly that many threads.
  threads_ = prepared_->threads();
  init_jacobi();
}

void SolverEngine::init_jacobi() {
  if (!opts_.jacobi) return;
  const CsrMatrix& a = *a_;
  const index_t nrows = a.nrows();
  inv_diag_.assign(static_cast<std::size_t>(nrows), 1.0);
  for (index_t i = 0; i < nrows; ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t j = 0; j < cols.size(); ++j) {
      if (cols[j] == i && vals[j] != 0.0) {
        inv_diag_[static_cast<std::size_t>(i)] = 1.0 / vals[j];
        break;
      }
    }
  }
}

solvers::SolveResult SolverEngine::cg(std::span<const value_t> b,
                                      std::span<value_t> x) const {
  const CsrMatrix& a = *a_;
  if (a.nrows() != a.ncols()) throw std::invalid_argument{"engine cg: matrix must be square"};
  const auto n = static_cast<std::size_t>(a.nrows());
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument{"engine cg: vector size mismatch"};
  }

  const auto parts = prepared_->region_parts();
  const int nparts = static_cast<int>(parts.size());
  const bool jacobi = opts_.jacobi;
  const double tol = opts_.tolerance;
  const int max_it = opts_.max_iterations;
  const std::span<const value_t> inv_diag = inv_diag_;

  solvers::SolveResult result;
  Timer total;

  // Untouched storage: each thread first-touches its owned rows below.
  // No z vector: z = M^-1 r is recomputed from r where it is read.
  NumaArray<value_t> r_buf(n), p_buf(n), ap_buf(n);
  const auto r = r_buf.span();
  const auto p = p_buf.span();
  const auto ap = ap_buf.span();

  aligned_vector<Slot> slots(static_cast<std::size_t>(threads_));

  // Iteration scalars, written only inside `single` blocks; every thread
  // reads them after the single's implicit barrier.
  struct State {
    double threshold = 0.0, rr = 0.0, rz = 0.0, alpha = 0.0, beta = 0.0;
    int iters = 0;
    bool stop = false;
    solvers::StopReason reason = solvers::StopReason::max_iterations;
  } st;
  double spmv_seconds = 0.0;
  int fused_passes = 0;
  // Per-iteration series are preallocated to max_it here and trimmed after
  // the region, so the iteration singles write by index and the hot loop
  // never allocates — collected only on request.
  const bool track = obs::enabled();
  if (track) {
    result.residual_history.resize(static_cast<std::size_t>(max_it));
    result.iter_seconds.resize(static_cast<std::size_t>(max_it));
  }
  Timer iter_timer;  // shared; reset/read inside barrier-ordered singles
  const kernels::PreparedSpmv& spmv = *prepared_;
  // Symmetric storage splits each SpMV into an owner-writes scatter and a
  // barrier-ordered halo reduce over the same partition ownership
  // (kernels/spmv_sym.hpp); CG is the SPD flagship, so the dispatch lives
  // here and not in bicgstab.
  const bool sym = spmv.symmetric_applied();

#pragma omp parallel default(none) num_threads(threads_)                                   \
    shared(parts, nparts, jacobi, tol, max_it, inv_diag, b, x, r, p, ap, slots, st,        \
           track, iter_timer, spmv_seconds, fused_passes, result, spmv, sym)
  {
    const int nt = omp_get_num_threads();
    const int tid = omp_get_thread_num();
    Timer pass;  // fused SpMV-phase stopwatch; only thread 0 reads it

    const auto for_owned = [&](auto&& body) {
      for (int pi = tid; pi < nparts; pi += nt) body(pi, parts[static_cast<std::size_t>(pi)]);
    };

    // Setup: first-touch the owned vector slices; partial ||b||^2.
    double bb_p = 0.0;
    for_owned([&](int, RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = 0.0;
        p[k] = 0.0;
        ap[k] = 0.0;
        bb_p += b[k] * b[k];
      }
    });
    slots[static_cast<std::size_t>(tid)].a = bb_p;
#pragma omp barrier
#pragma omp single
    {
      const double bn = std::sqrt(sum_a(slots, nt));
      st.threshold = tol * (bn > 0.0 ? bn : 1.0);
    }

    // r = b - A x; z = M^-1 r; p = z; partial rz, rr.
    if (sym) {
      for_owned([&](int pi, RowRange) { spmv.run_local_scatter(pi, x, ap); });
#pragma omp barrier
      for_owned([&](int pi, RowRange) { spmv.run_local_reduce(pi, ap); });
    } else {
      for_owned([&](int pi, RowRange) { spmv.run_local(pi, x, ap); });
    }
    double rz_p = 0.0, rr_p = 0.0;
    for_owned([&](int, RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = b[k] - ap[k];
        const value_t zk = jacobi ? inv_diag[k] * r[k] : r[k];
        p[k] = zk;
        rz_p += r[k] * zk;
        rr_p += r[k] * r[k];
      }
    });
    slots[static_cast<std::size_t>(tid)] = {rz_p, rr_p};
#pragma omp barrier
#pragma omp single
    {
      st.rz = sum_a(slots, nt);
      st.rr = sum_b(slots, nt);
    }

    for (int it = 0; it < max_it; ++it) {
#pragma omp single
      {
        // Non-finite first: an infinite b makes the threshold infinite too.
        if (!std::isfinite(st.rr)) {
          st.reason = solvers::StopReason::non_finite;
          st.stop = true;
        } else if (std::sqrt(st.rr) <= st.threshold) {
          st.reason = solvers::StopReason::converged;
          st.stop = true;
        }
        if (track && !st.stop) iter_timer.reset();
      }
      if (st.stop) break;

      // Fused ap = A p with the dependent reduction p·ap. The symmetric
      // path scatters straight into ap, then completes its owned rows from
      // the later partitions' halos and takes p·ap over them. The barrier
      // after the slot writes below also orders this reduce's halo reads
      // against the next scatter.
      if (tid == 0) pass.reset();
      double pap_p = 0.0;
      if (sym) {
        for_owned([&](int pi, RowRange) { spmv.run_local_scatter(pi, p, ap); });
#pragma omp barrier
        for_owned([&](int pi, RowRange) { pap_p += spmv.run_local_reduce_dot(pi, ap, p); });
      } else {
        for_owned([&](int pi, RowRange) { pap_p += spmv.run_local_dot(pi, p, ap, p); });
      }
      slots[static_cast<std::size_t>(tid)].a = pap_p;
#pragma omp barrier
      if (tid == 0) {
        spmv_seconds += pass.seconds();
        ++fused_passes;
      }
#pragma omp single
      {
        const double pap = sum_a(slots, nt);
        if (pap == 0.0) {
          st.reason = solvers::StopReason::breakdown;
          st.stop = true;
        } else if (!std::isfinite(pap)) {
          st.reason = solvers::StopReason::non_finite;
          st.stop = true;
        } else {
          st.alpha = st.rz / pap;
        }
      }
      if (st.stop) break;

      // Fused r -= alpha ap; z = M^-1 r; partial rz', r·r.
      double rz_n = 0.0, rr_n = 0.0;
      for_owned([&](int, RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          r[k] -= st.alpha * ap[k];
          const value_t zk = jacobi ? inv_diag[k] * r[k] : r[k];
          rz_n += r[k] * zk;
          rr_n += r[k] * r[k];
        }
      });
      slots[static_cast<std::size_t>(tid)] = {rz_n, rr_n};
#pragma omp barrier
#pragma omp single
      {
        const double rz_next = sum_a(slots, nt);
        st.beta = rz_next / st.rz;
        st.rz = rz_next;
        st.rr = sum_b(slots, nt);
        st.iters = it + 1;
        if (track) {
          result.residual_history[static_cast<std::size_t>(it)] = std::sqrt(st.rr);
          result.iter_seconds[static_cast<std::size_t>(it)] = iter_timer.seconds();
        }
      }

      // x += alpha p (still this iteration's alpha and p); p = z + beta p.
      // The barrier publishes p before the next SpMV gathers it at
      // arbitrary columns.
      for_owned([&](int, RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          x[k] += st.alpha * p[k];
          const value_t zk = jacobi ? inv_diag[k] * r[k] : r[k];
          p[k] = zk + st.beta * p[k];
        }
      });
#pragma omp barrier
    }
  }

  if (track) {
    result.residual_history.resize(static_cast<std::size_t>(st.iters));
    result.iter_seconds.resize(static_cast<std::size_t>(st.iters));
  }
  result.iterations = st.iters;
  result.stop_reason = st.reason;
  result.converged = st.reason == solvers::StopReason::converged;
  result.residual_norm = std::sqrt(st.rr);
  result.spmv_seconds = spmv_seconds;
  result.seconds = total.seconds();
  auto& reg = obs::Registry::global();
  reg.counter("engine.cg.solves").add();
  count_stop(reg, st.reason);
  if (sym) reg.counter("engine.cg.symmetric_solves").add();
  reg.counter("engine.cg.iterations").add(st.iters);
  reg.counter("engine.fused_spmv_dot.passes").add(fused_passes);
  if (track) {
    const obs::Histogram h = reg.histogram("engine.cg.iter_micros");
    for (double s : result.iter_seconds) h.record(s * 1e6);
  }
  return result;
}

void SolverEngine::spmm(kernels::ConstDenseBlockView x, kernels::DenseBlockView y,
                        value_t alpha, value_t beta) const {
  if (x.width != y.width) {
    throw std::invalid_argument{"engine spmm: operand width mismatch"};
  }
  const auto parts = prepared_->region_parts();
  const int nparts = static_cast<int>(parts.size());
  const kernels::PreparedSpmv& spmv = *prepared_;
#pragma omp parallel default(none) num_threads(threads_) shared(spmv, x, y, alpha, beta, nparts)
  {
    const int nt = omp_get_num_threads();
    for (int pi = omp_get_thread_num(); pi < nparts; pi += nt) {
      spmv.run_local(pi, x, y, alpha, beta);
    }
  }
  auto& reg = obs::Registry::global();
  reg.counter("engine.spmm.calls").add();
  reg.counter("engine.spmm.columns").add(static_cast<double>(x.width));
}

solvers::SolveResult SolverEngine::bicgstab(std::span<const value_t> b,
                                            std::span<value_t> x) const {
  const CsrMatrix& a = *a_;
  if (a.nrows() != a.ncols()) {
    throw std::invalid_argument{"engine bicgstab: matrix must be square"};
  }
  const auto n = static_cast<std::size_t>(a.nrows());
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument{"engine bicgstab: vector size mismatch"};
  }

  const auto parts = prepared_->region_parts();
  const int nparts = static_cast<int>(parts.size());
  const double tol = opts_.tolerance;
  const int max_it = opts_.max_iterations;

  solvers::SolveResult result;
  Timer total;

  NumaArray<value_t> r_buf(n), r0_buf(n), p_buf(n), v_buf(n), s_buf(n), t_buf(n);
  const auto r = r_buf.span();
  const auto r0 = r0_buf.span();
  const auto p = p_buf.span();
  const auto v = v_buf.span();
  const auto s = s_buf.span();
  const auto t = t_buf.span();

  aligned_vector<Slot> slots(static_cast<std::size_t>(threads_));

  struct State {
    double threshold = 0.0, rr = 0.0, rho = 0.0, alpha = 0.0, beta = 0.0, omega = 0.0,
           ss = 0.0;
    int iters = 0;
    bool stop = false, early = false;
    solvers::StopReason reason = solvers::StopReason::max_iterations;
  } st;
  double spmv_seconds = 0.0;
  int fused_passes = 0;
  const bool track = obs::enabled();
  if (track) {
    // Preallocated outside the region, trimmed after it: the iteration
    // singles write by index so the hot loop never allocates.
    result.residual_history.resize(static_cast<std::size_t>(max_it));
    result.iter_seconds.resize(static_cast<std::size_t>(max_it));
  }
  Timer iter_timer;  // shared; reset/read inside barrier-ordered singles
  const kernels::PreparedSpmv& spmv = *prepared_;

#pragma omp parallel default(none) num_threads(threads_)                                   \
    shared(parts, nparts, tol, max_it, b, x, r, r0, p, v, s, t, slots, st, track,          \
           iter_timer, spmv_seconds, fused_passes, result, spmv)
  {
    const int nt = omp_get_num_threads();
    const int tid = omp_get_thread_num();
    Timer pass;

    const auto for_owned = [&](auto&& body) {
      for (int pi = tid; pi < nparts; pi += nt) body(pi, parts[static_cast<std::size_t>(pi)]);
    };

    // Setup: first-touch owned slices; partial ||b||^2.
    double bb_p = 0.0;
    for_owned([&](int, RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = 0.0;
        r0[k] = 0.0;
        p[k] = 0.0;
        v[k] = 0.0;
        s[k] = 0.0;
        t[k] = 0.0;
        bb_p += b[k] * b[k];
      }
    });
    slots[static_cast<std::size_t>(tid)].a = bb_p;
#pragma omp barrier
#pragma omp single
    {
      const double bn = std::sqrt(sum_a(slots, nt));
      st.threshold = tol * (bn > 0.0 ? bn : 1.0);
    }

    // r = b - A x; r0 = p = r (shadow residual); rho = r0·r = r·r.
    for_owned([&](int pi, RowRange) { spmv.run_local(pi, x, v); });
    double rho_p = 0.0;
    for_owned([&](int, RowRange rng) {
      for (index_t i = rng.begin; i < rng.end; ++i) {
        const auto k = static_cast<std::size_t>(i);
        r[k] = b[k] - v[k];
        r0[k] = r[k];
        p[k] = r[k];
        rho_p += r[k] * r[k];
      }
    });
    slots[static_cast<std::size_t>(tid)].a = rho_p;
#pragma omp barrier
#pragma omp single
    {
      st.rho = sum_a(slots, nt);
      st.rr = st.rho;
    }

    for (int it = 0; it < max_it; ++it) {
#pragma omp single
      {
        if (!std::isfinite(st.rr) || !std::isfinite(st.rho)) {
          st.reason = solvers::StopReason::non_finite;  // before the test: see cg
          st.stop = true;
        } else if (std::sqrt(st.rr) <= st.threshold) {
          st.reason = solvers::StopReason::converged;
          st.stop = true;
        } else if (st.rho == 0.0) {
          st.reason = solvers::StopReason::breakdown;
          st.stop = true;
        }
        if (track && !st.stop) iter_timer.reset();
      }
      if (st.stop) break;

      // Fused v = A p with r0·v.
      if (tid == 0) pass.reset();
      double r0v_p = 0.0;
      for_owned([&](int pi, RowRange) { r0v_p += spmv.run_local_dot(pi, p, v, r0); });
      slots[static_cast<std::size_t>(tid)].a = r0v_p;
#pragma omp barrier
      if (tid == 0) {
        spmv_seconds += pass.seconds();
        ++fused_passes;
      }
#pragma omp single
      {
        const double r0v = sum_a(slots, nt);
        if (r0v == 0.0) {
          st.reason = solvers::StopReason::breakdown;
          st.stop = true;
        } else if (!std::isfinite(r0v)) {
          st.reason = solvers::StopReason::non_finite;
          st.stop = true;
        } else {
          st.alpha = st.rho / r0v;
        }
      }
      if (st.stop) break;

      // Fused s = r - alpha v with ||s||^2.
      double ss_p = 0.0;
      for_owned([&](int, RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          s[k] = r[k] - st.alpha * v[k];
          ss_p += s[k] * s[k];
        }
      });
      slots[static_cast<std::size_t>(tid)].a = ss_p;
#pragma omp barrier
#pragma omp single
      {
        st.ss = sum_a(slots, nt);
        if (std::sqrt(st.ss) <= st.threshold) st.early = true;
      }
      if (st.early) {
        for_owned([&](int, RowRange rng) {
          for (index_t i = rng.begin; i < rng.end; ++i) {
            const auto k = static_cast<std::size_t>(i);
            x[k] += st.alpha * p[k];
            r[k] = s[k];
          }
        });
#pragma omp barrier
#pragma omp single
        {
          st.iters = it + 1;
          st.rr = st.ss;
          st.reason = solvers::StopReason::converged;
          if (track) {
            result.residual_history[static_cast<std::size_t>(it)] = std::sqrt(st.rr);
            result.iter_seconds[static_cast<std::size_t>(it)] = iter_timer.seconds();
          }
        }
        break;
      }

      // Fused t = A s with t·s, plus the owned-rows t·t in the same phase.
      if (tid == 0) pass.reset();
      double ts_p = 0.0, tt_p = 0.0;
      for_owned([&](int pi, RowRange) { ts_p += spmv.run_local_dot(pi, s, t, s); });
      for_owned([&](int, RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          tt_p += t[k] * t[k];
        }
      });
      slots[static_cast<std::size_t>(tid)] = {ts_p, tt_p};
#pragma omp barrier
      if (tid == 0) {
        spmv_seconds += pass.seconds();
        ++fused_passes;
      }
#pragma omp single
      {
        const double ts = sum_a(slots, nt);
        const double tt = sum_b(slots, nt);
        if (tt == 0.0) {
          st.reason = solvers::StopReason::breakdown;
          st.stop = true;
        } else if (!std::isfinite(tt) || !std::isfinite(ts)) {
          st.reason = solvers::StopReason::non_finite;
          st.stop = true;
        } else {
          st.omega = ts / tt;
          if (st.omega == 0.0) {
            st.reason = solvers::StopReason::breakdown;
            st.stop = true;
          }
        }
      }
      if (st.stop) break;

      // Fused x, r updates with rho' = r0·r and r·r.
      double rho_n = 0.0, rr_n = 0.0;
      for_owned([&](int, RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          x[k] += st.alpha * p[k] + st.omega * s[k];
          r[k] = s[k] - st.omega * t[k];
          rho_n += r0[k] * r[k];
          rr_n += r[k] * r[k];
        }
      });
      slots[static_cast<std::size_t>(tid)] = {rho_n, rr_n};
#pragma omp barrier
#pragma omp single
      {
        const double rho_next = sum_a(slots, nt);
        st.beta = (rho_next / st.rho) * (st.alpha / st.omega);
        st.rho = rho_next;
        st.rr = sum_b(slots, nt);
        st.iters = it + 1;
        if (track) {
          result.residual_history[static_cast<std::size_t>(it)] = std::sqrt(st.rr);
          result.iter_seconds[static_cast<std::size_t>(it)] = iter_timer.seconds();
        }
      }

      // p = r + beta (p - omega v); barrier publishes p before the next SpMV.
      for_owned([&](int, RowRange rng) {
        for (index_t i = rng.begin; i < rng.end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          p[k] = r[k] + st.beta * (p[k] - st.omega * v[k]);
        }
      });
#pragma omp barrier
    }
  }

  if (track) {
    result.residual_history.resize(static_cast<std::size_t>(st.iters));
    result.iter_seconds.resize(static_cast<std::size_t>(st.iters));
  }
  result.iterations = st.iters;
  result.stop_reason = st.reason;
  result.converged = st.reason == solvers::StopReason::converged;
  result.residual_norm = std::sqrt(st.rr);
  result.spmv_seconds = spmv_seconds;
  result.seconds = total.seconds();
  auto& reg = obs::Registry::global();
  reg.counter("engine.bicgstab.solves").add();
  count_stop(reg, st.reason);
  reg.counter("engine.bicgstab.iterations").add(st.iters);
  reg.counter("engine.fused_spmv_dot.passes").add(fused_passes);
  if (track) {
    const obs::Histogram h = reg.histogram("engine.bicgstab.iter_micros");
    for (double s : result.iter_seconds) h.record(s * 1e6);
  }
  return result;
}

solvers::SolveResult SolverEngine::gmres(std::span<const value_t> b,
                                         std::span<value_t> x) const {
  const CsrMatrix& a = *a_;
  if (a.nrows() != a.ncols()) throw std::invalid_argument{"engine gmres: matrix must be square"};
  const auto n = static_cast<std::size_t>(a.nrows());
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument{"engine gmres: vector size mismatch"};
  }

  constexpr int m = kGmresRestart;
  constexpr auto mz = static_cast<std::size_t>(m);
  const int max_it = opts_.max_iterations;
  const kernels::PreparedSpmv& spmv = *prepared_;

  solvers::SolveResult result;
  solvers::StopReason reason = solvers::StopReason::max_iterations;
  Timer total;
  Timer spmv_timer;
  Timer iter_timer;
  const bool track = obs::enabled();
  if (track) {
    result.residual_history.resize(static_cast<std::size_t>(max_it));
    result.iter_seconds.resize(static_cast<std::size_t>(max_it));
  }

  const double b_norm = norm2(b);
  const double threshold = opts_.tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  // Krylov basis v_0..v_m (n values each) and the (m+1) x m Hessenberg
  // matrix, both row-major and allocated once: every restart overwrites the
  // entries it reads (H column k rows 0..k+1 are written before the
  // back-substitution reads them), so nothing is refilled between cycles.
  aligned_vector<value_t> basis((mz + 1) * n);
  std::vector<double> h((mz + 1) * mz, 0.0);
  std::vector<double> cs(mz, 0.0), sn(mz, 0.0), g(mz + 1, 0.0), y(mz, 0.0);
  aligned_vector<value_t> w(n);
  const auto v = [&](int i) {
    return std::span<value_t>{basis}.subspan(static_cast<std::size_t>(i) * n, n);
  };
  const auto hh = [&](int i, int j) -> double& {
    return h[static_cast<std::size_t>(i) * mz + static_cast<std::size_t>(j)];
  };
  const auto spmv_into_w = [&](std::span<const value_t> in) {
    spmv_timer.reset();
    spmv.run(in, w);
    result.spmv_seconds += spmv_timer.seconds();
  };

  while (result.iterations < max_it) {
    // v_0 = r / ||r||, r = b - A x.
    spmv_into_w(x);
    const auto v0 = v(0);
    for (std::size_t i = 0; i < n; ++i) v0[i] = b[i] - w[i];
    const double beta = norm2(v0);
    result.residual_norm = beta;
    if (!std::isfinite(beta)) {
      reason = solvers::StopReason::non_finite;  // before the test: see cg
      break;
    }
    if (beta <= threshold) {
      reason = solvers::StopReason::converged;
      break;
    }
    for (std::size_t i = 0; i < n; ++i) v0[i] /= beta;
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int k = 0;
    for (; k < m && result.iterations < max_it; ++k) {
      if (track) iter_timer.reset();
      ++result.iterations;
      // Arnoldi step: w = A v_k, orthogonalized against v_0..v_k (MGS).
      spmv_into_w(v(k));
      for (int i = 0; i <= k; ++i) {
        const double hik = dot(w, v(i));
        hh(i, k) = hik;
        axpy(-hik, v(i), w);
      }
      const double hk1 = norm2(w);
      hh(k + 1, k) = hk1;
      if (hk1 > 0.0) {
        const auto vk1 = v(k + 1);
        for (std::size_t i = 0; i < n; ++i) vk1[i] = w[i] / hk1;
      }

      // Apply the previous Givens rotations to the new column, then the
      // one that annihilates H(k+1, k).
      for (int i = 0; i < k; ++i) {
        const auto iz = static_cast<std::size_t>(i);
        const double t1 = std::fma(cs[iz], hh(i, k), sn[iz] * hh(i + 1, k));
        const double t2 = std::fma(-sn[iz], hh(i, k), cs[iz] * hh(i + 1, k));
        hh(i, k) = t1;
        hh(i + 1, k) = t2;
      }
      const auto kz = static_cast<std::size_t>(k);
      const double denom = std::hypot(hh(k, k), hh(k + 1, k));
      if (denom == 0.0) {
        reason = solvers::StopReason::breakdown;
        break;
      }
      cs[kz] = hh(k, k) / denom;
      sn[kz] = hh(k + 1, k) / denom;
      hh(k, k) = denom;
      hh(k + 1, k) = 0.0;
      const double g_k = cs[kz] * g[kz];
      g[kz + 1] = -sn[kz] * g[kz];
      g[kz] = g_k;

      // |g_{k+1}| is the residual norm of the current least-squares iterate.
      result.residual_norm = std::abs(g[kz + 1]);
      if (track) {
        const auto it = static_cast<std::size_t>(result.iterations - 1);
        result.residual_history[it] = result.residual_norm;
        result.iter_seconds[it] = iter_timer.seconds();
      }
      if (result.residual_norm <= threshold) {
        ++k;
        break;
      }
      if (!std::isfinite(result.residual_norm)) {
        reason = solvers::StopReason::non_finite;
        break;  // column k is not applied
      }
    }

    // Back-substitute H y = g over the k finished columns, then x += V y.
    for (int i = k - 1; i >= 0; --i) {
      double acc = g[static_cast<std::size_t>(i)];
      for (int j = i + 1; j < k; ++j) acc = std::fma(-hh(i, j), y[static_cast<std::size_t>(j)], acc);
      y[static_cast<std::size_t>(i)] = hh(i, i) != 0.0 ? acc / hh(i, i) : 0.0;
    }
    for (int i = 0; i < k; ++i) axpy(y[static_cast<std::size_t>(i)], v(i), x);

    if (result.residual_norm <= threshold) {
      reason = solvers::StopReason::converged;
      break;
    }
    if (reason != solvers::StopReason::max_iterations) break;
  }

  if (track) {
    result.residual_history.resize(static_cast<std::size_t>(result.iterations));
    result.iter_seconds.resize(static_cast<std::size_t>(result.iterations));
  }
  result.stop_reason = reason;
  result.converged = reason == solvers::StopReason::converged;
  result.seconds = total.seconds();
  auto& reg = obs::Registry::global();
  reg.counter("engine.gmres.solves").add();
  reg.counter("engine.gmres.iterations").add(result.iterations);
  count_stop(reg, reason);
  if (track) {
    const obs::Histogram hist = reg.histogram("engine.gmres.iter_micros");
    for (double s : result.iter_seconds) hist.record(s * 1e6);
  }
  return result;
}

}  // namespace sparta::engine
