// Test-only reference solvers: textbook CG (optionally Jacobi-
// preconditioned) and BiCGSTAB over the serial spmv_reference, with serial
// left-to-right dot products. They share the engine solvers' iteration
// semantics — the same convergence test on ||r|| against tol * ||b||, the
// same breakdown exits, BiCGSTAB's early exit on ||s|| — so engine and
// oracle agree to reduction-order rounding, which is what the agreement
// tests (tests/test_engine.cpp) measure.
#pragma once

#include <cmath>
#include <span>

#include "common/types.hpp"
#include "sparse/csr.hpp"

namespace sparta::oracle {

struct Result {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

inline double dot(std::span<const value_t> a, std::span<const value_t> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

inline double norm2(std::span<const value_t> a) { return std::sqrt(dot(a, a)); }

/// Solve A x = b for SPD A; `x` holds the initial guess on entry.
inline Result cg(const CsrMatrix& a, std::span<const value_t> b, std::span<value_t> x,
                 int max_iterations, double tolerance, bool jacobi = false) {
  const auto n = b.size();
  aligned_vector<value_t> inv_diag(n, 1.0);
  if (jacobi) {
    for (index_t i = 0; i < a.nrows(); ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t j = 0; j < cols.size(); ++j) {
        if (cols[j] == i && vals[j] != 0.0) {
          inv_diag[static_cast<std::size_t>(i)] = 1.0 / vals[j];
          break;
        }
      }
    }
  }
  aligned_vector<value_t> r(n), p(n), ap(n), z(n);
  spmv_reference(a, x, ap);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - ap[i];
    z[i] = inv_diag[i] * r[i];
    p[i] = z[i];
  }
  double rz = dot(r, z);
  const double b_norm = norm2(b);
  const double threshold = tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  Result res;
  for (int it = 0; it < max_iterations; ++it) {
    if (norm2(r) <= threshold) {
      res.converged = true;
      break;
    }
    spmv_reference(a, p, ap);
    const double pap = dot(p, ap);
    if (pap == 0.0) break;
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      z[i] = inv_diag[i] * r[i];
    }
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    res.iterations = it + 1;
  }
  res.residual_norm = norm2(r);
  return res;
}

/// Solve A x = b (van der Vorst's BiCGSTAB, shadow residual r0 = b - A x0).
inline Result bicgstab(const CsrMatrix& a, std::span<const value_t> b, std::span<value_t> x,
                       int max_iterations, double tolerance) {
  const auto n = b.size();
  aligned_vector<value_t> r(n), r0(n), p(n), v(n), s(n), t(n);
  spmv_reference(a, x, v);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - v[i];
    r0[i] = r[i];
    p[i] = r[i];
  }
  const double b_norm = norm2(b);
  const double threshold = tolerance * (b_norm > 0.0 ? b_norm : 1.0);
  double rho = dot(r0, r);

  Result res;
  for (int it = 0; it < max_iterations; ++it) {
    if (norm2(r) <= threshold) {
      res.converged = true;
      break;
    }
    if (rho == 0.0) break;
    spmv_reference(a, p, v);
    const double r0v = dot(r0, v);
    if (r0v == 0.0) break;
    const double alpha = rho / r0v;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    if (norm2(s) <= threshold) {
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += alpha * p[i];
        r[i] = s[i];
      }
      res.iterations = it + 1;
      res.converged = true;
      break;
    }
    spmv_reference(a, s, t);
    const double tt = dot(t, t);
    if (tt == 0.0) break;
    const double omega = dot(t, s) / tt;
    if (omega == 0.0) break;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i] + omega * s[i];
      r[i] = s[i] - omega * t[i];
    }
    const double rho_next = dot(r0, r);
    const double beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * (p[i] - omega * v[i]);
    res.iterations = it + 1;
  }
  res.residual_norm = norm2(r);
  return res;
}

}  // namespace sparta::oracle
