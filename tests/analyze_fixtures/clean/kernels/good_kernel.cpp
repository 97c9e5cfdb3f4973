#include "kernels/good_kernel.hpp"

#include <vector>

namespace fixture {

double dot(const double* SPARTA_RESTRICT a, const double* SPARTA_RESTRICT b, int n) {
  double acc = 0.0;
// Continued pragma with default(none): one logical directive, no finding.
#pragma omp parallel default(none) shared(a, b, n) \
    reduction(+ : acc)
  {
    // Per-thread scratch allocated inside the parallel region but OUTSIDE
    // any loop: legal (per-thread lane accumulators) — purity must not fire here.
    std::vector<double> scratch(static_cast<std::size_t>(kWidth), 0.0);
#pragma omp for schedule(static)
    for (int i = 0; i < n; ++i) {
      scratch[static_cast<std::size_t>(i) % scratch.size()] = a[i] * b[i];
      acc += a[i] * b[i];
    }
  }

  // Loop-shape edge cases the purity walker must parse without drifting.
  int spin = 0;
  do {
    ++spin;
  } while (spin < 4);
  while (spin-- > 0);
  for (const double v : {1.0, 2.0}) acc += v;
  return acc;
}

}  // namespace fixture
