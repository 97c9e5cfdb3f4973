// Test helper: sets the OpenMP team size (omp_set_num_threads) for one scope
// and restores the previous value on exit.
#pragma once

#include <omp.h>

namespace sparta {

class TeamSize {
 public:
  explicit TeamSize(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~TeamSize() { omp_set_num_threads(saved_); }
  TeamSize(const TeamSize&) = delete;
  TeamSize& operator=(const TeamSize&) = delete;

 private:
  int saved_;
};

}  // namespace sparta
