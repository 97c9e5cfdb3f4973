// Set-associative LRU cache model.
//
// The execution simulator replays the x-vector access stream of each thread
// through one of these to count misses — the quantity that separates the
// ML (latency-bound) class from everything else. Streaming arrays
// (values/colind/rowptr) bypass the model; their traffic is compulsory and
// is accounted analytically.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace sparta {

/// LRU set-associative cache of cache-line granularity. Every access
/// updates the clock, the hit/miss counters and the last-touched tag, so
/// each object starts its own host cache line: caches that worker threads
/// replay side by side (sim::simulate_spmv_batch) never falsely share one.
class alignas(kCacheLineBytes) SetAssocCache {
 public:
  /// Capacity is rounded down to a power-of-two number of sets. Associativity
  /// defaults to 8-way, which is representative of the modeled platforms.
  SetAssocCache(std::size_t capacity_bytes, std::size_t line_bytes = 64, int ways = 8);

  /// Touch the line containing byte address `addr`; returns true on hit.
  /// A touch of the line touched last is a hit that leaves the LRU order as
  /// it is (the line is already the most recently used), so it returns
  /// without a set walk.
  bool access(std::uint64_t addr);

  /// Forget all contents, including the last-touched line (counters are
  /// kept).
  void clear();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::size_t sets() const { return nsets_; }
  [[nodiscard]] int ways() const { return ways_; }
  [[nodiscard]] std::size_t line_bytes() const { return line_bytes_; }
  [[nodiscard]] std::size_t capacity_bytes() const { return nsets_ * ways_ * line_bytes_; }

  void reset_counters() { hits_ = misses_ = 0; }

 private:
  std::size_t line_bytes_;
  std::size_t nsets_;
  int ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  // Tag of the previous access (~0, the empty-way tag, when there is none).
  std::uint64_t last_tag_ = ~std::uint64_t{0};
  // One entry per way per set: tag (line address) and last-use tick.
  struct Line {
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint64_t last_use = 0;
  };
  std::vector<Line> lines_;
};

}  // namespace sparta
