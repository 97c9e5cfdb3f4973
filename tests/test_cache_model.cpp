// Tests for the set-associative LRU cache model that powers the x-access
// miss accounting in the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "common/prng.hpp"
#include "machine/cache_model.hpp"

namespace sparta {
namespace {

TEST(Cache, FirstAccessMissesSecondHits) {
  SetAssocCache c{1024, 64, 2};
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));  // same line
  EXPECT_FALSE(c.access(64)); // next line
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, CapacityGeometry) {
  SetAssocCache c{8192, 64, 4};
  EXPECT_EQ(c.sets(), 32u);
  EXPECT_EQ(c.ways(), 4);
  EXPECT_EQ(c.capacity_bytes(), 8192u);
}

TEST(Cache, CapacityRoundsDownToPowerOfTwoSets) {
  SetAssocCache c{100 * 64, 64, 4};  // 100 lines -> 25 sets -> 16 sets
  EXPECT_EQ(c.sets(), 16u);
}

TEST(Cache, MinimumOneSet) {
  SetAssocCache c{64, 64, 8};  // capacity below ways*line
  EXPECT_EQ(c.sets(), 1u);
}

TEST(Cache, RejectsBadParameters) {
  EXPECT_THROW(SetAssocCache(1024, 0, 4), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(1024, 63, 4), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(1024, 64, 0), std::invalid_argument);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  // 1 set, 2 ways: lines A, B fill the set; touching A then adding C must
  // evict B.
  SetAssocCache c{128, 64, 2};
  ASSERT_EQ(c.sets(), 1u);
  c.access(0 * 64);   // A miss
  c.access(1 * 64);   // B miss
  c.access(0 * 64);   // A hit (A most recent)
  c.access(2 * 64);   // C miss, evicts B
  EXPECT_TRUE(c.access(0 * 64));   // A still resident
  EXPECT_FALSE(c.access(1 * 64));  // B was evicted
}

TEST(Cache, AssociativityConflictMisses) {
  // Direct-mapped: two lines mapping to the same set thrash.
  SetAssocCache c{2 * 64, 64, 1};
  ASSERT_EQ(c.sets(), 2u);
  const std::uint64_t a = 0;
  const std::uint64_t b = 2 * 64;  // same set (stride = nsets * line)
  for (int i = 0; i < 10; ++i) {
    c.access(a);
    c.access(b);
  }
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 20u);
}

TEST(Cache, FullyAssociativeHoldsWorkingSet) {
  SetAssocCache c{8 * 64, 64, 8};
  ASSERT_EQ(c.sets(), 1u);
  for (std::uint64_t l = 0; l < 8; ++l) c.access(l * 64);
  c.reset_counters();
  for (int r = 0; r < 5; ++r) {
    for (std::uint64_t l = 0; l < 8; ++l) c.access(l * 64);
  }
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_EQ(c.hits(), 40u);
}

TEST(Cache, StreamingLargerThanCacheAlwaysMisses) {
  SetAssocCache c{1024, 64, 4};
  const std::uint64_t lines = 64;  // 4 KiB stream through a 1 KiB cache
  for (int r = 0; r < 3; ++r) {
    for (std::uint64_t l = 0; l < lines; ++l) c.access(l * 64);
  }
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 3u * lines);
}

TEST(Cache, ClearForgetsContentsKeepsCounters) {
  SetAssocCache c{1024, 64, 2};
  c.access(0);
  EXPECT_TRUE(c.access(0));
  c.clear();
  EXPECT_FALSE(c.access(0));  // miss again after clear
  EXPECT_EQ(c.misses(), 2u);
  EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, ResetCountersKeepsContents) {
  SetAssocCache c{1024, 64, 2};
  c.access(0);
  c.reset_counters();
  EXPECT_TRUE(c.access(0));
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 0u);
}

// Parameterized sweep: hit rate of a cyclic working set is 100% when it
// fits, ~0% when it is twice the capacity (LRU worst case).
class CacheWorkingSet : public ::testing::TestWithParam<int> {};

TEST_P(CacheWorkingSet, CyclicReuse) {
  const int ways = GetParam();
  SetAssocCache c{64 * 64, 64, ways};
  const std::uint64_t capacity_lines = c.sets() * static_cast<std::uint64_t>(c.ways());

  // Fits: second pass all hits.
  for (std::uint64_t l = 0; l < capacity_lines; ++l) c.access(l * 64);
  c.reset_counters();
  for (std::uint64_t l = 0; l < capacity_lines; ++l) c.access(l * 64);
  EXPECT_EQ(c.misses(), 0u);

  // Twice the capacity, cyclic: LRU evicts exactly what is needed next.
  c.clear();
  c.reset_counters();
  for (int r = 0; r < 4; ++r) {
    for (std::uint64_t l = 0; l < 2 * capacity_lines; ++l) c.access(l * 64);
  }
  EXPECT_EQ(c.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheWorkingSet, ::testing::Values(1, 2, 4, 8, 16));

// --- Same-line fast path against the walk-every-access oracle ---------------

/// SetAssocCache without the same-line fast path: every access walks its set
/// and stamps the touched way with a fresh tick.
class ReferenceLruCache {
 public:
  ReferenceLruCache(std::size_t capacity_bytes, std::size_t line_bytes, int ways)
      : line_bytes_(line_bytes), ways_(ways) {
    const std::size_t lines = std::max<std::size_t>(capacity_bytes / line_bytes, ways_);
    nsets_ = std::max<std::size_t>(std::bit_floor(lines / static_cast<std::size_t>(ways_)), 1);
    lines_.assign(nsets_ * static_cast<std::size_t>(ways_), Line{});
  }

  bool access(std::uint64_t addr) {
    const std::uint64_t tag = addr / line_bytes_;
    Line* base = lines_.data() + (static_cast<std::size_t>(tag) & (nsets_ - 1)) *
                                     static_cast<std::size_t>(ways_);
    ++tick_;
    Line* victim = base;
    for (int w = 0; w < ways_; ++w) {
      if (base[w].tag == tag) {
        base[w].last_use = tick_;
        return true;
      }
      if (base[w].last_use < victim->last_use) victim = &base[w];
    }
    victim->tag = tag;
    victim->last_use = tick_;
    return false;
  }

  void clear() {
    std::fill(lines_.begin(), lines_.end(), Line{});
    tick_ = 0;
  }

 private:
  struct Line {
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint64_t last_use = 0;
  };
  std::size_t line_bytes_;
  std::size_t nsets_;
  int ways_;
  std::uint64_t tick_ = 0;
  std::vector<Line> lines_;
};

/// Replays `addrs` through both caches (clearing both every `clear_every`
/// accesses) and requires the same hit/miss at every step.
void expect_same_sequence(std::size_t capacity, std::size_t line, int ways,
                          const std::vector<std::uint64_t>& addrs, std::size_t clear_every) {
  SetAssocCache fast{capacity, line, ways};
  ReferenceLruCache ref{capacity, line, ways};
  std::uint64_t hits = 0;
  for (std::size_t k = 0; k < addrs.size(); ++k) {
    if (k > 0 && k % clear_every == 0) {
      fast.clear();
      ref.clear();
    }
    const bool want = ref.access(addrs[k]);
    ASSERT_EQ(fast.access(addrs[k]), want) << "access " << k << " addr " << addrs[k];
    if (want) ++hits;
  }
  EXPECT_EQ(fast.hits(), hits);
  EXPECT_EQ(fast.misses(), addrs.size() - hits);
}

TEST(Cache, SameLineFastPathMatchesOracleOnRandomStreams) {
  Xoshiro256 rng{0xcac4e};
  for (const int ways : {1, 2, 8}) {
    // Random lines in a window a few times the capacity, each touched in a
    // short run of same-line and neighbouring addresses (the CSR x stream).
    std::vector<std::uint64_t> addrs;
    while (addrs.size() < 40000) {
      const std::uint64_t line = rng.bounded(256);
      const std::uint64_t run = 1 + rng.bounded(6);
      for (std::uint64_t r = 0; r < run; ++r) addrs.push_back(line * 64 + rng.bounded(80));
    }
    expect_same_sequence(64 * 64, 64, ways, addrs, 9973);
  }
}

TEST(Cache, SameLineFastPathMatchesOracleOnStridedStreams) {
  for (const std::uint64_t stride : {8U, 24U, 64U, 136U, 4096U}) {
    std::vector<std::uint64_t> addrs;
    for (int pass = 0; pass < 6; ++pass) {
      for (std::uint64_t k = 0; k < 3000; ++k) addrs.push_back(k * stride);
    }
    expect_same_sequence(16 * 1024, 64, 4, addrs, 7001);
    expect_same_sequence(1024, 32, 2, addrs, addrs.size());
  }
}

TEST(Cache, ClearForgetsTheLastTouchedLine) {
  SetAssocCache c{1024, 64, 2};
  EXPECT_FALSE(c.access(128));
  c.clear();
  EXPECT_FALSE(c.access(128));  // not a same-line hit after clear
  EXPECT_TRUE(c.access(130));
}

}  // namespace
}  // namespace sparta
