#include "tuner/plan_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <vector>

#include "sparse/build.hpp"

namespace sparta::tuner {

namespace {

// xxHash64 primes.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

template <class Word>
Word load(const unsigned char* p) {
  Word w;
  std::memcpy(&w, p, sizeof(Word));
  return w;
}

/// One lane step: multiplying by P2 first spreads every bit of the word
/// over the upper lane bits, and the rotate carries them back down.
std::uint64_t lane_round(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kP2, 31) * kP1;
}

/// Hash of `n` bytes from `seed` (the xxHash64 layout): four independent
/// lanes take the 8-byte words of each 32-byte stripe, so the multiplies
/// overlap instead of forming one latency chain; the finalizer folds in the
/// lanes, the tail bytes and the length.
std::uint64_t hash_bytes(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h = seed + kP5;
  if (n >= 32) {
    std::uint64_t v0 = seed + kP1 + kP2;
    std::uint64_t v1 = seed + kP2;
    std::uint64_t v2 = seed;
    std::uint64_t v3 = seed - kP1;
    for (; end - p >= 32; p += 32) {
      v0 = lane_round(v0, load<std::uint64_t>(p));
      v1 = lane_round(v1, load<std::uint64_t>(p + 8));
      v2 = lane_round(v2, load<std::uint64_t>(p + 16));
      v3 = lane_round(v3, load<std::uint64_t>(p + 24));
    }
    h = std::rotl(v0, 1) + std::rotl(v1, 7) + std::rotl(v2, 12) + std::rotl(v3, 18);
    for (const std::uint64_t v : {v0, v1, v2, v3}) h = (h ^ lane_round(0, v)) * kP1 + kP4;
  }
  h += n;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ lane_round(0, load<std::uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (load<std::uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

template <class T>
std::uint64_t hash_chunk(std::span<const T> s, int nchunks, int c, std::uint64_t h) {
  const auto b = build::chunk_begin(s.size(), nchunks, c);
  const auto e = build::chunk_begin(s.size(), nchunks, c + 1);
  return hash_bytes(s.data() + b, (e - b) * sizeof(T), h);
}

}  // namespace

Fingerprint fingerprint(const CsrMatrix& m, int threads) {
  const int nthreads = build::resolve_threads(threads);
  // Chunk count is a function of nnz alone and the per-chunk hashes combine
  // in chunk order, so the result is independent of the thread count.
  const auto nnz = static_cast<std::size_t>(m.nnz());
  const int nchunks = static_cast<int>(std::clamp<std::size_t>(nnz / 65536, 1, 256));
  const auto rowptr = m.rowptr();
  const auto colind = m.colind();
  const auto values = m.values();
  std::vector<std::uint64_t> chunk_hash(static_cast<std::size_t>(nchunks));
#pragma omp parallel for default(none) \
    shared(chunk_hash, rowptr, colind, values, nchunks) num_threads(nthreads) \
    schedule(static)
  for (int c = 0; c < nchunks; ++c) {
    std::uint64_t h = hash_chunk(rowptr, nchunks, c, 0);
    h = hash_chunk(colind, nchunks, c, h);
    h = hash_chunk(values, nchunks, c, h);
    chunk_hash[static_cast<std::size_t>(c)] = h;
  }
  const std::uint64_t h =
      hash_bytes(chunk_hash.data(), chunk_hash.size() * sizeof(std::uint64_t), 0);
  return Fingerprint{h, m.nrows(), m.ncols(), m.nnz()};
}

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

void PlanCache::note_hit() {
  ++stats_.hits;
  if (obs::enabled()) obs::Registry::global().counter("tuner.plan_cache.hit").add();
}

void PlanCache::note_miss() {
  ++stats_.misses;
  if (obs::enabled()) obs::Registry::global().counter("tuner.plan_cache.miss").add();
}

void PlanCache::evict_locked() {
  while (plans_.size() + prepared_.size() > capacity_) {
    // Evict the globally least-recently-used entry across both maps. The
    // maps are capacity-bounded vectors, so a linear scan is the whole cost.
    const auto plan_it =
        std::min_element(plans_.begin(), plans_.end(),
                         [](const PlanEntry& a, const PlanEntry& b) {
                           return a.last_used < b.last_used;
                         });
    const auto prep_it =
        std::min_element(prepared_.begin(), prepared_.end(),
                         [](const PreparedEntry& a, const PreparedEntry& b) {
                           return a.last_used < b.last_used;
                         });
    const std::uint64_t plan_age =
        plan_it != plans_.end() ? plan_it->last_used : ~std::uint64_t{0};
    const std::uint64_t prep_age =
        prep_it != prepared_.end() ? prep_it->last_used : ~std::uint64_t{0};
    if (plan_age <= prep_age) {
      plans_.erase(plan_it);
    } else {
      prepared_.erase(prep_it);
    }
  }
}

OptimizationPlan PlanCache::tune(const Autotuner& tuner, const CsrMatrix& m,
                                 const TuneOptions& opts) {
  const PlanKey key{&tuner, fingerprint(m), opts.policy, opts.classifier,
                    opts.collect_trace};
  {
    std::lock_guard<std::mutex> lock{mutex_};
    for (PlanEntry& e : plans_) {
      if (e.key == key) {
        e.last_used = ++tick_;
        note_hit();
        return e.plan;
      }
    }
    note_miss();
  }
  // Tune outside the lock: concurrent misses may duplicate work, never block
  // each other behind a long inspection.
  OptimizationPlan plan = tuner.tune(m, opts);
  std::lock_guard<std::mutex> lock{mutex_};
  plans_.push_back(PlanEntry{key, plan, ++tick_});
  evict_locked();
  return plan;
}

std::shared_ptr<const kernels::PreparedSpmv> PlanCache::prepare(
    const CsrMatrix& m, const kernels::SpmvOptions& opts) {
  const PreparedKey key{&m,
                        m.rowptr().data(),
                        m.colind().data(),
                        m.values().data(),
                        fingerprint(m),
                        opts.config,
                        opts.threads,
                        opts.first_touch,
                        opts.block_width};
  {
    std::lock_guard<std::mutex> lock{mutex_};
    for (PreparedEntry& e : prepared_) {
      if (e.key == key) {
        e.last_used = ++tick_;
        note_hit();
        return e.prepared;
      }
    }
    note_miss();
  }
  auto prepared = std::make_shared<const kernels::PreparedSpmv>(m, opts);
  std::lock_guard<std::mutex> lock{mutex_};
  prepared_.push_back(PreparedEntry{key, prepared, ++tick_});
  evict_locked();
  return prepared;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return stats_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return plans_.size() + prepared_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock{mutex_};
  plans_.clear();
  prepared_.clear();
}

}  // namespace sparta::tuner
