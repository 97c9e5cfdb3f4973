// Fingerprint-keyed plan/format cache (DESIGN.md §13).
//
// Autotuning and kernel preparation both start from an inspection of the
// same immutable CSR structure; when a solver tunes, rebuilds, or re-plans
// on a matrix it has already seen, that inspection is pure waste. The cache
// keys both products on a cheap structural fingerprint:
//
//   Fingerprint = { 64-bit content hash over rowptr/colind/values,
//                   nrows, ncols, nnz }
//
// computed by a deterministic chunked parallel pass. Each chunk hashes its
// slice of the three arrays with a four-lane word hash (the xxHash64 round
// acc = rotl(acc + w * P2, 31) * P1 over 8-byte words, then a finalizer over
// the lanes, the tail bytes and the length), so the pass streams at memory
// speed rather than waiting on one multiply chain. The chunk count is a
// function of nnz only and the chunk hashes are hashed again in chunk order,
// so the value is the same for every thread count.
//
// Invalidation rules: a prepared-kernel entry additionally keys on the
// matrix object address and the addresses of all three CSR arrays, because
// a PreparedSpmv aliases the source storage. A hit therefore guarantees
// that the aliased memory currently holds exactly the bytes the entry was
// built from; mutating a matrix in place (values_mut()) changes the hash
// and misses, and a new matrix at a new address never resurrects a stale
// entry. Entries are evicted LRU once `capacity` is exceeded.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "kernels/kernel_registry.hpp"
#include "sparse/csr.hpp"
#include "tuner/optimizer.hpp"

namespace sparta::tuner {

/// Cheap structural identity of a CSR matrix (content hash + shape).
struct Fingerprint {
  std::uint64_t hash = 0;
  index_t nrows = 0;
  index_t ncols = 0;
  offset_t nnz = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Compute the fingerprint of `m`. `threads` = 0 means omp_get_max_threads();
/// the value is identical for every thread count.
Fingerprint fingerprint(const CsrMatrix& m, int threads = 0);

/// LRU cache over tuning plans and prepared kernel instances. All methods
/// are thread-safe. Hits/misses feed the `tuner.plan_cache.hit` and
/// `tuner.plan_cache.miss` obs counters.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 16);

  /// Process-wide shared instance.
  static PlanCache& global();

  /// Cached Autotuner::tune. Keyed on (tuner identity, fingerprint, policy,
  /// classifier identity, trace flag); the TuneOptions `name` label is not
  /// part of the key — a hit returns the plan traced under the first name.
  OptimizationPlan tune(const Autotuner& tuner, const CsrMatrix& m,
                        const TuneOptions& opts = {});

  /// Cached PreparedSpmv construction. Keyed on (matrix + array addresses,
  /// fingerprint, config, threads, first_touch, block_width); see the
  /// invalidation rules above — the operand-width hint is part of the key so
  /// a plan preplanned for one SpMM width is never shared with callers that
  /// hinted another. The matrix must outlive every holder of the returned
  /// pointer.
  std::shared_ptr<const kernels::PreparedSpmv> prepare(const CsrMatrix& m,
                                                       const kernels::SpmvOptions& opts = {});

  /// Lifetime hit/miss tallies (both maps combined).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Entries currently held (both maps combined).
  [[nodiscard]] std::size_t size() const;

  /// Drop every entry (stats are kept).
  void clear();

 private:
  struct PlanKey {
    const Autotuner* tuner = nullptr;
    Fingerprint fp;
    TunePolicy policy = TunePolicy::kProfile;
    const FeatureClassifier* classifier = nullptr;
    bool collect_trace = false;

    friend bool operator==(const PlanKey&, const PlanKey&) = default;
  };
  struct PreparedKey {
    const CsrMatrix* matrix = nullptr;
    const void* rowptr = nullptr;
    const void* colind = nullptr;
    const void* values = nullptr;
    Fingerprint fp;
    kernels::KernelConfig config;
    int threads = 0;
    bool first_touch = false;
    int block_width = 1;

    friend bool operator==(const PreparedKey&, const PreparedKey&) = default;
  };
  struct PlanEntry {
    PlanKey key;
    OptimizationPlan plan;
    std::uint64_t last_used = 0;
  };
  struct PreparedEntry {
    PreparedKey key;
    std::shared_ptr<const kernels::PreparedSpmv> prepared;
    std::uint64_t last_used = 0;
  };

  void note_hit();
  void note_miss();
  void evict_locked();

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::uint64_t tick_ = 0;
  Stats stats_;
  std::vector<PlanEntry> plans_;
  std::vector<PreparedEntry> prepared_;
};

}  // namespace sparta::tuner
