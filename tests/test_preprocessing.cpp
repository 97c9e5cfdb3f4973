// Parallel inspector pipeline (DESIGN.md §13): every two-pass OpenMP format
// builder must produce BIT-IDENTICAL output to its serial reference twin at
// every thread count — including edge matrices with empty rows, a single
// row, and pathologically dense rows — and the fingerprint-keyed plan cache
// must follow its documented hit/miss/invalidation rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "machine/machine_spec.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/decomposed_csr.hpp"
#include "sparse/delta_csr.hpp"
#include "sparse/partition.hpp"
#include "sparse/sell.hpp"
#include "tuner/optimizer.hpp"
#include "tuner/plan_cache.hpp"

namespace sparta {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

template <typename T>
void expect_span_eq(std::span<const T> a, std::span<const T> b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << "[" << i << "]";
  }
}

void expect_csr_eq(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.nrows(), b.nrows());
  ASSERT_EQ(a.ncols(), b.ncols());
  expect_span_eq(a.rowptr(), b.rowptr(), "csr.rowptr");
  expect_span_eq(a.colind(), b.colind(), "csr.colind");
  expect_span_eq(a.values(), b.values(), "csr.values");
}

/// Rows 0 and 3 empty, row 2 carries most of the nonzeros.
CsrMatrix empty_row_matrix() {
  numa_vector<offset_t> rowptr{0, 0, 2, 6, 6, 7};
  numa_vector<index_t> colind{1, 4, 0, 2, 3, 5, 2};
  numa_vector<value_t> values{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  return CsrMatrix{5, 6, std::move(rowptr), std::move(colind), std::move(values)};
}

CsrMatrix single_row_matrix() {
  numa_vector<offset_t> rowptr{0, 3};
  numa_vector<index_t> colind{0, 3, 7};
  numa_vector<value_t> values{1.5, -2.5, 3.5};
  return CsrMatrix{1, 8, std::move(rowptr), std::move(colind), std::move(values)};
}

/// One fully dense row inside an otherwise diagonal matrix — exercises the
/// long-row split of the decomposed format and SELL's sorting window.
CsrMatrix dense_row_matrix() {
  const index_t n = 64;
  numa_vector<offset_t> rowptr(static_cast<std::size_t>(n) + 1);
  numa_vector<index_t> colind;
  numa_vector<value_t> values;
  rowptr[0] = 0;
  for (index_t i = 0; i < n; ++i) {
    if (i == 10) {
      for (index_t j = 0; j < n; ++j) {
        colind.push_back(j);
        values.push_back(0.5 * j);
      }
    } else {
      colind.push_back(i);
      values.push_back(1.0 + i);
    }
    rowptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(colind.size());
  }
  return CsrMatrix{n, n, std::move(rowptr), std::move(colind), std::move(values)};
}

CsrMatrix empty_matrix() { return CsrMatrix{}; }

/// The agreement suite: structural families plus the edge cases.
std::vector<CsrMatrix> suite() {
  std::vector<CsrMatrix> out;
  out.push_back(gen::banded(300, 12, 7, 41));
  out.push_back(gen::random_uniform(500, 9, 42));
  out.push_back(gen::circuit_like(400, 3, 4, 300, 43));
  out.push_back(gen::block_diagonal(240, 8, 44));
  out.push_back(empty_row_matrix());
  out.push_back(single_row_matrix());
  out.push_back(dense_row_matrix());
  out.push_back(empty_matrix());
  return out;
}

TEST(BuilderAgreement, CsrFromCooMatchesAcrossThreadCounts) {
  for (const CsrMatrix& m : suite()) {
    CooMatrix coo{m.nrows(), m.ncols()};
    coo.reserve(static_cast<std::size_t>(m.nnz()));
    for (index_t i = 0; i < m.nrows(); ++i) {
      const auto cols = m.row_cols(i);
      const auto vals = m.row_vals(i);
      for (std::size_t j = 0; j < cols.size(); ++j) coo.add(i, cols[j], vals[j]);
    }
    const CsrMatrix ref = CsrMatrix::from_coo(coo, 1);
    expect_csr_eq(ref, m);
    for (const int t : kThreadCounts) expect_csr_eq(CsrMatrix::from_coo(coo, t), ref);
  }
}

TEST(BuilderAgreement, DeltaMatchesSerial) {
  for (const CsrMatrix& m : suite()) {
    const auto ref = DeltaCsrMatrix::compress_serial(m);
    for (const int t : kThreadCounts) {
      const auto par = DeltaCsrMatrix::compress(m, t);
      ASSERT_EQ(par.has_value(), ref.has_value());
      if (!ref) continue;
      EXPECT_EQ(par->width(), ref->width());
      expect_span_eq(par->rowptr(), ref->rowptr(), "delta.rowptr");
      expect_span_eq(par->first_col(), ref->first_col(), "delta.first_col");
      expect_span_eq(par->deltas8(), ref->deltas8(), "delta.deltas8");
      expect_span_eq(par->deltas16(), ref->deltas16(), "delta.deltas16");
      expect_span_eq(par->values(), ref->values(), "delta.values");
    }
  }
}

TEST(BuilderAgreement, DeltaRefusalMatchesSerial) {
  // Column span of 70000 exceeds the 16-bit delta budget: both paths refuse.
  numa_vector<offset_t> rowptr{0, 2};
  numa_vector<index_t> colind{0, 70000};
  numa_vector<value_t> values{1.0, 2.0};
  const CsrMatrix wide{1, 70001, std::move(rowptr), std::move(colind), std::move(values)};
  EXPECT_FALSE(DeltaCsrMatrix::compress_serial(wide).has_value());
  for (const int t : kThreadCounts) {
    EXPECT_FALSE(DeltaCsrMatrix::compress(wide, t).has_value());
  }
}

TEST(BuilderAgreement, SellMatchesSerial) {
  for (const CsrMatrix& m : suite()) {
    for (const auto& [chunk, sigma] : {std::pair<index_t, index_t>{4, 16},
                                      std::pair<index_t, index_t>{8, 64}}) {
      const SellMatrix ref = SellMatrix::from_csr_serial(m, chunk, sigma);
      for (const int t : kThreadCounts) {
        const SellMatrix par = SellMatrix::from_csr(m, chunk, sigma, t);
        ASSERT_EQ(par.nchunks(), ref.nchunks());
        ASSERT_EQ(par.padded_nnz(), ref.padded_nnz());
        for (index_t k = 0; k < ref.nchunks(); ++k) {
          ASSERT_EQ(par.chunk_len(k), ref.chunk_len(k)) << "chunk " << k;
          ASSERT_EQ(par.chunk_offset(k), ref.chunk_offset(k)) << "chunk " << k;
        }
        for (index_t p = 0; p < m.nrows(); ++p) {
          ASSERT_EQ(par.row_of(p), ref.row_of(p)) << "lane " << p;
          ASSERT_EQ(par.row_len(p), ref.row_len(p)) << "lane " << p;
        }
        expect_span_eq(par.colind(), ref.colind(), "sell.colind");
        expect_span_eq(par.values(), ref.values(), "sell.values");
      }
    }
  }
}

TEST(BuilderAgreement, DecomposedMatchesSerial) {
  for (const CsrMatrix& m : suite()) {
    for (const index_t threshold : {index_t{0}, index_t{8}}) {
      const auto ref = DecomposedCsrMatrix::decompose_serial(m, threshold);
      for (const int t : kThreadCounts) {
        const auto par = DecomposedCsrMatrix::decompose(m, threshold, t);
        EXPECT_EQ(par.threshold(), ref.threshold());
        expect_csr_eq(par.short_part(), ref.short_part());
        expect_span_eq(par.long_rows(), ref.long_rows(), "decomposed.long_rows");
        expect_span_eq(par.long_rowptr(), ref.long_rowptr(), "decomposed.long_rowptr");
        expect_span_eq(par.long_colind(), ref.long_colind(), "decomposed.long_colind");
        expect_span_eq(par.long_values(), ref.long_values(), "decomposed.long_values");
      }
    }
  }
}

TEST(BuilderAgreement, PartitionersMatchAcrossThreadCounts) {
  const CsrMatrix m = gen::circuit_like(4000, 3, 5, 3000, 45);
  for (const int nparts : {1, 3, 7, 32, 61, 240}) {
    const auto ref_nnz = partition_balanced_nnz(m, nparts, 1);
    const auto ref_rows = partition_equal_rows(m.nrows(), nparts, 1);
    validate_partition(ref_nnz, m.nrows());
    validate_partition(ref_rows, m.nrows());
    for (const int t : kThreadCounts) {
      EXPECT_EQ(partition_balanced_nnz(m, nparts, t), ref_nnz) << "nparts " << nparts;
      EXPECT_EQ(partition_equal_rows(m.nrows(), nparts, t), ref_rows)
          << "nparts " << nparts;
    }
  }
}

// --- Fingerprint + plan cache ----------------------------------------------

TEST(FingerprintTest, DeterministicAcrossThreadCounts) {
  std::vector<CsrMatrix> mats = suite();
  mats.push_back(gen::banded(40000, 24, 12, 45));  // several hash chunks
  ASSERT_GT(mats.back().nnz(), 4 * 65536);
  for (const CsrMatrix& m : mats) {
    const tuner::Fingerprint ref = tuner::fingerprint(m, 1);
    EXPECT_EQ(ref.nrows, m.nrows());
    EXPECT_EQ(ref.ncols, m.ncols());
    EXPECT_EQ(ref.nnz, m.nnz());
    for (const int t : {2, 3, 4, 8}) EXPECT_EQ(tuner::fingerprint(m, t), ref);
  }
}

TEST(FingerprintTest, DistinguishesContent) {
  CsrMatrix a = gen::banded(200, 6, 4, 46);
  const tuner::Fingerprint before = tuner::fingerprint(a);
  a.values_mut()[0] += 1.0;
  EXPECT_NE(tuner::fingerprint(a), before);
  const CsrMatrix b = gen::banded(200, 6, 4, 47);  // same shape, other values
  EXPECT_NE(tuner::fingerprint(b), before);
}

TEST(FingerprintTest, SignFlipsInOneLaneDoNotCancel) {
  // Words 32 bytes apart feed the same hash lane.
  CsrMatrix m = gen::banded(200, 6, 4, 48);
  const std::uint64_t before = tuner::fingerprint(m).hash;
  const auto v = m.values_mut();
  for (const std::size_t j : {0, 1, 5, 17}) {
    for (const std::size_t stride : {4, 8}) {
      v[j] = -v[j];
      v[j + stride] = -v[j + stride];
      EXPECT_NE(tuner::fingerprint(m).hash, before) << j << " and " << j + stride;
      v[j] = -v[j];
      v[j + stride] = -v[j + stride];
    }
  }
  EXPECT_EQ(tuner::fingerprint(m).hash, before);
}

TEST(FingerprintTest, SwappedValuesChangeTheHash) {
  CsrMatrix m = gen::banded(200, 6, 4, 49);
  const std::uint64_t before = tuner::fingerprint(m).hash;
  const auto v = m.values_mut();
  for (const auto& [i, j] : {std::pair<std::size_t, std::size_t>{0, 1}, {0, 4}, {3, 40}}) {
    ASSERT_NE(v[i], v[j]);
    std::swap(v[i], v[j]);
    EXPECT_NE(tuner::fingerprint(m).hash, before) << i << " <-> " << j;
    std::swap(v[i], v[j]);
  }
}

/// Every byte the fingerprint reads, in hash order: rowptr, colind, values.
/// The matrix owns its arrays and is not const, so flipping a bit through
/// the read-only views is defined; the fingerprint never validates.
std::vector<std::span<unsigned char>> storage_bytes(CsrMatrix& m) {
  const auto bytes_of = [](auto s) {
    return std::span<unsigned char>{
        reinterpret_cast<unsigned char*>(const_cast<void*>(static_cast<const void*>(s.data()))),
        s.size_bytes()};
  };
  return {bytes_of(m.rowptr()), bytes_of(m.colind()), bytes_of(m.values())};
}

TEST(FingerprintTest, EveryTailBitCounts) {
  // 6 rows and 13 or 11 nonzeros: 56-byte rowptr, 52/44-byte colind,
  // 104/88-byte values, none a multiple of the 32-byte stripe.
  for (const offset_t nnz : {13, 11}) {
    numa_vector<offset_t> rowptr{0, 2, 4, 6, 8, 10, nnz};
    numa_vector<index_t> colind;
    numa_vector<value_t> values;
    for (offset_t k = 0; k < nnz; ++k) {
      const auto row = static_cast<index_t>(std::min<offset_t>(k / 2, 5));
      colind.push_back(static_cast<index_t>(k - 2 * row));
      values.push_back(0.25 * static_cast<double>(k + 1));
    }
    CsrMatrix m{6, 8, std::move(rowptr), std::move(colind), std::move(values)};
    const std::uint64_t before = tuner::fingerprint(m).hash;
    for (const auto bytes : storage_bytes(m)) {
      ASSERT_NE(bytes.size() % 32, 0u);
      for (std::size_t b = bytes.size() - bytes.size() % 32; b < bytes.size(); ++b) {
        for (int bit = 0; bit < 8; ++bit) {
          bytes[b] ^= static_cast<unsigned char>(1u << bit);
          EXPECT_NE(tuner::fingerprint(m).hash, before) << "byte " << b << " bit " << bit;
          bytes[b] ^= static_cast<unsigned char>(1u << bit);
        }
      }
    }
    EXPECT_EQ(tuner::fingerprint(m).hash, before);
  }
}

TEST(FingerprintTest, EverySingleBitFlipIsDistinct) {
  CsrMatrix m = gen::banded(24, 3, 3, 50);
  const std::uint64_t before = tuner::fingerprint(m).hash;
  std::set<std::uint64_t> seen{before};
  std::size_t flips = 0;
  for (const auto bytes : storage_bytes(m)) {
    for (std::size_t b = 0; b < bytes.size(); ++b) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[b] ^= static_cast<unsigned char>(1u << bit);
        seen.insert(tuner::fingerprint(m).hash);
        bytes[b] ^= static_cast<unsigned char>(1u << bit);
        ++flips;
      }
    }
  }
  EXPECT_EQ(tuner::fingerprint(m).hash, before);
  EXPECT_EQ(seen.size(), flips + 1);  // every flip differs from the original and the others
}

TEST(PlanCacheTest, TuneHitsOnSameMatrix) {
  tuner::PlanCache cache{4};
  const Autotuner tuner{knc()};
  const CsrMatrix m = gen::random_uniform(3000, 10, 48);
  const OptimizationPlan first = cache.tune(tuner, m);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  const OptimizationPlan second = cache.tune(tuner, m);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(second.strategy, first.strategy);
  EXPECT_EQ(second.config.describe(), first.config.describe());
  EXPECT_DOUBLE_EQ(second.gflops, first.gflops);
  EXPECT_DOUBLE_EQ(second.t_pre_seconds, first.t_pre_seconds);
  // A different policy is a different key.
  (void)cache.tune(tuner, m, {.policy = TunePolicy::kOracle});
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, PrepareReturnsSharedInstanceOnHit) {
  tuner::PlanCache cache{4};
  const CsrMatrix m = gen::banded(800, 10, 6, 49);
  const auto a = cache.prepare(m, {.threads = 2});
  const auto b = cache.prepare(m, {.threads = 2});
  EXPECT_EQ(a.get(), b.get());  // a hit shares the prepared instance
  EXPECT_EQ(cache.stats().hits, 1u);
  const auto c = cache.prepare(m, {.threads = 3});  // different key
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, InPlaceMutationInvalidates) {
  tuner::PlanCache cache{4};
  CsrMatrix m = gen::banded(800, 10, 6, 50);
  const auto a = cache.prepare(m);
  m.values_mut()[0] *= 2.0;  // same addresses, different bytes
  const auto b = cache.prepare(m);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, EvictsLruAtCapacityAndClears) {
  tuner::PlanCache cache{2};
  std::vector<CsrMatrix> ms;
  for (int i = 0; i < 3; ++i) ms.push_back(gen::random_uniform(300, 5, 51 + i));
  std::vector<std::shared_ptr<const kernels::PreparedSpmv>> held;
  for (const CsrMatrix& m : ms) held.push_back(cache.prepare(m));
  EXPECT_EQ(cache.size(), 2u);
  // ms[0] was evicted (LRU): preparing it again misses.
  (void)cache.prepare(ms[0]);
  EXPECT_EQ(cache.stats().misses, 4u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 4u);  // stats survive clear()
}

TEST(PlanCacheTest, EngineAdoptsCachedKernel) {
  tuner::PlanCache cache{4};
  const CsrMatrix m = gen::stencil5(20, 20);  // SPD, so cg() below converges
  const auto prepared = cache.prepare(m, {.threads = 2});
  const engine::SolverEngine eng{m, prepared};
  EXPECT_EQ(&eng.prepared(), prepared.get());  // no re-preparation
  EXPECT_EQ(eng.threads(), prepared->threads());
  EXPECT_EQ(cache.stats().misses, 1u);

  aligned_vector<value_t> b(static_cast<std::size_t>(m.nrows()), 1.0);
  aligned_vector<value_t> x(static_cast<std::size_t>(m.nrows()), 0.0);
  const auto result = eng.cg(b, x);
  EXPECT_TRUE(result.converged);

  EXPECT_THROW(engine::SolverEngine(m, nullptr), std::invalid_argument);
}

TEST(PlanCacheTest, GlobalInstanceIsShared) {
  tuner::PlanCache& g1 = tuner::PlanCache::global();
  tuner::PlanCache& g2 = tuner::PlanCache::global();
  EXPECT_EQ(&g1, &g2);
}

}  // namespace
}  // namespace sparta
