// google-benchmark micro-benchmarks of the *real* host kernels — the
// executable counterparts of every optimization in the pool. These numbers
// are host-hardware measurements (not the modeled platforms); they verify
// that each kernel variant is a working, competitive implementation.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.hpp"

#include "common/prng.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/microbench_kernels.hpp"
#include "kernels/spmv_sell.hpp"
#include "sparse/sell.hpp"
#include "tuner/optimizations.hpp"

namespace {

using namespace sparta;

const CsrMatrix& banded_matrix() {
  static const CsrMatrix m = gen::banded(60000, 200, 12, 901);
  return m;
}

const CsrMatrix& scattered_matrix() {
  static const CsrMatrix m = gen::random_uniform(30000, 16, 902);
  return m;
}

const CsrMatrix& skewed_matrix() {
  static const CsrMatrix m = gen::circuit_like(60000, 3, 6, 40000, 903);
  return m;
}

aligned_vector<value_t> input_vector(const CsrMatrix& m) {
  Xoshiro256 rng{904};
  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

void run_config(benchmark::State& state, const CsrMatrix& m, const sim::KernelConfig& cfg) {
  const kernels::PreparedSpmv prepared{m, kernels::SpmvOptions{.config = cfg, .threads = 4}};
  const auto x = input_vector(m);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  for (auto _ : state) {
    prepared.run(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m.nnz()) * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_CsrBaseline_Banded(benchmark::State& state) {
  run_config(state, banded_matrix(), sim::KernelConfig{});
}
BENCHMARK(BM_CsrBaseline_Banded);

void BM_DeltaVec_Banded(benchmark::State& state) {
  run_config(state, banded_matrix(), config_for({Optimization::kDeltaVec}));
}
BENCHMARK(BM_DeltaVec_Banded);

void BM_UnrollVec_Banded(benchmark::State& state) {
  run_config(state, banded_matrix(), config_for({Optimization::kUnrollVec}));
}
BENCHMARK(BM_UnrollVec_Banded);

void BM_CsrBaseline_Scattered(benchmark::State& state) {
  run_config(state, scattered_matrix(), sim::KernelConfig{});
}
BENCHMARK(BM_CsrBaseline_Scattered);

void BM_Prefetch_Scattered(benchmark::State& state) {
  run_config(state, scattered_matrix(), config_for({Optimization::kPrefetch}));
}
BENCHMARK(BM_Prefetch_Scattered);

void BM_CsrBaseline_Skewed(benchmark::State& state) {
  run_config(state, skewed_matrix(), sim::KernelConfig{});
}
BENCHMARK(BM_CsrBaseline_Skewed);

void BM_Decompose_Skewed(benchmark::State& state) {
  run_config(state, skewed_matrix(), config_for({Optimization::kDecompose}));
}
BENCHMARK(BM_Decompose_Skewed);

void BM_AutoSched_Skewed(benchmark::State& state) {
  run_config(state, skewed_matrix(), config_for({Optimization::kAutoSched}));
}
BENCHMARK(BM_AutoSched_Skewed);

void BM_Sell_Banded(benchmark::State& state) {
  const CsrMatrix& m = banded_matrix();
  const auto sell = SellMatrix::from_csr(m, 8, 256);
  const auto x = input_vector(m);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  for (auto _ : state) {
    kernels::spmv_sell(sell, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(m.nnz()) * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Sell_Banded);

// The two bound micro-benchmark kernels (paper SIII-B) on the host.
void BM_PmlKernel_Scattered(benchmark::State& state) {
  const CsrMatrix& m = scattered_matrix();
  const auto colind = kernels::regularized_colind(m);
  const auto x = input_vector(m);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto parts = partition_balanced_nnz(m, 4);
  for (auto _ : state) {
    kernels::spmv_with_colind(m, colind, x, y, parts);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_PmlKernel_Scattered);

void BM_PcmpKernel_Scattered(benchmark::State& state) {
  const CsrMatrix& m = scattered_matrix();
  const auto x = input_vector(m);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  const auto parts = partition_balanced_nnz(m, 4);
  for (auto _ : state) {
    kernels::spmv_unit_stride(m, x, y, parts);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_PcmpKernel_Scattered);

}  // namespace

// --threads is stripped by bench::init before google-benchmark parses the
// rest of the command line.
int main(int argc, char** argv) {
  sparta::bench::init(argc, argv);
  std::cout << "threads: " << sparta::bench::effective_threads()
            << " (set with --threads N)\n";
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
