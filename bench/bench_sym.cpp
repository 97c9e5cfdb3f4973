// Symmetric-storage SpMV bench — SymCsr (strict lower triangle + dense
// diagonal, owner-writes scatter with a halo reduce) vs. general CSR over an
// SPD suite.
//
// For every matrix we prepare the general kernel and the symmetric kernel
// (config.symmetric through the registry, so this measures exactly what the
// tuner dispatches), verify the symmetric storage was applied, and time
// width-1 runs of both, alternating call by call; GFLOP/s and the speedup
// come from the median of each side. Reported per matrix: the matrix-stream byte ratio
// (symmetric / general, dense operands excluded — the traffic the format
// halves) and the SpMV GFLOP/s of both paths. A machine-readable summary
// goes to BENCH_sym.json.
//
// `--smoke` runs two 27-point SPD stencils only (general CSR 84 and 166 MB;
// each matrix's CSR size is printed against the detected L3, since whether
// it fits depends on the host) and asserts the gates: matrix-stream bytes
// <= 0.6x general CSR and SpMV throughput >= 1.2x the general kernel on
// every smoke matrix. `--out FILE` overrides the JSON path.
#include <unistd.h>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "kernels/kernel_registry.hpp"
#include "obs/json.hpp"
#include "sim/traffic_model.hpp"

namespace {

using namespace sparta;

/// L3 capacity the OS reports for this host, or 0 when it reports none.
std::size_t l3_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

struct Result {
  std::string name;
  index_t nrows = 0;
  offset_t nnz = 0;
  double bytes_ratio = 0.0;
  double modeled_ratio = 0.0;
  double gflops_general = 0.0;
  double gflops_sym = 0.0;
  double speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);

  bool smoke = false;
  std::string out_path = "BENCH_sym.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_sym [--smoke] [--out FILE] [--threads N]\n";
      return 2;
    }
  }

  bench::print_header("bench_sym", "symmetric storage (SymCsr) vs general CSR");
  const int threads = bench::effective_threads();
  const int reps = smoke ? 5 : 7;

  // SPD suite: Poisson stencils large enough that the matrix stream
  // dominates each SpMV — the bandwidth-bound regime where halving it must
  // show up as throughput. The smoke set uses the 27-point stencils: at
  // ~27 nnz/row the matrix stream dominates. The 5-point stencil stays in
  // the full run as the boundary case — its rows carry so few nonzeros that
  // the per-row work (diagonal, mirrored updates of y) weighs against a
  // smaller stream saving.
  std::vector<gen::NamedMatrix> matrices;
  if (smoke) {
    matrices.push_back(
        gen::NamedMatrix{"stencil27-smoke", "stencil", gen::stencil27(64, 64, 64)});
    matrices.push_back(
        gen::NamedMatrix{"stencil27-large-smoke", "stencil", gen::stencil27(80, 80, 80)});
  } else {
    matrices.push_back(gen::NamedMatrix{"stencil5-small", "stencil", gen::stencil5(500, 500)});
    matrices.push_back(
        gen::NamedMatrix{"stencil5-large", "stencil", gen::stencil5(1400, 1400)});
    matrices.push_back(
        gen::NamedMatrix{"stencil27-small", "stencil", gen::stencil27(40, 40, 40)});
    matrices.push_back(
        gen::NamedMatrix{"stencil27-large", "stencil", gen::stencil27(64, 64, 64)});
  }

  bool ok = true;
  double sink = 0.0;
  std::vector<Result> results;

  for (const auto& nm : matrices) {
    const CsrMatrix& m = nm.matrix;
    const auto rows = static_cast<std::size_t>(m.nrows());
    aligned_vector<value_t> x(rows), y(rows);
    for (std::size_t i = 0; i < rows; ++i) x[i] = 1.0 + 1e-6 * static_cast<double>(i % 1024);

    const kernels::PreparedSpmv general{m, {.config = {}, .threads = threads}};
    sim::KernelConfig sym_cfg;
    sym_cfg.symmetric = true;
    const kernels::PreparedSpmv sym{m, {.config = sym_cfg, .threads = threads}};
    if (!sym.symmetric_applied()) {
      std::cerr << "FAIL: symmetric storage not applied on " << nm.name << "\n";
      ok = false;
      continue;
    }

    // Matrix-stream bytes only: subtract the identical dense operand
    // footprint both kernels carry per run.
    const double per_column = static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
    Result r;
    r.name = nm.name;
    r.nrows = m.nrows();
    r.nnz = m.nnz();
    r.bytes_ratio =
        (sym.bytes_per_run(1) - per_column) / (general.bytes_per_run(1) - per_column);
    r.modeled_ratio = sim::sym_matrix_stream_ratio(m);

    general.run(std::span<const value_t>{x}, std::span<value_t>{y});  // warm-up
    sym.run(std::span<const value_t>{x}, std::span<value_t>{y});      // warm-up
    const auto [t_general, t_sym] = bench::time_interleaved(
        reps, sink,
        [&] {
          general.run(std::span<const value_t>{x}, std::span<value_t>{y});
          return y[0];
        },
        [&] {
          sym.run(std::span<const value_t>{x}, std::span<value_t>{y});
          return y[0];
        });

    const double flops = 2.0 * static_cast<double>(m.nnz());
    r.gflops_general = flops / t_general * 1e-9;
    r.gflops_sym = flops / t_sym * 1e-9;
    r.speedup = t_general / t_sym;
    results.push_back(r);

    std::cout << "\n" << nm.name << " (" << m.nrows() << " rows, " << m.nnz() << " nnz)\n";
    const double csr_mb = static_cast<double>(m.bytes()) / 1e6;
    const std::size_t l3 = l3_bytes();
    if (l3 > 0) {
      std::printf("  general CSR %.1f MB = %.2fx the L3 (%.1f MiB)\n", csr_mb,
                  static_cast<double>(m.bytes()) / static_cast<double>(l3),
                  static_cast<double>(l3) / (1024.0 * 1024.0));
    } else {
      std::printf("  general CSR %.1f MB (L3 size not reported)\n", csr_mb);
    }
    std::printf("  matrix bytes ratio %.3f (modeled %.3f)   general %.2f GF/s   "
                "sym %.2f GF/s   speedup %.2fx\n",
                r.bytes_ratio, r.modeled_ratio, r.gflops_general, r.gflops_sym, r.speedup);

    if (smoke) {
      if (!(r.bytes_ratio <= 0.6)) {
        std::cerr << "FAIL: " << nm.name << " symmetric matrix stream is " << r.bytes_ratio
                  << "x of general CSR (bound: 0.6x)\n";
        ok = false;
      }
      if (!(r.speedup >= 1.2)) {
        std::cerr << "FAIL: " << nm.name << " symmetric SpMV is only " << r.speedup
                  << "x of the general kernel (bound: 1.2x)\n";
        ok = false;
      }
    }
  }

  std::string json = "{\n  \"threads\": " + std::to_string(threads) +
                     ",\n  \"smoke\": " + (smoke ? "true" : "false") +
                     ",\n  \"matrices\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    json += "    {\"name\": ";
    obs::json::append_quoted(json, r.name);
    json += ", \"nrows\": " + std::to_string(r.nrows) +
            ", \"nnz\": " + std::to_string(r.nnz) + ", \"bytes_ratio\": ";
    obs::json::append_number(json, r.bytes_ratio);
    json += ", \"modeled_ratio\": ";
    obs::json::append_number(json, r.modeled_ratio);
    json += ", \"gflops_general\": ";
    obs::json::append_number(json, r.gflops_general);
    json += ", \"gflops_sym\": ";
    obs::json::append_number(json, r.gflops_sym);
    json += ", \"speedup\": ";
    obs::json::append_number(json, r.speedup);
    json += "}";
    json += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::ofstream out{out_path};
  out << json;
  std::cout << "\nwrote " << out_path << " (sink=" << (static_cast<long long>(sink) & 1)
            << ")\n";
  if (smoke) {
    std::cout << (ok ? "smoke check passed: matrix stream <= 0.6x and SpMV >= 1.2x of "
                       "general CSR on the SPD suite\n"
                     : "smoke check FAILED\n");
  }
  return ok ? 0 : 1;
}
