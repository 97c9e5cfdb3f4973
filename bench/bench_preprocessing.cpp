// Preprocessing (inspector) pipeline bench — serial reference builders vs.
// the two-pass parallel builders of DESIGN.md §13, over the gen suite.
//
// For every format conversion and the balanced-nnz partitioner we time the
// serial twin, the parallel builder pinned to one thread, and the parallel
// builder at the bench thread count, then report the parallel speedup and
// write a machine-readable summary to BENCH_preprocessing.json.
//
// `--smoke` runs a reduced matrix set and asserts the regression bound CI
// cares about: the parallel builder at ONE thread must not be slower than
// the serial reference by more than 10% (the two-pass restructuring has to
// be free before it can be a win). `--out FILE` overrides the JSON path.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "obs/json.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/decomposed_csr.hpp"
#include "sparse/delta_csr.hpp"
#include "sparse/partition.hpp"
#include "sparse/sell.hpp"
#include "tuner/plan_cache.hpp"

namespace {

// Best-of-`reps` wall time of `fn` (seconds). `fn` must return a value whose
// accumulation keeps the call observable.
template <typename Fn>
double time_best(int reps, std::size_t& sink, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const sparta::Timer t;
    sink += fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

struct BuilderTiming {
  std::string name;
  double serial_seconds = 0.0;
  double par1_seconds = 0.0;
  double parT_seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  sparta::bench::init(argc, argv);
  using namespace sparta;

  bool smoke = false;
  std::string out_path = "BENCH_preprocessing.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_preprocessing [--smoke] [--out FILE] [--threads N]\n";
      return 2;
    }
  }

  bench::print_header("bench_preprocessing", "DESIGN.md §13 (inspector pipeline)");
  const int threads = bench::effective_threads();
  const int reps = smoke ? 3 : 5;

  std::vector<gen::NamedMatrix> matrices;
  if (smoke) {
    matrices.push_back(
        gen::NamedMatrix{"banded-smoke", "banded", gen::banded(60000, 24, 16, 7001)});
    matrices.push_back(gen::NamedMatrix{"skewed-smoke", "circuit",
                                        gen::circuit_like(40000, 4, 6, 30000, 7002)});
  } else {
    matrices = gen::make_suite();
  }

  std::vector<BuilderTiming> rows{{"csr.from_coo"}, {"delta"},     {"sell"},
                                  {"decomposed"},   {"partition"}, {"fingerprint"}};
  std::size_t sink = 0;

  for (const auto& nm : matrices) {
    const CsrMatrix& m = nm.matrix;
    CooMatrix coo{m.nrows(), m.ncols()};
    coo.reserve(static_cast<std::size_t>(m.nnz()));
    for (index_t i = 0; i < m.nrows(); ++i) {
      const auto cols = m.row_cols(i);
      const auto vals = m.row_vals(i);
      for (std::size_t j = 0; j < cols.size(); ++j) coo.add(i, cols[j], vals[j]);
    }
    const int nparts = 2048;  // above the partitioner's parallel threshold

    // serial reference / parallel@1 / parallel@threads, per builder
    rows[0].serial_seconds +=
        time_best(reps, sink, [&] { return CsrMatrix::from_coo(coo, 1).bytes(); });
    rows[0].par1_seconds +=
        time_best(reps, sink, [&] { return CsrMatrix::from_coo(coo, 1).bytes(); });
    rows[0].parT_seconds +=
        time_best(reps, sink, [&] { return CsrMatrix::from_coo(coo, threads).bytes(); });

    auto delta_bytes = [](const std::optional<DeltaCsrMatrix>& d) {
      return d ? d->bytes() : std::size_t{1};
    };
    rows[1].serial_seconds += time_best(
        reps, sink, [&] { return delta_bytes(DeltaCsrMatrix::compress_serial(m)); });
    rows[1].par1_seconds += time_best(
        reps, sink, [&] { return delta_bytes(DeltaCsrMatrix::compress(m, 1)); });
    rows[1].parT_seconds += time_best(
        reps, sink, [&] { return delta_bytes(DeltaCsrMatrix::compress(m, threads)); });

    rows[2].serial_seconds += time_best(
        reps, sink, [&] { return SellMatrix::from_csr_serial(m, 8, 256).bytes(); });
    rows[2].par1_seconds += time_best(
        reps, sink, [&] { return SellMatrix::from_csr(m, 8, 256, 1).bytes(); });
    rows[2].parT_seconds += time_best(
        reps, sink, [&] { return SellMatrix::from_csr(m, 8, 256, threads).bytes(); });

    rows[3].serial_seconds += time_best(
        reps, sink, [&] { return DecomposedCsrMatrix::decompose_serial(m).bytes(); });
    rows[3].par1_seconds += time_best(
        reps, sink, [&] { return DecomposedCsrMatrix::decompose(m, 0, 1).bytes(); });
    rows[3].parT_seconds += time_best(reps, sink, [&] {
      return DecomposedCsrMatrix::decompose(m, 0, threads).bytes();
    });

    rows[4].serial_seconds += time_best(
        reps, sink, [&] { return partition_balanced_nnz(m, nparts, 1).size(); });
    rows[4].par1_seconds += time_best(
        reps, sink, [&] { return partition_balanced_nnz(m, nparts, 1).size(); });
    rows[4].parT_seconds += time_best(
        reps, sink, [&] { return partition_balanced_nnz(m, nparts, threads).size(); });

    rows[5].serial_seconds += time_best(
        reps, sink, [&] { return static_cast<std::size_t>(tuner::fingerprint(m, 1).hash); });
    rows[5].par1_seconds += time_best(
        reps, sink, [&] { return static_cast<std::size_t>(tuner::fingerprint(m, 1).hash); });
    rows[5].parT_seconds += time_best(reps, sink, [&] {
      return static_cast<std::size_t>(tuner::fingerprint(m, threads).hash);
    });
  }

  bool ok = true;
  std::string json = "{\n  \"threads\": " + std::to_string(threads) +
                     ",\n  \"smoke\": " + (smoke ? "true" : "false") +
                     ",\n  \"matrices\": " + std::to_string(matrices.size()) +
                     ",\n  \"builders\": [\n";
  std::cout << "builder          serial(s)   par@1(s)   par@" << threads
            << "(s)  speedup  par1/serial\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const BuilderTiming& b = rows[r];
    const double speedup = b.serial_seconds / b.parT_seconds;
    const double ratio1 = b.par1_seconds / b.serial_seconds;
    std::printf("%-16s %9.4f  %9.4f  %9.4f  %7.2fx  %10.3f\n", b.name.c_str(),
                b.serial_seconds, b.par1_seconds, b.parT_seconds, speedup, ratio1);
    json += "    {\"name\": ";
    obs::json::append_quoted(json, b.name);
    json += ", \"serial_seconds\": ";
    obs::json::append_number(json, b.serial_seconds);
    json += ", \"par1_seconds\": ";
    obs::json::append_number(json, b.par1_seconds);
    json += ", \"parT_seconds\": ";
    obs::json::append_number(json, b.parT_seconds);
    json += ", \"speedup\": ";
    obs::json::append_number(json, speedup);
    json += ", \"par1_over_serial\": ";
    obs::json::append_number(json, ratio1);
    json += "}";
    json += (r + 1 < rows.size()) ? ",\n" : "\n";
    if (smoke && ratio1 > 1.10) {
      std::cerr << "FAIL: " << b.name << " parallel builder at 1 thread is "
                << ratio1 << "x the serial reference (bound: 1.10x)\n";
      ok = false;
    }
  }
  json += "  ]\n}\n";

  std::ofstream out{out_path};
  out << json;
  std::cout << "\nwrote " << out_path << " (sink=" << (sink & 1) << ")\n";
  if (smoke) {
    std::cout << (ok ? "smoke check passed: parallel builders at 1 thread are "
                       "within 10% of serial\n"
                     : "smoke check FAILED\n");
  }
  return ok ? 0 : 1;
}
