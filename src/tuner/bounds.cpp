#include "tuner/bounds.hpp"

#include <array>

#include "common/statistics.hpp"
#include "tuner/bottleneck.hpp"

namespace sparta {

std::string to_string(Bottleneck b) {
  switch (b) {
    case Bottleneck::kMB: return "MB";
    case Bottleneck::kML: return "ML";
    case Bottleneck::kIMB: return "IMB";
    case Bottleneck::kCMP: return "CMP";
  }
  return "?";
}

std::string to_string(BottleneckSet s) {
  std::string out = "{";
  bool first = true;
  for (int i = 0; i < kNumBottlenecks; ++i) {
    const auto b = static_cast<Bottleneck>(i);
    if (s.contains(b)) {
      if (!first) out += ',';
      out += to_string(b);
      first = false;
    }
  }
  out += '}';
  return out;
}

double effective_bandwidth_gbs(const CsrMatrix& m, const MachineSpec& machine) {
  return m.spmv_working_set_bytes() <= machine.llc_bytes ? machine.stream_llc_gbs
                                                         : machine.stream_main_gbs;
}

double p_mb_bound(const CsrMatrix& m, const MachineSpec& machine) {
  const double xy_bytes =
      static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
  const double bytes = static_cast<double>(m.bytes()) + xy_bytes;
  const double bw = effective_bandwidth_gbs(m, machine) * 1e9;
  return 2.0 * static_cast<double>(m.nnz()) / (bytes / bw) * 1e-9;
}

double p_peak_bound(const CsrMatrix& m, const MachineSpec& machine) {
  const double xy_bytes =
      static_cast<double>(m.ncols() + m.nrows()) * sizeof(value_t);
  const double bytes = static_cast<double>(m.value_bytes()) + xy_bytes;
  const double bw = effective_bandwidth_gbs(m, machine) * 1e9;
  return 2.0 * static_cast<double>(m.nnz()) / (bytes / bw) * 1e-9;
}

PerfBounds measure_bounds(const CsrMatrix& m, const MachineSpec& machine) {
  PerfBounds b;

  // One batch: the baseline CSR run, the P_ML micro-benchmark (regularized
  // x accesses) and the P_CMP micro-benchmark (unit-stride accesses, no
  // indirect references).
  std::array<sim::KernelConfig, 3> cfgs{sim::baseline_config(), sim::baseline_config(),
                                        sim::baseline_config()};
  cfgs[1].x_access = sim::XAccess::kRegularized;
  cfgs[2].x_access = sim::XAccess::kUnitStride;
  const auto runs = sim::simulate_spmv_batch(m, machine, cfgs);

  const auto& base = runs[0];
  b.p_csr = base.run.gflops;
  b.t_csr_seconds = base.run.seconds;
  b.thread_seconds = base.run.thread_seconds;

  // P_IMB from the baseline's per-thread times (median attaches reduced
  // importance to outliers, paper §III-B). Threads that received no work —
  // partition boundaries collapse around ultra-dense rows — are excluded,
  // otherwise the median degenerates to an idle thread's ~0 time.
  std::vector<double> busy;
  busy.reserve(base.run.thread_seconds.size());
  for (std::size_t t = 0; t < base.run.thread_seconds.size(); ++t) {
    if (base.run.thread_seconds[t] > 1e-3 * base.run.seconds) {
      busy.push_back(base.run.thread_seconds[t]);
    }
  }
  const double t_median = stats::median(busy.empty() ? base.run.thread_seconds : busy);
  b.p_imb = t_median > 0.0
                ? 2.0 * static_cast<double>(m.nnz()) / t_median * 1e-9
                : b.p_csr;

  b.p_ml = runs[1].run.gflops;
  b.p_cmp = runs[2].run.gflops;

  b.p_mb = p_mb_bound(m, machine);
  b.p_peak = p_peak_bound(m, machine);
  return b;
}

}  // namespace sparta
