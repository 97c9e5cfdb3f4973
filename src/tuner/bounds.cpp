#include "tuner/bounds.hpp"

#include <algorithm>
#include <array>

#include "common/statistics.hpp"
#include "common/timer.hpp"
#include "kernels/microbench_kernels.hpp"
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

namespace {

double gflops_at(const CsrMatrix& m, double seconds) {
  return seconds > 0.0 ? 2.0 * static_cast<double>(m.nnz()) / seconds * 1e-9 : 0.0;
}

/// P_IMB from the baseline's per-thread times (median attaches reduced
/// importance to outliers, paper §III-B). Threads that received no work —
/// partition boundaries collapse around ultra-dense rows — are excluded,
/// otherwise the median degenerates to an idle thread's ~0 time.
double imbalance_bound(const CsrMatrix& m, const std::vector<double>& thread_seconds,
                       double seconds, double p_csr) {
  std::vector<double> busy;
  busy.reserve(thread_seconds.size());
  for (double t : thread_seconds) {
    if (t > 1e-3 * seconds) busy.push_back(t);
  }
  const double t_median = stats::median(busy.empty() ? thread_seconds : busy);
  return t_median > 0.0 ? gflops_at(m, t_median) : p_csr;
}

}  // namespace

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

  b.p_imb = imbalance_bound(m, base.run.thread_seconds, base.run.seconds, b.p_csr);

  b.p_ml = runs[1].run.gflops;
  b.p_cmp = runs[2].run.gflops;

  b.p_mb = p_mb_bound(m, machine);
  b.p_peak = p_peak_bound(m, machine);
  return b;
}

PerfBounds measure_bounds_host(const CsrMatrix& m, const MachineSpec& machine, int iterations) {
  const auto parts = partition_balanced_nnz(m, std::max(1, machine.cores));
  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()), 1.0);
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));

  PerfBounds b;
  // Baseline with per-part timing; the first call is the warm-up.
  const kernels::CsrView source = kernels::make_view(m);
  kernels::time_csr_parts(source, x, y, parts, 1);
  const auto base = kernels::time_csr_parts(source, x, y, parts, iterations);
  b.t_csr_seconds = base.seconds;
  b.thread_seconds = base.part_seconds;
  b.p_csr = gflops_at(m, base.seconds);
  b.p_imb = imbalance_bound(m, base.part_seconds, base.seconds, b.p_csr);

  // P_ML: the same kernel on the regularized-colind view.
  const auto reg_colind = kernels::regularized_colind(m);
  const kernels::CsrView regularized{m.rowptr(), reg_colind, m.values(), m.nrows()};
  kernels::time_csr_parts(regularized, x, y, parts, 1);
  b.p_ml = gflops_at(m, kernels::time_csr_parts(regularized, x, y, parts, iterations).seconds);

  // P_CMP: the unit-stride kernel, timed with the same statistic.
  b.p_cmp = gflops_at(
      m, mean_seconds([&] { kernels::spmv_unit_stride(m, x, y, parts); }, iterations));

  b.p_mb = p_mb_bound(m, machine);
  b.p_peak = p_peak_bound(m, machine);
  return b;
}

}  // namespace sparta
