#include "tuner/partitioned_bounds.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#include "sim/simulator.hpp"
#include "sparse/partition.hpp"

namespace sparta {

PartitionedMlResult measure_partitioned_ml(const CsrMatrix& m, const MachineSpec& machine,
                                           int partitions) {
  if (partitions <= 0) throw std::invalid_argument{"partitioned_ml: partitions <= 0"};
  PartitionedMlResult result;

  sim::KernelConfig reg = sim::baseline_config();
  reg.x_access = sim::XAccess::kRegularized;

  // Baseline and regularized runs of one matrix, as one batch: {base, reg}.
  const std::array<sim::KernelConfig, 2> pair{sim::baseline_config(), reg};
  const auto rates = [&](const CsrMatrix& a) {
    const auto runs = sim::simulate_spmv_batch(a, machine, pair);
    return std::pair{runs[0].run.gflops, runs[1].run.gflops};
  };

  const auto [global_base, global_reg] = rates(m);
  result.global_gain = global_base > 0.0 ? global_reg / global_base : 0.0;

  const auto parts = partition_balanced_nnz(m, partitions);
  result.partition_gains.reserve(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const auto& r = parts[p];
    if (r.size() == 0) {
      result.partition_gains.push_back(1.0);
      continue;
    }
    const CsrMatrix slice = m.slice_rows(r.begin, r.end);
    if (slice.nnz() == 0) {
      result.partition_gains.push_back(1.0);
      continue;
    }
    const auto [base, regular] = rates(slice);
    const double gain = base > 0.0 ? regular / base : 1.0;
    result.partition_gains.push_back(gain);
    if (gain > result.max_partition_gain) {
      result.max_partition_gain = gain;
      result.worst_partition = static_cast<int>(p);
    }
  }
  return result;
}

BottleneckSet classify_profile_partitioned(const PerfBounds& bounds,
                                           const PartitionedMlResult& ml,
                                           const ProfileThresholds& t) {
  BottleneckSet cls = classify_profile(bounds, t);
  if (ml.max_partition_gain > t.t_ml) cls.insert(Bottleneck::kML);
  return cls;
}

}  // namespace sparta
