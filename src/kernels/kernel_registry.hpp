// Host kernel registry: turns a KernelConfig (any joint application of
// optimizations the tuner can select) into a ready-to-run SpMV/SpMM
// callable, performing whatever preprocessing the configuration needs
// (delta compression, symmetric storage, partitioning) and recording its
// cost — the t_pre that the amortization analysis (paper Table V) charges.
// The paper's IMB arms (long-row decomposition, dynamic scheduling) run on
// the host as merge-path row ownership: a partition, not a format.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "obs/telemetry.hpp"
#include "kernels/block_view.hpp"
#include "kernels/kernel_config.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition.hpp"

namespace sparta::kernels {

namespace detail_registry {
struct Prepared;
}  // namespace detail_registry

/// Everything that parameterizes the preparation of one kernel instance.
struct SpmvOptions {
  /// The composed kernel variant (tuner output). Default = baseline CSR.
  /// `config.x_access` must be kIndirect (throws std::invalid_argument
  /// otherwise): the bound micro-benchmarks run as the
  /// kernels/microbench_kernels.hpp drivers, not as prepared configs.
  KernelConfig config{};
  /// Partition/thread count; 0 means omp_get_max_threads(). Negative throws.
  int threads = 0;
  /// NUMA first-touch copies of the streaming arrays (see class comment).
  bool first_touch = false;
  /// Expected operand width k of run() calls (Y = alpha A X + beta Y with
  /// X/Y being k columns wide). It has two jobs: tuner::PlanCache keys
  /// prepared entries on it, so cached plans are never shared across block
  /// widths, and symmetric storage sizes its halo scratch for the widest
  /// chunk (1/2/4/8) of this width. Any width still executes: every run
  /// splits its operand greedily into 8/4/2/1-column chunks. Must be >= 1.
  int block_width = 1;
};

/// A prepared host SpMV/SpMM instance. Holds converted formats and
/// partitions; the source matrix must outlive it.
///
/// One operand model: every execution signature takes dense rows x k blocks
/// (block_view.hpp) and computes Y = alpha * A * X + beta * Y, reading the
/// matrix stream once per k operand columns (register-blocked for k in
/// {1, 2, 4, 8}, greedy chunks of those otherwise). The historical
/// single-vector signatures are thin width-1 wrappers over the block path,
/// and alpha = 1, beta = 0 (the defaults) store directly, so a width-1
/// run() is bit-identical to the pre-block vector path.
///
/// Two execution surfaces are exposed:
///  - the one-shot `run()` opens its own parallel region per call — the
///    entry point for every caller outside a persistent region (tuner,
///    examples, benches, tests);
///  - the region-reentrant `run_local()` / `run_local_dot()` compute one
///    owned RowRange with no pragmas, so a persistent parallel region (the
///    solver engine, src/engine/) can drive whole solver (or block)
///    iterations without fork/join. Ownership is the partition returned by
///    `region_parts()` — one range per requested thread, always built.
///
/// Partitions. Every config owns whole rows on one partition, chosen per
/// config and used by both surfaces: IMB configs (`decomposed`, or the
/// dynamic schedule) balance rows + nonzeros per thread
/// (`partition_merge_path`), the rows schedule (the vendor comparator's
/// split) owns equal row counts (`partition_equal_rows`), and every other
/// config owns the paper's nnz-balanced partition. All of them run the
/// plain-CSR (or delta) row kernels with the config's scalar
/// transformations, so the output of every general config is bitwise
/// identical at every thread count.
///
/// With `first_touch` set, the CSR (or delta) streams are copied into
/// untouched storage and initialized range-by-range from the threads that
/// own those ranges, so on first-touch NUMA systems every thread reads its
/// share of rowptr/colind/values from local memory. Symmetric kernels
/// stream only the symmetric storage and halo windows, which their parallel
/// build and the owning threads already place, so no general-CSR copy is
/// made: `first_touch_applied()` then reports true for the arrays the
/// symmetric kernels read, while the general run_local path (engine SpMM,
/// BiCGSTAB) reads the source arrays, with identical results.
class PreparedSpmv {
 public:
  /// Preprocess `a` per `opts`. If opts.config.delta is set but the matrix
  /// is incompressible, falls back to plain colind (delta_applied() reports
  /// false).
  explicit PreparedSpmv(const CsrMatrix& a, const SpmvOptions& opts = {});

  /// Run Y = alpha * A * X + beta * Y. X is ncols x k, Y is nrows x k; the
  /// widths must match. Throws std::invalid_argument on a width mismatch.
  void run(ConstDenseBlockView x, DenseBlockView y, value_t alpha = 1.0,
           value_t beta = 0.0) const;

  /// Run y = alpha * A * x + beta * y — the width-1 block special case.
  void run(std::span<const value_t> x, std::span<value_t> y, value_t alpha = 1.0,
           value_t beta = 0.0) const;

  /// Per-thread row ownership of both surfaces (merge-path for IMB configs,
  /// equal rows for the rows schedule, balanced nnz otherwise; one entry per
  /// requested thread, some ranges possibly empty).
  [[nodiscard]] std::span<const RowRange> region_parts() const;

  /// Compute rows region_parts()[part] of Y = alpha A X + beta Y. No
  /// pragmas: callable from inside an existing parallel region. Reads all
  /// of `x`, writes only the owned rows of `y`.
  void run_local(int part, ConstDenseBlockView x, DenseBlockView y, value_t alpha = 1.0,
                 value_t beta = 0.0) const;

  /// Width-1 form of the block run_local.
  void run_local(int part, std::span<const value_t> x, std::span<value_t> y,
                 value_t alpha = 1.0, value_t beta = 0.0) const;

  /// Same, fused with the dependent reduction: returns the partial dot
  /// sum over owned rows i of w[i] * y[i] (the updated y), accumulated in
  /// the same pass that writes y (the SpMV+BLAS-1 fusion point of the
  /// solver engine). Single-vector by nature.
  [[nodiscard]] double run_local_dot(int part, std::span<const value_t> x,
                                     std::span<value_t> y, std::span<const value_t> w,
                                     value_t alpha = 1.0, value_t beta = 0.0) const;

  // Region-reentrant symmetric-storage surface (valid iff
  // symmetric_applied()). One SpMV splits into two phases keyed to
  // region_parts(): every partition scatters, writing its owned rows of y
  // directly and the mirrors it owes earlier partitions into its private
  // halo window; then — after a caller-supplied barrier — every partition
  // adds the halos of later partitions into its owned rows
  // (kernels/spmv_sym.hpp documents the conflict-freedom argument). y is
  // complete only after the reduce. The caller must also place a barrier
  // between a reduce and the *next* scatter, which re-zeroes the halos. All
  // three throw std::logic_error when symmetric storage is not applied.

  /// Phase 1 of a symmetric y = alpha A x + beta y: partition `part`'s rows
  /// of y, short of the halo contributions of later partitions.
  void run_local_scatter(int part, std::span<const value_t> x, std::span<value_t> y,
                         value_t alpha = 1.0, value_t beta = 0.0) const;

  /// Phase 2: add later partitions' halos into partition `part`'s rows of y
  /// (alpha and beta were applied by the scatter).
  void run_local_reduce(int part, std::span<value_t> y) const;

  /// Phase 2 followed by the dependent reduction: returns the sum over
  /// partition `part`'s rows of w[i] * y[i] (the completed y).
  [[nodiscard]] double run_local_reduce_dot(int part, std::span<value_t> y,
                                            std::span<const value_t> w) const;

  /// Wall-clock seconds the preprocessing took.
  [[nodiscard]] double prep_seconds() const { return prep_seconds_; }
  [[nodiscard]] const KernelConfig& config() const { return config_; }
  /// The resolved thread/partition count (never 0).
  [[nodiscard]] int threads() const { return threads_; }
  /// Dimensions of the source matrix this instance was prepared from.
  [[nodiscard]] index_t nrows() const;
  [[nodiscard]] index_t ncols() const;
  [[nodiscard]] bool delta_applied() const { return delta_applied_; }
  /// Whether the kernel actually runs on symmetric (lower-triangle +
  /// diagonal) storage. False when the config never asked for it or when
  /// the matrix turned out not to be exactly symmetric (the build falls
  /// back to the general kernels, like an incompressible delta config).
  [[nodiscard]] bool symmetric_applied() const { return symmetric_applied_; }
  [[nodiscard]] bool first_touch_applied() const { return first_touch_applied_; }
  /// The operand-width hint preparation was keyed on (>= 1).
  [[nodiscard]] int block_width() const { return block_width_; }
  /// Estimated bytes streamed from memory by one run() of the given operand
  /// width: the matrix arrays in the prepared format once (the SpMM
  /// amortization — they are not re-read per column), plus x read and y
  /// written per operand column — feeds the kernels.run.bytes telemetry
  /// counter with the actual width of each call.
  [[nodiscard]] double bytes_per_run(int width) const;
  /// Default form: the prepared block_width hint.
  [[nodiscard]] double bytes_per_run() const { return bytes_per_run(block_width_); }

 private:
  KernelConfig config_;
  int threads_ = 0;
  int block_width_ = 1;
  double prep_seconds_ = 0.0;
  bool delta_applied_ = false;
  bool symmetric_applied_ = false;
  bool first_touch_applied_ = false;
  double matrix_bytes_ = 0.0;
  double vector_bytes_per_column_ = 0.0;
  std::shared_ptr<detail_registry::Prepared> prepared_;
  std::function<void(ConstDenseBlockView, DenseBlockView, value_t, value_t)> impl_;
  obs::Counter run_calls_;
  obs::Counter run_bytes_;
  obs::Gauge run_width_;
};

}  // namespace sparta::kernels
