#include "kernels/kernel_registry.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "check/contract.hpp"
#include "check/validate.hpp"
#include "common/numa.hpp"
#include "common/timer.hpp"
#include "kernels/spmv_kernels.hpp"
#include "kernels/spmv_sym.hpp"

namespace sparta::kernels {

namespace detail_registry {

/// Shared ownership of everything a prepared kernel closure needs.
struct Prepared {
  const CsrMatrix* source = nullptr;
  std::optional<DeltaCsrMatrix> delta;
  std::optional<SymCsrMatrix> sym;
  std::vector<RowRange> region_parts;  // thread ownership of both surfaces

  // Views the kernels read through — the source arrays, or the first-touch
  // copies below when NUMA placement was requested.
  CsrView view;
  DeltaView delta_view;  // valid iff delta

  NumaArray<offset_t> ft_rowptr;
  NumaArray<index_t> ft_colind;
  NumaArray<value_t> ft_values;
  NumaArray<index_t> ft_first_col;
  NumaArray<std::uint8_t> ft_deltas8;
  NumaArray<std::uint16_t> ft_deltas16;

  // Symmetric-storage execution state (valid iff sym): the scatter/reduce
  // schedule is keyed to region_parts (thread ownership must match the
  // solver engine's), and the halo windows are sized/first-touched at
  // prepare time so the hot path never allocates.
  SymView sym_view;
  SymSchedule sym_sched;
  NumaArray<value_t> sym_scratch;

  /// One row-range block runner per specialized chunk width — slot i handles
  /// width 1 << i (1, 2, 4, 8): the k-specialized impl table. Every
  /// execution path (one-shot and region-reentrant) decomposes its operand
  /// width into these chunks.
  using BlockRowsFn = void (*)(const Prepared&, RowRange, ConstDenseBlockView,
                               DenseBlockView, value_t, value_t);
  std::array<BlockRowsFn, 4> block_rows{};

  // Region-reentrant fused SpMV+dot (one owned RowRange per call, no
  // pragmas; single-vector by nature).
  double (*local_dot)(const Prepared&, RowRange, std::span<const value_t>, std::span<value_t>,
                      std::span<const value_t>, value_t, value_t) = nullptr;
};

}  // namespace detail_registry

namespace {

using detail_registry::Prepared;

/// The one chunk rule: the next register-blocked chunk of a greedy 8/4/2/1
/// decomposition when `rem` operand columns are left, capped at `cap`.
index_t chunk_width(index_t rem, index_t cap = 8) {
  const index_t w = rem >= 8 ? 8 : rem >= 4 ? 4 : rem >= 2 ? 2 : 1;
  return std::min(w, cap);
}

/// Slot of the k-specialized table that handles chunk width w (1/2/4/8).
int chunk_slot(index_t w) {
  return w == 8 ? 3 : w == 4 ? 2 : w == 2 ? 1 : 0;
}

/// Rows `r` of Y = alpha A X + beta Y through the k-specialized impl table,
/// one greedy chunk of the operand width at a time.
void run_rows_blocked(const Prepared& p, RowRange r, ConstDenseBlockView x, DenseBlockView y,
                      value_t alpha, value_t beta) {
  for (index_t c = 0; c < x.width;) {
    const index_t w = chunk_width(x.width - c);
    p.block_rows[static_cast<std::size_t>(chunk_slot(w))](p, r, x.columns(c, w),
                                                          y.columns(c, w), alpha, beta);
    c += w;
  }
}

/// One-shot partitioned driver (CSR or delta — the impl table decides):
/// one region part per thread.
void run_parts_blocked(const Prepared& p, ConstDenseBlockView x, DenseBlockView y,
                       value_t alpha, value_t beta) {
  const auto parts = std::span<const RowRange>{p.region_parts};
#pragma omp parallel for default(none) shared(p, x, y, alpha, beta, parts) schedule(static, 1)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(parts.size()); ++i) {
    run_rows_blocked(p, parts[static_cast<std::size_t>(i)], x, y, alpha, beta);
  }
}

/// One-shot symmetric-storage driver: the owner-writes scatter/halo reduce
/// of kernels/spmv_sym.hpp inside one parallel region, one chunk of the
/// operand width at a time. Chunks are clamped to the schedule's scratch
/// column capacity, so any runtime width executes against the halo windows
/// sized at prepare time.
void run_sym_blocked(Prepared& p, ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                     value_t beta, int threads) {
  const SymView& view = p.sym_view;
  const SymSchedule& sched = p.sym_sched;
  const auto nparts = sched.parts.size();
  value_t* const scratch = p.sym_scratch.data();
  const index_t cap = sched.cap;
  const index_t width = x.width;
#pragma omp parallel default(none) \
    shared(view, sched, x, y, alpha, beta, nparts, scratch, cap, width) num_threads(threads)
  {
    const auto tid = static_cast<std::size_t>(omp_get_thread_num());
    const auto stride = static_cast<std::size_t>(omp_get_num_threads());
    for (index_t c = 0; c < width;) {
      const index_t w = chunk_width(width - c, cap);
      for (std::size_t pi = tid; pi < nparts; pi += stride) {
        sym_scatter_any(view, sched, scratch, pi, x.columns(c, w), y.columns(c, w), alpha, beta);
      }
#pragma omp barrier
      for (std::size_t pi = tid; pi < nparts; pi += stride) {
        sym_reduce_any(sched, scratch, pi, y.columns(c, w));
      }
      c += w;
      // Order this chunk's halo reads against the next chunk's scatter,
      // which re-zeroes the same scratch columns.
#pragma omp barrier
    }
  }
}

/// Select the <V, U, P> instantiation at runtime. The runner signature is
/// whatever Fn::run has, so the same picker serves the one-shot and the
/// region-reentrant tables.
template <template <bool, bool, bool> class Fn>
auto pick(bool vec, bool unroll, bool prefetch) {
  using Runner = decltype(&Fn<false, false, false>::run);
  static constexpr Runner table[2][2][2] = {
      {{Fn<false, false, false>::run, Fn<false, false, true>::run},
       {Fn<false, true, false>::run, Fn<false, true, true>::run}},
      {{Fn<true, false, false>::run, Fn<true, false, true>::run},
       {Fn<true, true, false>::run, Fn<true, true, true>::run}},
  };
  return table[vec][unroll][prefetch];
}

/// K-specialized CSR row-range runner family, nested so `pick` can select
/// the scalar transformations per chunk width.
template <index_t K>
struct CsrBlock {
  template <bool V, bool U, bool P>
  struct Fn {
    static void run(const Prepared& p, RowRange r, ConstDenseBlockView x, DenseBlockView y,
                    value_t alpha, value_t beta) {
      csr_rows_block<K, V, U, P>(p.view, x, y, alpha, beta, r);
    }
  };
};

template <index_t K>
void delta_block_rows(const Prepared& p, RowRange r, ConstDenseBlockView x, DenseBlockView y,
                      value_t alpha, value_t beta) {
  delta_rows_block<K>(p.delta_view, x, y, alpha, beta, r);
}

template <bool V, bool U, bool P>
struct LocalCsrDot {
  static double run(const Prepared& p, RowRange r, std::span<const value_t> x,
                    std::span<value_t> y, std::span<const value_t> w, value_t alpha,
                    value_t beta) {
    return csr_rows_local_dot<V, U, P>(p.view, x, y, w, r, alpha, beta);
  }
};

double local_delta_dot(const Prepared& p, RowRange r, std::span<const value_t> x,
                       std::span<value_t> y, std::span<const value_t> w, value_t alpha,
                       value_t beta) {
  return delta_rows_local_dot(p.delta_view, x, y, w, r, alpha, beta);
}

/// Fill the k-specialized impl table for the plain-CSR kernels.
std::array<Prepared::BlockRowsFn, 4> csr_block_table(bool vec, bool unroll, bool prefetch) {
  return {pick<CsrBlock<1>::template Fn>(vec, unroll, prefetch),
          pick<CsrBlock<2>::template Fn>(vec, unroll, prefetch),
          pick<CsrBlock<4>::template Fn>(vec, unroll, prefetch),
          pick<CsrBlock<8>::template Fn>(vec, unroll, prefetch)};
}

/// Copy `src` ranges into untouched `dst` storage from the threads that own
/// the corresponding row ranges, placing pages NUMA-locally. `row_of` maps a
/// RowRange to the [first, last) element range of the array being copied.
template <class T, class RangeOf>
void first_touch_copy(std::span<const T> src, NumaArray<T>& dst,
                      std::span<const RowRange> parts, int threads, RangeOf range_of) {
  dst = NumaArray<T>(src.size());
#pragma omp parallel default(none) shared(src, dst, parts, range_of) num_threads(threads)
  {
    const int nt = omp_get_num_threads();
    const int nparts = static_cast<int>(parts.size());
    for (int pi = omp_get_thread_num(); pi < nparts; pi += nt) {
      const auto [first, last] = range_of(parts[static_cast<std::size_t>(pi)], pi == nparts - 1);
      std::copy(src.begin() + first, src.begin() + last, dst.data() + first);
    }
  }
}

struct ElemRange {
  std::ptrdiff_t first;
  std::ptrdiff_t last;
};

}  // namespace

PreparedSpmv::PreparedSpmv(const CsrMatrix& a, const SpmvOptions& opts) : config_(opts.config) {
  if (opts.threads < 0) throw std::invalid_argument{"PreparedSpmv: threads < 0"};
  if (opts.block_width < 1) throw std::invalid_argument{"PreparedSpmv: block_width < 1"};
  // The bound micro-benchmarks' x accesses are simulator descriptors; the
  // host runs them as kernels/microbench_kernels.hpp drivers, not as configs.
  if (opts.config.x_access != XAccess::kIndirect) {
    throw std::invalid_argument{"PreparedSpmv: KernelConfig::x_access must be kIndirect"};
  }
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  threads_ = threads;
  block_width_ = opts.block_width;
  const KernelConfig& cfg = config_;
  const bool first_touch = opts.first_touch;
  Timer timer;
  auto prepared = std::make_shared<Prepared>();
  prepared->source = &a;
  prepared->view = make_view(a);
  // One partition per prepared kernel, owning whole rows on both surfaces.
  // The host IMB arm (long-row decomposition or dynamic scheduling in the
  // paper's pool) is merge-path row ownership: a thread's cost follows its
  // rows plus its nonzeros, so both are balanced. The rows schedule (the
  // conventional vendor split) owns equal row counts; every other config
  // keeps the paper's nnz-balanced baseline.
  const bool imb = cfg.decomposed || cfg.schedule == Schedule::kDynamicChunks;
  prepared->region_parts = imb ? partition_merge_path(a, threads)
                           : cfg.schedule == Schedule::kStaticRows
                               ? partition_equal_rows(a.nrows(), threads)
                               : partition_balanced_nnz(a, threads);

  bool use_delta = cfg.delta;
  if (use_delta) {
    auto d = DeltaCsrMatrix::compress(a, threads);
    if (d) {
      prepared->delta = std::move(*d);
      prepared->delta_view = make_view(*prepared->delta);
      delta_applied_ = true;
    } else {
      use_delta = false;
    }
  }

  // Symmetric storage is exclusive with the other format rewrites and the
  // IMB arm (the tuner never combines them); its scatter/reduce windows are
  // keyed to the nnz-balanced ownership. A matrix that turns out not to be
  // exactly symmetric falls back to the general kernels, like an
  // incompressible delta config.
  const bool want_sym = cfg.symmetric && !use_delta && !imb;
  if (want_sym) {
    try {
      prepared->sym = SymCsrMatrix::build(a, threads);
      symmetric_applied_ = true;
    } catch (const std::invalid_argument&) {
      symmetric_applied_ = false;
    }
  }
  if (symmetric_applied_) {
    prepared->sym_view = make_view(*prepared->sym);
    // Scratch column capacity: the largest specialized chunk (1/2/4/8) the
    // block_width hint decomposes into; wider runs clamp their chunks.
    const index_t cap = chunk_width(static_cast<index_t>(block_width_));
    prepared->sym_sched = plan_sym_schedule(prepared->sym_view, prepared->region_parts, cap);
    prepared->sym_scratch = NumaArray<value_t>(prepared->sym_sched.scratch_elems);
    // First-touch the halo windows from their owning threads (the same
    // part -> thread mapping the scatter uses), zeroing all cap columns.
    const SymSchedule& sched = prepared->sym_sched;
    value_t* const scratch = prepared->sym_scratch.data();
    const std::size_t nparts = sched.parts.size();
#pragma omp parallel default(none) shared(sched, scratch, nparts) num_threads(threads)
    {
      const auto tid = static_cast<std::size_t>(omp_get_thread_num());
      const auto stride = static_cast<std::size_t>(omp_get_num_threads());
      for (std::size_t pi = tid; pi < nparts; pi += stride) {
        const auto rows = static_cast<std::size_t>(sched.parts[pi].begin - sched.base[pi]);
        std::fill(scratch + sched.offset[pi],
                  scratch + sched.offset[pi] + rows * static_cast<std::size_t>(sched.cap), 0.0);
      }
    }
  }

  // NUMA first-touch copies of the streaming arrays, initialized by the
  // threads that own region_parts. Symmetric storage is already placed by
  // its parallel build and the scratch fill above, and its kernels never
  // read the general arrays, so those are not copied: run_local reads the
  // source arrays, with identical results.
  if (first_touch) {
    const auto parts = std::span<const RowRange>{prepared->region_parts};
    if (use_delta) {
      const DeltaCsrMatrix& d = *prepared->delta;
      const auto rp = d.rowptr();
      const auto rowptr_range = [&](RowRange r, bool last) {
        return ElemRange{r.begin, last ? static_cast<std::ptrdiff_t>(rp.size()) : r.end};
      };
      const auto nnz_range = [&](RowRange r, bool) {
        return ElemRange{rp[static_cast<std::size_t>(r.begin)],
                         rp[static_cast<std::size_t>(r.end)]};
      };
      const auto row_range = [&](RowRange r, bool) { return ElemRange{r.begin, r.end}; };
      first_touch_copy(rp, prepared->ft_rowptr, parts, threads, rowptr_range);
      first_touch_copy(d.first_col(), prepared->ft_first_col, parts, threads, row_range);
      first_touch_copy(d.values(), prepared->ft_values, parts, threads, nnz_range);
      if (d.width() == DeltaWidth::k8) {
        first_touch_copy(d.deltas8(), prepared->ft_deltas8, parts, threads, nnz_range);
      } else {
        first_touch_copy(d.deltas16(), prepared->ft_deltas16, parts, threads, nnz_range);
      }
      prepared->delta_view =
          DeltaView{prepared->ft_rowptr.span(),  prepared->ft_first_col.span(),
                    prepared->ft_deltas8.span(), prepared->ft_deltas16.span(),
                    prepared->ft_values.span(),  d.width(),
                    d.nrows()};
    } else if (!symmetric_applied_) {
      const auto rp = a.rowptr();
      const auto rowptr_range = [&](RowRange r, bool last) {
        return ElemRange{r.begin, last ? static_cast<std::ptrdiff_t>(rp.size()) : r.end};
      };
      const auto nnz_range = [&](RowRange r, bool) {
        return ElemRange{rp[static_cast<std::size_t>(r.begin)],
                         rp[static_cast<std::size_t>(r.end)]};
      };
      first_touch_copy(rp, prepared->ft_rowptr, parts, threads, rowptr_range);
      first_touch_copy(a.colind(), prepared->ft_colind, parts, threads, nnz_range);
      first_touch_copy(a.values(), prepared->ft_values, parts, threads, nnz_range);
      prepared->view = CsrView{prepared->ft_rowptr.span(), prepared->ft_colind.span(),
                               prepared->ft_values.span(), a.nrows()};
    }
    first_touch_applied_ = true;
  }

  // The k-specialized impl table: delta when applied, otherwise the
  // plain-CSR row kernels with the config's scalar transformations. IMB
  // configs differ only in their partition, so they run these too.
  if (use_delta) {
    prepared->block_rows = {&delta_block_rows<1>, &delta_block_rows<2>, &delta_block_rows<4>,
                            &delta_block_rows<8>};
    prepared->local_dot = &local_delta_dot;
  } else {
    prepared->block_rows = csr_block_table(cfg.vectorized, cfg.unrolled, cfg.prefetch);
    prepared->local_dot = pick<LocalCsrDot>(cfg.vectorized, cfg.unrolled, cfg.prefetch);
  }

  // One-shot dispatch: symmetric storage runs its scatter/reduce; every
  // other config — plain, delta or IMB — shares the blocked partition
  // driver, and the impl table already carries the format.
  if (symmetric_applied_) {
    const int nthreads = threads;
    impl_ = [prepared, nthreads](ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                                 value_t beta) {
      run_sym_blocked(*prepared, x, y, alpha, beta, nthreads);
    };
  } else {
    impl_ = [prepared](ConstDenseBlockView x, DenseBlockView y, value_t alpha, value_t beta) {
      run_parts_blocked(*prepared, x, y, alpha, beta);
    };
  }
  // Post-preparation structural contract: the partition must cover the
  // matrix exactly (a gap loses rows silently inside the persistent region).
  SPARTA_CHECK_STRUCTURE(std::span<const RowRange>{prepared->region_parts}, a.nrows());
  prepared_ = std::move(prepared);
  prep_seconds_ = timer.seconds();

  // Streaming-byte model for one run(): the matrix arrays in the format the
  // kernel actually reads are streamed once regardless of the operand width
  // (the SpMM amortization), while the dense operands (x read, y written)
  // cost their footprint per column. bytes_per_run(width) combines the two.
  const auto dnnz = static_cast<double>(a.nnz());
  const auto dnrows = static_cast<double>(a.nrows());
  double index_bytes = dnnz * static_cast<double>(sizeof(index_t));
  if (delta_applied_) {
    index_bytes = dnnz * (prepared_->delta->width() == DeltaWidth::k8 ? 1.0 : 2.0) +
                  dnrows * static_cast<double>(sizeof(index_t));  // first_col
  }
  matrix_bytes_ = (dnrows + 1.0) * static_cast<double>(sizeof(offset_t)) + index_bytes +
                  dnnz * static_cast<double>(sizeof(value_t));
  if (symmetric_applied_) {
    // Symmetric storage streams the lower triangle + dense diagonal instead
    // of the full nonzero set — the halved matrix stream the format exists
    // for (halo-window traffic is small and excluded by the model).
    matrix_bytes_ = static_cast<double>(prepared_->sym->bytes());
  }
  vector_bytes_per_column_ =
      static_cast<double>(a.ncols() + a.nrows()) * static_cast<double>(sizeof(value_t));

  auto& reg = obs::Registry::global();
  reg.counter("kernels.prepare.calls").add();
  if (symmetric_applied_) reg.counter("kernels.prepare.symmetric").add();
  reg.histogram("kernels.prepare.micros").record(prep_seconds_ * 1e6);
  run_calls_ = reg.counter("kernels.run.calls");
  run_bytes_ = reg.counter("kernels.run.bytes");
  run_width_ = reg.gauge("kernels.run.block_width");
}

double PreparedSpmv::bytes_per_run(int width) const {
  return matrix_bytes_ + vector_bytes_per_column_ * static_cast<double>(width);
}

void PreparedSpmv::run(ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                       value_t beta) const {
  if (x.width != y.width) {
    throw std::invalid_argument{"PreparedSpmv::run: operand width mismatch"};
  }
  run_calls_.add();
  run_bytes_.add(bytes_per_run(static_cast<int>(x.width)));
  run_width_.set(static_cast<double>(x.width));
  impl_(x, y, alpha, beta);
}

void PreparedSpmv::run(std::span<const value_t> x, std::span<value_t> y, value_t alpha,
                       value_t beta) const {
  run(ConstDenseBlockView::from_vector(x), DenseBlockView::from_vector(y), alpha, beta);
}

index_t PreparedSpmv::nrows() const { return prepared_->source->nrows(); }

index_t PreparedSpmv::ncols() const { return prepared_->source->ncols(); }

std::span<const RowRange> PreparedSpmv::region_parts() const {
  return prepared_->region_parts;
}

void PreparedSpmv::run_local(int part, ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                             value_t beta) const {
  run_rows_blocked(*prepared_, prepared_->region_parts[static_cast<std::size_t>(part)], x, y,
                   alpha, beta);
}

void PreparedSpmv::run_local(int part, std::span<const value_t> x, std::span<value_t> y,
                             value_t alpha, value_t beta) const {
  run_local(part, ConstDenseBlockView::from_vector(x), DenseBlockView::from_vector(y), alpha,
            beta);
}

double PreparedSpmv::run_local_dot(int part, std::span<const value_t> x, std::span<value_t> y,
                                   std::span<const value_t> w, value_t alpha,
                                   value_t beta) const {
  return prepared_->local_dot(*prepared_,
                              prepared_->region_parts[static_cast<std::size_t>(part)], x, y, w,
                              alpha, beta);
}

namespace {
[[noreturn]] void fail_not_symmetric() {
  throw std::logic_error{"PreparedSpmv: symmetric storage not applied"};
}
}  // namespace

void PreparedSpmv::run_local_scatter(int part, std::span<const value_t> x,
                                     std::span<value_t> y, value_t alpha, value_t beta) const {
  if (!symmetric_applied_) fail_not_symmetric();
  sym_scatter_any(prepared_->sym_view, prepared_->sym_sched, prepared_->sym_scratch.data(),
                  static_cast<std::size_t>(part), ConstDenseBlockView::from_vector(x),
                  DenseBlockView::from_vector(y), alpha, beta);
}

void PreparedSpmv::run_local_reduce(int part, std::span<value_t> y) const {
  if (!symmetric_applied_) fail_not_symmetric();
  sym_reduce_any(prepared_->sym_sched, prepared_->sym_scratch.data(),
                 static_cast<std::size_t>(part), DenseBlockView::from_vector(y));
}

double PreparedSpmv::run_local_reduce_dot(int part, std::span<value_t> y,
                                          std::span<const value_t> w) const {
  if (!symmetric_applied_) fail_not_symmetric();
  return sym_reduce_dot(prepared_->sym_sched, prepared_->sym_scratch.data(),
                        static_cast<std::size_t>(part), y, w);
}

}  // namespace sparta::kernels
