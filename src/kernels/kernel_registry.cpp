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
  std::optional<DecomposedCsrMatrix> decomposed;
  std::optional<SymCsrMatrix> sym;
  std::vector<RowRange> parts;         // one-shot partitions (config-dependent)
  std::vector<RowRange> region_parts;  // balanced-nnz thread ownership, always built

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
  // solver engine's), and the scratch windows are sized/first-touched at
  // prepare time so the hot path never allocates.
  SymView sym_view;
  SymSchedule sym_sched;
  NumaArray<value_t> sym_scratch;

  /// One row-range block runner per specialized chunk width — slot i handles
  /// width 1 << i (1, 2, 4, 8). This is the k-specialized impl table the
  /// block_width hint preallocates: every execution path (one-shot and
  /// region-reentrant) decomposes its operand width into these chunks.
  using BlockRowsFn = void (*)(const Prepared&, RowRange, ConstDenseBlockView,
                               DenseBlockView, value_t, value_t);
  std::array<BlockRowsFn, 4> block_rows{};

  /// Preplanned greedy chunk schedule for the hinted operand width; runs
  /// whose width matches the hint walk this instead of re-deriving it.
  index_t hint_width = 1;
  std::vector<index_t> hint_chunks;

  // Region-reentrant fused SpMV+dot (one owned RowRange per call, no
  // pragmas; single-vector by nature).
  double (*local_dot)(const Prepared&, RowRange, std::span<const value_t>, std::span<value_t>,
                      std::span<const value_t>, value_t, value_t) = nullptr;
};

}  // namespace detail_registry

namespace {

using detail_registry::Prepared;

/// Slot of the k-specialized table that handles chunk width w (1/2/4/8).
int chunk_slot(index_t w) {
  return w == 8 ? 3 : w == 4 ? 2 : w == 2 ? 1 : 0;
}

/// Greedy decomposition of an operand width into specialized chunk widths.
std::vector<index_t> plan_chunks(index_t width) {
  // Chunk count is known up front: width / 8 eights plus at most one each
  // of 4, 2, 1 for the remainder bits — size once, then fill.
  const index_t rem = width % 8;
  const auto count = static_cast<std::size_t>(width / 8 + ((rem & 4) != 0 ? 1 : 0) +
                                              ((rem & 2) != 0 ? 1 : 0) + ((rem & 1) != 0 ? 1 : 0));
  std::vector<index_t> plan(count);
  std::size_t slot = 0;
  index_t c = 0;
  while (c < width) {
    const index_t left = width - c;
    const index_t w = left >= 8 ? 8 : left >= 4 ? 4 : left >= 2 ? 2 : 1;
    plan[slot++] = w;
    c += w;
  }
  return plan;
}

/// Rows `r` of Y = alpha A X + beta Y through the k-specialized impl table:
/// the preplanned chunk schedule when the width matches the preparation
/// hint, the same greedy decomposition derived on the fly otherwise.
void run_rows_blocked(const Prepared& p, RowRange r, ConstDenseBlockView x, DenseBlockView y,
                      value_t alpha, value_t beta) {
  if (x.width == p.hint_width) {
    index_t c = 0;
    for (const index_t w : p.hint_chunks) {
      p.block_rows[static_cast<std::size_t>(chunk_slot(w))](p, r, x.columns(c, w),
                                                            y.columns(c, w), alpha, beta);
      c += w;
    }
    return;
  }
  index_t c = 0;
  while (c < x.width) {
    const index_t rem = x.width - c;
    const index_t w = rem >= 8 ? 8 : rem >= 4 ? 4 : rem >= 2 ? 2 : 1;
    p.block_rows[static_cast<std::size_t>(chunk_slot(w))](p, r, x.columns(c, w),
                                                          y.columns(c, w), alpha, beta);
    c += w;
  }
}

/// One-shot partitioned driver (CSR or delta — the impl table decides):
/// one partition per thread, the region shape of spmm_csr_partitioned.
void run_parts_blocked(const Prepared& p, ConstDenseBlockView x, DenseBlockView y,
                       value_t alpha, value_t beta) {
  const auto parts = std::span<const RowRange>{p.parts};
#pragma omp parallel for default(none) shared(p, x, y, alpha, beta, parts) schedule(static, 1)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(parts.size()); ++i) {
    run_rows_blocked(p, parts[static_cast<std::size_t>(i)], x, y, alpha, beta);
  }
}

/// One-shot dynamic (auto-like) self-scheduling driver over rows.
void run_dynamic_blocked(const Prepared& p, ConstDenseBlockView x, DenseBlockView y,
                         value_t alpha, value_t beta) {
  const index_t n = p.view.nrows;
#pragma omp parallel for default(none) shared(p, x, y, alpha, beta, n) schedule(dynamic, 64)
  for (index_t i = 0; i < n; ++i) {
    run_rows_blocked(p, RowRange{i, i + 1}, x, y, alpha, beta);
  }
}

/// One-shot symmetric-storage driver: the two-phase scatter/reduce of
/// kernels/spmv_sym.hpp inside one parallel region, one chunk of the
/// operand width at a time. Chunks are clamped to the schedule's scratch
/// column capacity, so any runtime width executes against the scratch
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
    index_t c = 0;
    while (c < width) {
      const index_t rem = width - c;
      index_t w = rem >= 8 ? 8 : rem >= 4 ? 4 : rem >= 2 ? 2 : 1;
      if (w > cap) w = cap;
      for (std::size_t pi = tid; pi < nparts; pi += stride) {
        sym_scatter_any(view, sched, scratch, pi, x.columns(c, w));
      }
#pragma omp barrier
      for (std::size_t pi = tid; pi < nparts; pi += stride) {
        sym_reduce_any(sched, scratch, pi, y.columns(c, w), alpha, beta);
      }
      c += w;
      // Order this chunk's reduce reads against the next chunk's scatter,
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

template <index_t K, bool V>
void delta_block_rows(const Prepared& p, RowRange r, ConstDenseBlockView x, DenseBlockView y,
                      value_t alpha, value_t beta) {
  delta_rows_block<K, V>(p.delta_view, x, y, alpha, beta, r);
}

template <bool V, bool U, bool P>
struct DecompRunner {
  static void run(const Prepared& p, ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                  value_t beta) {
    spmm_decomposed<V, U, P>(*p.decomposed, x, y, alpha, beta, p.parts);
  }
};

template <bool V, bool U, bool P>
struct LocalCsrDot {
  static double run(const Prepared& p, RowRange r, std::span<const value_t> x,
                    std::span<value_t> y, std::span<const value_t> w, value_t alpha,
                    value_t beta) {
    return csr_rows_local_dot<V, U, P>(p.view, x, y, w, r, alpha, beta);
  }
};

template <bool V>
double local_delta_dot(const Prepared& p, RowRange r, std::span<const value_t> x,
                       std::span<value_t> y, std::span<const value_t> w, value_t alpha,
                       value_t beta) {
  return delta_rows_local_dot<V>(p.delta_view, x, y, w, r, alpha, beta);
}

/// Fill the k-specialized impl table for the plain-CSR kernels.
std::array<Prepared::BlockRowsFn, 4> csr_block_table(bool vec, bool unroll, bool prefetch) {
  return {pick<CsrBlock<1>::template Fn>(vec, unroll, prefetch),
          pick<CsrBlock<2>::template Fn>(vec, unroll, prefetch),
          pick<CsrBlock<4>::template Fn>(vec, unroll, prefetch),
          pick<CsrBlock<8>::template Fn>(vec, unroll, prefetch)};
}

/// Fill the k-specialized impl table for the delta-compressed kernels.
std::array<Prepared::BlockRowsFn, 4> delta_block_table(bool vec) {
  if (vec) {
    return {&delta_block_rows<1, true>, &delta_block_rows<2, true>, &delta_block_rows<4, true>,
            &delta_block_rows<8, true>};
  }
  return {&delta_block_rows<1, false>, &delta_block_rows<2, false>,
          &delta_block_rows<4, false>, &delta_block_rows<8, false>};
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
  const int threads = opts.threads > 0 ? opts.threads : omp_get_max_threads();
  threads_ = threads;
  block_width_ = opts.block_width;
  const KernelConfig& cfg = config_;
  const bool first_touch = opts.first_touch;
  Timer timer;
  auto prepared = std::make_shared<Prepared>();
  prepared->source = &a;
  prepared->view = make_view(a);
  prepared->region_parts = partition_balanced_nnz(a, threads);
  prepared->hint_width = static_cast<index_t>(block_width_);
  prepared->hint_chunks = plan_chunks(prepared->hint_width);

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

  // Symmetric storage is exclusive with the other format rewrites (the
  // tuner never combines them) and needs the stable thread ownership of a
  // static schedule for its scatter/reduce windows. A matrix that turns out
  // not to be exactly symmetric falls back to the general kernels, like an
  // incompressible delta config.
  const bool want_sym = cfg.symmetric && !use_delta && !cfg.decomposed &&
                        cfg.schedule != Schedule::kDynamicChunks;
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
    // hinted operand width decomposes into; wider runs clamp their chunks.
    index_t cap = 1;
    while (cap < 8 && cap * 2 <= prepared->hint_width) cap *= 2;
    prepared->sym_sched = plan_sym_schedule(prepared->sym_view, prepared->region_parts, cap);
    prepared->sym_scratch = NumaArray<value_t>(prepared->sym_sched.scratch_elems);
    // First-touch the scratch windows from their owning threads (the same
    // part -> thread mapping the scatter uses), zeroing all cap columns.
    const SymSchedule& sched = prepared->sym_sched;
    value_t* const scratch = prepared->sym_scratch.data();
    const std::size_t nparts = sched.parts.size();
#pragma omp parallel default(none) shared(sched, scratch, nparts) num_threads(threads)
    {
      const auto tid = static_cast<std::size_t>(omp_get_thread_num());
      const auto stride = static_cast<std::size_t>(omp_get_num_threads());
      for (std::size_t pi = tid; pi < nparts; pi += stride) {
        const auto rows = static_cast<std::size_t>(sched.parts[pi].end - sched.base[pi]);
        std::fill(scratch + sched.offset[pi],
                  scratch + sched.offset[pi] + rows * static_cast<std::size_t>(sched.cap), 0.0);
      }
    }
  }

  const CsrMatrix* part_source = &a;
  if (cfg.decomposed) {
    prepared->decomposed = DecomposedCsrMatrix::decompose(a, /*threshold=*/0, threads);
    part_source = &prepared->decomposed->short_part();
  }

  // Delta and decomposed kernels always run over explicit partitions on the
  // host (there is no dynamic-schedule variant of them); plain CSR with the
  // dynamic schedule is the only partition-less path.
  const bool needs_parts =
      use_delta || cfg.decomposed || cfg.schedule != Schedule::kDynamicChunks;
  if (needs_parts) {
    prepared->parts = cfg.schedule == Schedule::kStaticRows
                          ? partition_equal_rows(part_source->nrows(), threads)
                          : partition_balanced_nnz(*part_source, threads);
  }

  // NUMA first-touch copies of the streaming arrays, initialized by the
  // owning threads. Decomposed and dynamic-schedule configs have no stable
  // per-thread row ownership and keep the source arrays. Symmetric storage
  // is already placed by its parallel build and the scratch fill above, and
  // its kernels never read the general arrays, so those are not copied:
  // run_local reads the source arrays, with identical results.
  if (first_touch && !cfg.decomposed && cfg.schedule != Schedule::kDynamicChunks) {
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
  // plain-CSR row kernels with the config's scalar transformations
  // (decomposed and dynamic configs fall back to these on the
  // region-reentrant path — row results are identical).
  if (use_delta) {
    prepared->block_rows = delta_block_table(cfg.vectorized);
    prepared->local_dot = cfg.vectorized ? &local_delta_dot<true> : &local_delta_dot<false>;
  } else {
    const bool vec = cfg.vectorized && !cfg.decomposed;
    prepared->block_rows = csr_block_table(vec, cfg.unrolled, cfg.prefetch);
    prepared->local_dot = pick<LocalCsrDot>(vec, cfg.unrolled, cfg.prefetch);
  }

  // One-shot dispatch. Delta excludes decomposition/dynamic in the host
  // registry (the tuner never combines MB with IMB formats; see
  // tuner/optimizations.cpp). Partitioned configs — plain or delta — share
  // the blocked partition driver; the impl table already carries the format.
  if (symmetric_applied_) {
    const int nthreads = threads;
    impl_ = [prepared, nthreads](ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                                 value_t beta) {
      run_sym_blocked(*prepared, x, y, alpha, beta, nthreads);
    };
  } else if (cfg.decomposed && !use_delta) {
    auto runner = pick<DecompRunner>(cfg.vectorized, cfg.unrolled, cfg.prefetch);
    impl_ = [prepared, runner](ConstDenseBlockView x, DenseBlockView y, value_t alpha,
                               value_t beta) { runner(*prepared, x, y, alpha, beta); };
  } else if (!use_delta && cfg.schedule == Schedule::kDynamicChunks) {
    impl_ = [prepared](ConstDenseBlockView x, DenseBlockView y, value_t alpha, value_t beta) {
      run_dynamic_blocked(*prepared, x, y, alpha, beta);
    };
  } else {
    impl_ = [prepared](ConstDenseBlockView x, DenseBlockView y, value_t alpha, value_t beta) {
      run_parts_blocked(*prepared, x, y, alpha, beta);
    };
  }
  // Post-preparation structural contracts: the thread-ownership partition
  // must cover the matrix exactly (a gap loses rows silently inside the
  // persistent region), and the one-shot partition must cover whatever
  // matrix its kernels iterate (the short part under decomposition).
  SPARTA_CHECK_STRUCTURE(std::span<const RowRange>{prepared->region_parts}, a.nrows());
  if (!prepared->parts.empty()) {
    SPARTA_CHECK_STRUCTURE(std::span<const RowRange>{prepared->parts}, part_source->nrows());
  }
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
    // for (scratch traffic is cache-resident and excluded by the model).
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

void PreparedSpmv::run_local_scatter(int part, std::span<const value_t> x) const {
  if (!symmetric_applied_) fail_not_symmetric();
  sym_scatter_any(prepared_->sym_view, prepared_->sym_sched, prepared_->sym_scratch.data(),
                  static_cast<std::size_t>(part), ConstDenseBlockView::from_vector(x));
}

void PreparedSpmv::run_local_reduce(int part, std::span<value_t> y, value_t alpha,
                                    value_t beta) const {
  if (!symmetric_applied_) fail_not_symmetric();
  sym_reduce_any(prepared_->sym_sched, prepared_->sym_scratch.data(),
                 static_cast<std::size_t>(part), DenseBlockView::from_vector(y), alpha, beta);
}

double PreparedSpmv::run_local_reduce_dot(int part, std::span<value_t> y,
                                          std::span<const value_t> w, value_t alpha,
                                          value_t beta) const {
  if (!symmetric_applied_) fail_not_symmetric();
  return sym_reduce_dot(prepared_->sym_sched, prepared_->sym_scratch.data(),
                        static_cast<std::size_t>(part), y, w, alpha, beta);
}

}  // namespace sparta::kernels
