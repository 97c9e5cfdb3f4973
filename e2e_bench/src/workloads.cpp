#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/prng.hpp"
#include "engine/solver_engine.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "kernels/kernel_registry.hpp"
#include "machine/machine_spec.hpp"
#include "sparse/coo.hpp"
#include "sparse/matrix_market.hpp"
#include "tuner/optimizer.hpp"

namespace e2e {

using sparta::CsrMatrix;
using sparta::index_t;

namespace {

constexpr double kTolerance = 1e-8;
// CG/BiCGSTAB stop on their recurrence residual; the true residual may drift
// above it by rounding, so the check allows one decade.
constexpr double kCheckTolerance = 10.0 * kTolerance;

/// ||b - A x|| / ||b|| with the serial reference SpMV.
double true_rel_residual(const CsrMatrix& a, const std::vector<double>& b,
                         const std::vector<double>& x) {
  std::vector<double> ax(b.size());
  sparta::spmv_reference(a, x, ax);
  double rr = 0.0, bb = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    rr += (b[i] - ax[i]) * (b[i] - ax[i]);
    bb += b[i] * b[i];
  }
  return std::sqrt(rr) / std::sqrt(bb);
}

std::string fmt_mb(double bytes) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << bytes / 1e6 << " MB";
  return os.str();
}

std::vector<double> seeded_rhs(index_t n, std::uint64_t seed) {
  sparta::Xoshiro256 rng{seed};
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

/// Everything a request's set-up produces.
struct Setup {
  sparta::OptimizationPlan plan;
  std::shared_ptr<const sparta::kernels::PreparedSpmv> kernel;
  std::unique_ptr<sparta::engine::SolverEngine> engine;
};

/// Plan (through the plan cache), prepare (through the kernel cache) and
/// build the engine, each in its own stage. The plan span is named after
/// the cache outcome once it is known.
Setup set_up(Tracer& tr, sparta::tuner::PlanCache& plans, sparta::tuner::PlanCache& kernels,
             const sparta::Autotuner& tuner, const CsrMatrix& a, int width, int threads,
             RepResult& r) {
  Setup s;
  const auto before = plans.stats();
  {
    Stage st{tr, "tuner.plan"};
    s.plan = plans.tune(tuner, a, sparta::TuneOptions{.collect_trace = tr.enabled()});
    const bool hit = plans.stats().hits > before.hits;
    st.rename(hit ? "tuner.plan_hit" : "tuner.plan_miss");
    ++(hit ? r.plan_hits : r.plan_misses);
    if (!hit && s.plan.trace) {
      for (const auto& p : s.plan.trace->phases) {
        auto it = std::find_if(r.miss_phases.begin(), r.miss_phases.end(),
                               [&](const sparta::obs::PhaseCost& q) { return q.name == p.name; });
        if (it == r.miss_phases.end()) {
          r.miss_phases.push_back(p);
        } else {
          it->micros += p.micros;
        }
      }
    }
  }
  {
    Stage st{tr, "kernels.prepare"};
    s.kernel = kernels.prepare(a, sparta::kernels::SpmvOptions{.config = s.plan.config,
                                                               .threads = threads,
                                                               .first_touch = true,
                                                               .block_width = width});
  }
  r.prep_seconds += s.kernel->prep_seconds();
  {
    Stage st{tr, "engine.construct"};
    s.engine = std::make_unique<sparta::engine::SolverEngine>(
        a, s.kernel,
        sparta::engine::EngineOptions{
            .threads = threads, .max_iterations = 5000, .tolerance = kTolerance});
  }
  return s;
}

void record_solve(RepResult& r, const sparta::solvers::SolveResult& res, double rel_residual) {
  ++r.attempted;
  r.iters += res.iterations;
  r.max_rel_residual = std::max(r.max_rel_residual, rel_residual);
  if (!res.converged || !(rel_residual <= kCheckTolerance)) ++r.failed;
}

// --- poisson27-cg ----------------------------------------------------------
// SPD 27-point stencil; 4 seeded right-hand sides solved in sequence with
// engine CG on the plan the tuner picks (SymCsr at this size). One tune (a
// miss: every rep starts with an empty cache) per rep. At 100^3, where the
// CSR stream outgrows the 300 MiB L3, one plan takes ~17 s (one rep per
// run) and the bandwidth-bound solve varied up to 2.5x between runs on a
// shared host, so the benchmark uses 64^3 and five reps per run.
class PoissonCg final : public Workload {
 public:
  static constexpr index_t kSide = 64;
  static constexpr int kRhs = 4;

  explicit PoissonCg(const Config& cfg)
      : cfg_(cfg), a_(sparta::gen::stencil27(kSide, kSide, kSide)), x_(rhs_size()) {
    for (int j = 0; j < kRhs; ++j) {
      b_.push_back(seeded_rhs(a_.nrows(), cfg.seed * 1000003ULL + static_cast<std::uint64_t>(j)));
    }
    uses_.push_back({"stencil27_100", &a_, {}, 0, 0});
  }

  [[nodiscard]] double nominal_rep_seconds() const override { return 6.0; }
  [[nodiscard]] int width() const override { return 1; }

  [[nodiscard]] std::string describe() const override {
    return "stencil27 " + std::to_string(kSide) + "^3, nnz " + std::to_string(a_.nnz()) +
           ", general CSR " + fmt_mb(static_cast<double>(a_.bytes())) + ", " + std::to_string(kRhs) + " RHS";
  }

  RepResult run_rep(Tracer& tr, int rep) override {
    RepResult r;
    plans_ = std::make_unique<sparta::tuner::PlanCache>(4);
    sparta::tuner::PlanCache kernels{1};
    Setup s;
    for (int j = 0; j < kRhs; ++j) {
      tr.set_request("rep" + std::to_string(rep) + "/rhs" + std::to_string(j));
      double latency = 0.0;
      sparta::solvers::SolveResult res;
      {
        Stage request{tr, "request", &latency};
        if (j == 0) {
          Stage setup{tr, "setup", &r.setup_s};
          s = set_up(tr, *plans_, kernels, tuner_, a_, 1, cfg_.threads, r);
        }
        std::fill(x_.begin(), x_.end(), 0.0);
        Stage solve{tr, "engine.cg", &r.solve_s};
        res = s.engine->cg(b_[static_cast<std::size_t>(j)], x_);
      }
      r.request_s.push_back(latency);
      Stage check{tr, "check.residual"};
      record_solve(r, res, true_rel_residual(a_, b_[static_cast<std::size_t>(j)], x_));
    }
    uses_[0].config = s.plan.config;
    uses_[0].requests = 1;
    uses_[0].iters = r.iters;
    return r;
  }

 private:
  [[nodiscard]] static std::size_t rhs_size() {
    return static_cast<std::size_t>(kSide) * kSide * kSide;
  }

  Config cfg_;
  CsrMatrix a_;
  std::vector<std::vector<double>> b_;
  std::vector<double> x_;
};

// --- webgraph-ppr4 ---------------------------------------------------------
// Column-stochastic transition matrix of a power-law digraph whose hub rows
// make the tuner pick long-row decomposition; 8 batches of 4 personalized
// PageRank vectors through SolverEngine::spmm (k = 4), a fixed iteration
// count per batch. The graph structure is fixed so the plan is a function
// of the matrix alone; the seed picks the personalization sets.
class WebgraphPpr final : public Workload {
 public:
  static constexpr index_t kNodes = 150000;
  static constexpr double kAlpha = 2.5;
  static constexpr index_t kMaxDegree = 20000;
  static constexpr std::uint64_t kGraphSeed = 11;
  static constexpr int kBatches = 8;
  static constexpr int kWidth = 4;
  static constexpr int kSeedsPerVector = 16;
  static constexpr int kIters = 60;
  static constexpr double kDamping = 0.85;

  explicit WebgraphPpr(const Config& cfg) : cfg_(cfg), p_(transition()) {
    const auto n = static_cast<std::size_t>(p_.nrows());
    sparta::Xoshiro256 rng{cfg.seed * 7919ULL + 3ULL};
    for (int b = 0; b < kBatches; ++b) {
      std::vector<double> v(n * kWidth, 0.0);
      for (int c = 0; c < kWidth; ++c) {
        for (int k = 0; k < kSeedsPerVector; ++k) {
          const auto node = static_cast<std::size_t>(rng.bounded(n));
          v[node * kWidth + static_cast<std::size_t>(c)] += 1.0 / kSeedsPerVector;
        }
      }
      v_.push_back(std::move(v));
    }
    x_.resize(n * kWidth);
    y_.resize(n * kWidth);
    uses_.push_back({"ppr_transition", &p_, {}, 0, 0});
  }

  [[nodiscard]] double nominal_rep_seconds() const override { return 1.5; }
  [[nodiscard]] int width() const override { return kWidth; }

  [[nodiscard]] std::string describe() const override {
    index_t max_row = 0;
    for (index_t i = 0; i < p_.nrows(); ++i) max_row = std::max(max_row, p_.row_nnz(i));
    return "powerlaw transition " + std::to_string(kNodes) + " nodes, nnz " +
           std::to_string(p_.nnz()) + ", longest row " + std::to_string(max_row) +
           ", general CSR " + fmt_mb(static_cast<double>(p_.bytes())) + ", " + std::to_string(kBatches) + "x" +
           std::to_string(kWidth) + " PPR vectors, " + std::to_string(kIters) + " iterations";
  }

  RepResult run_rep(Tracer& tr, int rep) override {
    RepResult r;
    plans_ = std::make_unique<sparta::tuner::PlanCache>(4);
    sparta::tuner::PlanCache kernels{1};
    const index_t n = p_.nrows();
    const sparta::kernels::DenseBlockView xv{x_.data(), n, kWidth, kWidth};
    const sparta::kernels::DenseBlockView yv{y_.data(), n, kWidth, kWidth};
    Setup s;
    for (int b = 0; b < kBatches; ++b) {
      tr.set_request("rep" + std::to_string(rep) + "/batch" + std::to_string(b));
      const std::vector<double>& v = v_[static_cast<std::size_t>(b)];
      double latency = 0.0;
      {
        Stage request{tr, "request", &latency};
        if (b == 0) {
          Stage setup{tr, "setup", &r.setup_s};
          s = set_up(tr, *plans_, kernels, tuner_, p_, kWidth, cfg_.threads, r);
        }
        Stage solve{tr, "engine.spmm", &r.solve_s};
        iterate(*s.engine, v, xv, yv);
      }
      r.request_s.push_back(latency);
      Stage check{tr, "check.ppr_residual"};
      check_batch(r, v);
    }
    uses_[0].config = s.plan.config;
    uses_[0].requests = 1;
    uses_[0].iters = r.iters;
    return r;
  }

 private:
  static CsrMatrix transition() {
    const CsrMatrix adj = sparta::gen::powerlaw(kNodes, kAlpha, kMaxDegree, kGraphSeed);
    // P[i][j] = 1/outdeg(j) for every edge j -> i: columns sum to one.
    sparta::CooMatrix coo{kNodes, kNodes};
    coo.reserve(static_cast<std::size_t>(adj.nnz()));
    for (index_t j = 0; j < adj.nrows(); ++j) {
      const auto out = adj.row_cols(j);
      if (out.empty()) throw std::logic_error{"webgraph: dangling node"};
      const double w = 1.0 / static_cast<double>(out.size());
      for (index_t i : out) coo.add(i, j, w);
    }
    return CsrMatrix::from_coo(coo);
  }

  /// X <- V; then kIters times X <- d P X + (1 - d) V.
  void iterate(const sparta::engine::SolverEngine& eng, const std::vector<double>& v,
               sparta::kernels::DenseBlockView xv, sparta::kernels::DenseBlockView yv) {
    const std::size_t len = v.size();
    const double* vp = v.data();
    double* xp = x_.data();
    double* yp = y_.data();
#pragma omp parallel for default(none) shared(len, vp, xp) schedule(static)
    for (std::size_t i = 0; i < len; ++i) xp[i] = vp[i];
    for (int t = 0; t < kIters; ++t) {
#pragma omp parallel for default(none) shared(len, vp, yp) schedule(static)
      for (std::size_t i = 0; i < len; ++i) yp[i] = (1.0 - kDamping) * vp[i];
      eng.spmm(xv, yv, kDamping, 1.0);
      std::swap(xp, yp);
      std::swap(xv.data, yv.data);
    }
    if (xp != x_.data()) x_.swap(y_);
  }

  /// Fixed-point residual ||d P x + (1 - d) v - x||_1 of every column, with
  /// the reference SpMV. For probability vectors the power iteration
  /// contracts by d per step in the 1-norm, so after kIters steps the
  /// residual is at most 2 d^kIters; the column mass must stay 1.
  void check_batch(RepResult& r, const std::vector<double>& v) const {
    const auto n = static_cast<std::size_t>(p_.nrows());
    const double bound = 2.0 * std::pow(kDamping, kIters) * (1.0 + 1e-9) + 1e-12;
    r.iters += kIters;
    std::vector<double> col(n), pcol(n);
    for (int c = 0; c < kWidth; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      for (std::size_t i = 0; i < n; ++i) col[i] = x_[i * kWidth + cc];
      sparta::spmv_reference(p_, col, pcol);
      double res = 0.0, mass = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        res += std::abs(kDamping * pcol[i] + (1.0 - kDamping) * v[i * kWidth + cc] - col[i]);
        mass += col[i];
      }
      ++r.attempted;
      r.max_rel_residual = std::max(r.max_rel_residual, res);
      if (!(res <= bound) || !(std::abs(mass - 1.0) <= 1e-9)) ++r.failed;
    }
  }

  Config cfg_;
  CsrMatrix p_;
  std::vector<std::vector<double>> v_;
  std::vector<double> x_, y_;
};

// --- mtx-stream -------------------------------------------------------------
// A stream of requests over a fixed set of diagonally dominant matrices drawn
// from every training_population family, each written as .mtx before timing.
// Every request reads its file, plans and prepares through the caches, and
// solves with engine CG (symmetric matrices) or BiCGSTAB (the rest). The
// matrix set is fixed so its plans are too; the seed picks the diagonal
// values, the request order and the right-hand sides.
class MtxStream final : public Workload {
 public:
  static constexpr int kPerFamily = 4;
  static constexpr int kFamilies = 8;
  static constexpr int kRequests = 100;
  static constexpr sparta::offset_t kMaxNnz = 1000000;
  static constexpr int kPopulation = 96;
  static constexpr std::uint64_t kPopulationSeed = 42;

  explicit MtxStream(const Config& cfg)
      : cfg_(cfg), dir_(std::filesystem::path{cfg.work_dir} / "mtx") {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    // The kPerFamily smallest matrices of each family, in population order.
    std::vector<sparta::gen::NamedMatrix> pop =
        sparta::gen::training_population(kPopulation, kPopulationSeed);
    std::map<std::string, std::vector<sparta::offset_t>> sizes;
    for (const auto& nm : pop) sizes[nm.family].push_back(nm.matrix.nnz());
    std::map<std::string, int> taken;
    for (auto& nm : pop) {
      std::vector<sparta::offset_t>& fam = sizes[nm.family];
      std::sort(fam.begin(), fam.end());
      const sparta::offset_t cutoff =
          fam[std::min(fam.size(), static_cast<std::size_t>(kPerFamily)) - 1];
      if (nm.matrix.nnz() > std::min(cutoff, kMaxNnz) || taken[nm.family] >= kPerFamily) continue;
      ++taken[nm.family];
      Entry e;
      e.name = nm.name;
      e.path = (dir_ / (nm.name + ".mtx")).string();
      e.matrix = sparta::gen::make_diagonally_dominant(
          nm.matrix, cfg.seed * 104729ULL + static_cast<std::uint64_t>(entries_.size()));
      e.symmetric = nm.family == "stencil";
      sparta::mm::write_file(e.path, e.matrix);
      e.file_bytes = static_cast<double>(std::filesystem::file_size(e.path));
      entries_.push_back(std::move(e));
    }
    if (entries_.size() != static_cast<std::size_t>(kPerFamily * kFamilies)) {
      throw std::logic_error{"mtx-stream: population has too few small matrices"};
    }
    // Every matrix equally often (the remainder drawn at random), in seeded
    // order, so each seed does about the same work.
    sparta::Xoshiro256 rng{cfg.seed * 31337ULL + 5ULL};
    while (order_.size() + entries_.size() <= static_cast<std::size_t>(kRequests)) {
      for (std::size_t i = 0; i < entries_.size(); ++i) order_.push_back(i);
    }
    while (order_.size() < static_cast<std::size_t>(kRequests)) {
      order_.push_back(static_cast<std::size_t>(rng.bounded(entries_.size())));
    }
    std::shuffle(order_.begin(), order_.end(), rng);
    for (std::size_t q = 0; q < order_.size(); ++q) {
      rhs_.push_back(seeded_rhs(entries_[order_[q]].matrix.nrows(),
                                cfg.seed * 65537ULL + static_cast<std::uint64_t>(q)));
    }
    for (const Entry& e : entries_) uses_.push_back({e.name, &e.matrix, {}, 0, 0});
  }

  MtxStream(const MtxStream&) = delete;
  MtxStream& operator=(const MtxStream&) = delete;
  ~MtxStream() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  [[nodiscard]] double nominal_rep_seconds() const override { return 12.0; }
  [[nodiscard]] int width() const override { return 1; }
  [[nodiscard]] bool reads_files() const override { return true; }

  [[nodiscard]] std::string describe() const override {
    double bytes = 0.0, files = 0.0;
    sparta::offset_t max_nnz = 0;
    for (const Entry& e : entries_) {
      bytes += static_cast<double>(e.matrix.bytes());
      files += e.file_bytes;
      max_nnz = std::max(max_nnz, e.matrix.nnz());
    }
    return std::to_string(entries_.size()) + " matrices (max nnz " + std::to_string(max_nnz) +
           "), general CSR total " + fmt_mb(bytes) + ", .mtx total " + fmt_mb(files) + ", " +
           std::to_string(order_.size()) + " requests";
  }

  RepResult run_rep(Tracer& tr, int rep) override {
    RepResult r;
    plans_ = std::make_unique<sparta::tuner::PlanCache>(2 * entries_.size());
    sparta::tuner::PlanCache kernels{1};
    for (MatrixUse& u : uses_) u.requests = u.iters = 0;
    for (std::size_t q = 0; q < order_.size(); ++q) {
      const std::size_t id = order_[q];
      const Entry& e = entries_[id];
      tr.set_request("rep" + std::to_string(rep) + "/req" + std::to_string(q));
      double latency = 0.0;
      sparta::solvers::SolveResult res;
      CsrMatrix a;
      std::vector<double> x(static_cast<std::size_t>(e.matrix.nrows()), 0.0);
      {
        Stage request{tr, "request", &latency};
        Setup s;
        {
          Stage setup{tr, "setup", &r.setup_s};
          {
            Stage read{tr, "sparse.mm_read"};
            a = sparta::mm::read_csr_file(e.path);
          }
          s = set_up(tr, *plans_, kernels, tuner_, a, 1, cfg_.threads, r);
        }
        Stage solve{tr, e.symmetric ? "engine.cg" : "engine.bicgstab", &r.solve_s};
        res = e.symmetric ? s.engine->cg(rhs_[q], x) : s.engine->bicgstab(rhs_[q], x);
        uses_[id].config = s.plan.config;
      }
      r.request_s.push_back(latency);
      r.read_bytes += e.file_bytes;
      ++uses_[id].requests;
      uses_[id].iters += res.iterations;
      Stage check{tr, "check.residual"};
      record_solve(r, res, true_rel_residual(a, rhs_[q], x));
    }
    return r;
  }

 private:
  struct Entry {
    std::string name;
    std::string path;
    CsrMatrix matrix;
    bool symmetric = false;
    double file_bytes = 0.0;
  };

  Config cfg_;
  std::filesystem::path dir_;
  std::vector<Entry> entries_;
  std::vector<std::size_t> order_;
  std::vector<std::vector<double>> rhs_;
};

}  // namespace

std::size_t Workload::representative() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < uses_.size(); ++i) {
    if (uses_[i].matrix->nnz() > uses_[best].matrix->nnz()) best = i;
  }
  return best;
}

std::string Workload::plan_summary() const {
  if (uses_.size() == 1) return uses_[0].config.describe();
  std::map<std::string, int> counts;
  for (const MatrixUse& u : uses_) ++counts[u.config.describe()];
  std::string out;
  for (const auto& [name, count] : counts) {
    if (!out.empty()) out += ',';
    out += name + ':' + std::to_string(count);
  }
  return out;
}

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "poisson27-cg") return std::make_unique<PoissonCg>(cfg);
  if (cfg.workload == "webgraph-ppr4") return std::make_unique<WebgraphPpr>(cfg);
  if (cfg.workload == "mtx-stream") return std::make_unique<MtxStream>(cfg);
  throw std::invalid_argument{"unknown workload '" + cfg.workload + "'"};
}

}  // namespace e2e
