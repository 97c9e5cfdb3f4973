#include "analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace sparta::analyze {

Config default_config() {
  Config cfg;
  // Layer 0 is foundational; an edge may only point at an equal or lower
  // layer. `obs` sits low (it depends only on common and is consumed by the
  // hot paths for telemetry); `check` is diagnostics and exempt entirely.
  cfg.layers = {
      {"common", 0},
      {"obs", 1},     {"sparse", 1}, {"machine", 1}, {"gen", 1},
      {"kernels", 2}, {"features", 2}, {"ml", 2},    {"solvers", 2},
      {"tuner", 3},   {"sim", 3},
      {"engine", 4},  {"vendor", 4},
  };
  cfg.anywhere = {"check"};
  cfg.hot = {"kernels", "engine", "solvers"};
  cfg.restrict_modules = {"kernels", "engine"};
  cfg.runtime_schedule_ok = {"tuner"};
  return cfg;
}

Config tools_config() {
  Config cfg;
  cfg.layering = false;  // bench/ and tools/ are leaves with no module DAG
  return cfg;
}

std::string module_of(const std::string& rel) {
  const std::size_t slash = rel.find('/');
  return slash == std::string::npos ? std::string{} : rel.substr(0, slash);
}

namespace {

bool is_header_path(const std::string& rel) {
  return rel.size() >= 2 && (rel.rfind(".hpp") == rel.size() - 4 ||
                             rel.rfind(".h") == rel.size() - 2 ||
                             rel.rfind(".hh") == rel.size() - 3);
}

}  // namespace

std::vector<Finding> analyze_files(const std::vector<LexedFile>& files, const Config& cfg) {
  std::vector<FileCtx> ctxs;
  ctxs.reserve(files.size());
  std::set<std::string> rels;
  for (const LexedFile& f : files) {
    FileCtx ctx{&f, Suppressions{f.comment_lines}, module_of(f.rel), is_header_path(f.rel)};
    ctxs.push_back(std::move(ctx));
    rels.insert(f.rel);
  }

  std::vector<Finding> out;
  for (FileCtx& ctx : ctxs) {
    check_omp(ctx, cfg, out);
    check_omp_sharing(ctx, cfg, out);
    if (cfg.hot.count(ctx.module) != 0) check_purity(ctx, out);
    check_scopes(ctx, cfg.restrict_modules.count(ctx.module) != 0, out);
    check_hygiene(ctx, rels, out);
    check_dataflow(ctx, cfg, out);
  }
  if (cfg.layering) check_layering(ctxs, cfg, out);

  // Suppressions that matched nothing are findings themselves — and not
  // suppressible, so stale allow() comments cannot hide behind each other.
  for (FileCtx& ctx : ctxs) {
    for (const Suppressions::Entry& e : ctx.supp.unused()) {
      out.push_back({ctx.file->rel, e.line, "suppression.unused",
                     "allow(" + e.rule + ") matches no finding; remove it"});
    }
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

std::vector<Finding> analyze_dir(const std::string& root, const Config& cfg,
                                 std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> paths;
  for (fs::recursive_directory_iterator it{root, ec}, end; it != end; it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".cpp" || ext == ".cc") {
      paths.push_back(it->path());
    }
  }
  if (ec) {
    if (error != nullptr) *error = "cannot walk '" + root + "': " + ec.message();
    return {};
  }
  std::sort(paths.begin(), paths.end());

  std::vector<LexedFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    std::ifstream in{p, std::ios::binary};
    if (!in) {
      if (error != nullptr) *error = "cannot read '" + p.string() + "'";
      return {};
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string rel = fs::relative(p, root, ec).generic_string();
    files.push_back(lex(ec ? p.generic_string() : rel, buf.str()));
  }
  return analyze_files(files, cfg);
}

}  // namespace sparta::analyze
