#include "omp_model.hpp"

#include <cctype>

#include "analyzer.hpp"

namespace sparta::analyze {

namespace {

bool word_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool word_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Construct words that may lead an OpenMP directive before the clause list
// starts. Once a non-construct word is seen, everything after it is a clause
// (OpenMP grammar puts constructs first).
const std::set<std::string>& construct_words() {
  static const std::set<std::string> kWords = {
      "parallel", "for",      "simd",       "sections", "section",  "single",
      "master",   "masked",   "critical",   "atomic",   "barrier",  "taskwait",
      "task",     "taskloop", "taskgroup",  "teams",    "distribute",
      "target",   "ordered",  "flush",      "threadprivate",        "declare",
      "cancel",   "cancellation",           "scan",     "workshare",
  };
  return kWords;
}

void split_list(const std::string& args, std::set<std::string>& out) {
  std::string cur;
  for (const char c : args) {
    if (c == ',') {
      if (!cur.empty()) out.insert(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.insert(cur);
}

}  // namespace

std::optional<OmpDirectiveInfo> parse_omp_directive(const Directive& d) {
  const std::string& t = d.text;
  std::size_t p = 0;
  const auto skip_ws = [&] {
    while (p < t.size() && (t[p] == ' ' || t[p] == '\t')) ++p;
  };
  const auto read_word = [&]() -> std::string {
    skip_ws();
    std::string w;
    if (p < t.size() && word_start(t[p])) {
      while (p < t.size() && word_char(t[p])) w.push_back(t[p++]);
    }
    return w;
  };

  skip_ws();
  if (p >= t.size() || t[p] != '#') return std::nullopt;
  ++p;
  if (read_word() != "pragma") return std::nullopt;
  if (read_word() != "omp") return std::nullopt;

  OmpDirectiveInfo info;
  info.line = d.line;
  info.tok = d.tok;

  bool in_constructs = true;
  while (true) {
    const std::string w = read_word();
    if (w.empty()) {
      // Skip a stray non-word character (e.g. a comma between clauses).
      skip_ws();
      if (p >= t.size()) break;
      ++p;
      continue;
    }
    // Optional parenthesized argument list, balanced, stored squashed.
    std::string args;
    skip_ws();
    if (p < t.size() && t[p] == '(') {
      int depth = 0;
      ++p;
      ++depth;
      while (p < t.size() && depth > 0) {
        const char c = t[p++];
        if (c == '(') ++depth;
        if (c == ')') --depth;
        if (depth > 0 && !std::isspace(static_cast<unsigned char>(c))) args.push_back(c);
      }
    }

    if (in_constructs && construct_words().count(w) != 0 && args.empty()) {
      info.kinds.insert(w);
      continue;
    }
    in_constructs = false;
    info.clauses.push_back({w, args});
    if (w == "default") {
      info.default_none = args == "none";
    } else if (w == "shared") {
      split_list(args, info.shared);
    } else if (w == "private" || w == "firstprivate" || w == "lastprivate") {
      split_list(args, info.privatized);
    } else if (w == "reduction") {
      // reduction(op : v1, v2). The operator may itself be an identifier
      // (min/max) or symbols (+, *, &&, ...).
      const std::size_t colon = args.find(':');
      if (colon != std::string::npos) {
        const std::string op = args.substr(0, colon);
        std::set<std::string> vars;
        split_list(args.substr(colon + 1), vars);
        for (const auto& v : vars) info.reductions[v] = op;
      }
    }
  }
  // `critical(name)` / `atomic` hints arrive as clauses when they carry
  // arguments; recover the construct word for the common named-critical case.
  if (info.kinds.empty() && !info.clauses.empty() &&
      construct_words().count(info.clauses.front().name) != 0) {
    info.kinds.insert(info.clauses.front().name);
  }
  return info;
}

OmpRegionTree build_region_tree(const LexedFile& file) {
  const Config cfg = default_config();
  FileCtx ctx{&file, Suppressions{file.comment_lines}, module_of(file.rel), false};
  std::vector<Finding> sink;
  OmpRegionTree tree;
  check_omp_sharing(ctx, cfg, sink, &tree);
  return tree;
}

}  // namespace sparta::analyze
