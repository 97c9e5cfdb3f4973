// Index-domain rule family (DESIGN.md §15): infer which index space — row,
// column, or nnz — each integer variable in a function lives in, seeded from
// the sparse-format field idioms (CSR/DeltaCsr/SELL in src/sparse/, plus the
// common block-CSR field names):
//
//   rowptr-family arrays are indexed by row and hold nnz offsets;
//   row_len-family arrays are indexed by row and hold counts;
//   colind/values/deltas are indexed by nnz, colind holds column ids;
//   first_col is per-row and holds column ids; perm maps row <-> row;
//   x (the dense input vector) is indexed by column — seeded only when the
//   function also subscripts a colind-family array, so an unrelated `x`
//   never inherits the domain.
//
// Rules:
//   index.domain-mix        subscript into a seeded array with an index the
//                           inference pins to a *different* domain
//   index.domain-narrowing  an nnz-domain value (64-bit offset space) stored
//                           into a 32-bit row/col-typed integer
//
// False-positive policy: the lattice collapses to "unknown" — which is
// silent — on any conflict, arithmetic the evaluator does not model, or a
// function that references fewer than two seed families. nnz - nnz is a
// length, not a position, and evaluates to "none".
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "dataflow.hpp"

namespace sparta::analyze {

namespace {

enum class Dom { kNone, kUnknown, kRow, kCol, kNnz };

const char* dom_name(Dom d) {
  switch (d) {
    case Dom::kRow: return "row";
    case Dom::kCol: return "col";
    case Dom::kNnz: return "nnz";
    default: return "?";
  }
}

struct Seed {
  Dom index;  // domain a subscript into this array must have
  Dom value;  // domain of the loaded element
  int family; // gating: a function must touch >= 2 distinct families
};

const std::map<std::string, Seed>& seed_table() {
  static const std::map<std::string, Seed> t = {
      {"rowptr", {Dom::kRow, Dom::kNnz, 0}},
      {"row_ptr", {Dom::kRow, Dom::kNnz, 0}},
      {"block_rowptr", {Dom::kRow, Dom::kNnz, 0}},
      {"row_len", {Dom::kRow, Dom::kNone, 1}},
      {"row_lens", {Dom::kRow, Dom::kNone, 1}},
      {"row_lengths", {Dom::kRow, Dom::kNone, 1}},
      {"nnz_per_row", {Dom::kRow, Dom::kNone, 1}},
      {"colind", {Dom::kNnz, Dom::kCol, 2}},
      {"colidx", {Dom::kNnz, Dom::kCol, 2}},
      {"col_ind", {Dom::kNnz, Dom::kCol, 2}},
      {"col_idx", {Dom::kNnz, Dom::kCol, 2}},
      {"block_colind", {Dom::kNnz, Dom::kCol, 2}},
      {"values", {Dom::kNnz, Dom::kNone, 3}},
      {"vals", {Dom::kNnz, Dom::kNone, 3}},
      {"deltas", {Dom::kNnz, Dom::kNone, 3}},
      {"deltas8", {Dom::kNnz, Dom::kNone, 3}},
      {"deltas16", {Dom::kNnz, Dom::kNone, 3}},
      {"first_col", {Dom::kRow, Dom::kCol, 4}},
      {"perm", {Dom::kRow, Dom::kRow, 5}},
      {"row_perm", {Dom::kRow, Dom::kRow, 5}},
      {"inv_perm", {Dom::kRow, Dom::kRow, 5}},
      {"col_perm", {Dom::kCol, Dom::kCol, 5}},
  };
  return t;
}

/// Extent-style names: loop bounds named like these pin the induction
/// variable's domain.
Dom extent_dom(const std::string& s) {
  if (s == "rows" || s == "nrows" || s == "n_rows" || s == "num_rows") return Dom::kRow;
  if (s == "cols" || s == "ncols" || s == "n_cols" || s == "num_cols" ||
      s == "width") {
    return Dom::kCol;
  }
  if (s == "nnz" || s == "n_nnz" || s == "nnzs") return Dom::kNnz;
  return Dom::kNone;
}

bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

std::size_t match_fwd(const std::vector<Token>& toks, std::size_t open,
                      std::size_t hi) {
  const std::string& o = toks[open].text;
  const char* close = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < hi; ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == o) {
      ++depth;
    } else if (toks[i].text == close) {
      if (--depth == 0) return i;
    }
  }
  return hi;
}

void report(FileCtx& ctx, std::vector<Finding>& out, int line, std::string rule,
            std::string message) {
  if (ctx.supp.allowed(rule, line)) return;
  out.push_back({ctx.file->rel, line, std::move(rule), std::move(message)});
}

class DomainPass {
 public:
  DomainPass(FileCtx& ctx, const FnDataflow& fn) : ctx_(ctx), fn_(fn),
      toks_(ctx.file->tokens) {}

  void run(std::vector<Finding>& out) {
    if (!gate()) return;
    infer();
    check_subscripts(out);
    check_narrowing(out);
  }

 private:
  /// The seed vocabulary only means "sparse format" when several families
  /// appear together; x additionally needs a colind-family subscript.
  bool gate() {
    std::set<int> families;
    for (std::size_t i = fn_.cfg->body_begin; i < fn_.cfg->body_end; ++i) {
      if (!is_ident(toks_[i])) continue;
      const auto it = seed_table().find(toks_[i].text);
      if (it == seed_table().end()) continue;
      families.insert(it->second.family);
      if (it->second.family == 2 && i + 1 < fn_.cfg->body_end &&
          is_punct(toks_[i + 1], "[")) {
        colind_subscripted_ = true;
      }
    }
    for (const Param& p : fn_.cfg->params) {
      const auto it = seed_table().find(p.name);
      if (it != seed_table().end()) families.insert(it->second.family);
    }
    return families.size() >= 2;
  }

  /// Seeds apply to parameters, members, and locals that alias a same-named
  /// member (`const auto& rowptr = a.rowptr;`) — but not to unrelated locals
  /// that merely reuse a seed name.
  bool seed_applies(const std::string& name) const {
    const auto vit = fn_.vars.find(name);
    if (vit == fn_.vars.end() || vit->second.param) return true;
    for (const StmtInfo& st : fn_.stmts) {
      for (const DeclInfo& d : st.decls) {
        if (d.name != name || !d.has_init) continue;
        for (std::size_t k = d.init_begin; k < d.init_end; ++k) {
          if (is_ident(toks_[k]) && toks_[k].text == name && k > d.init_begin &&
              toks_[k - 1].kind == TokKind::kPunct &&
              (toks_[k - 1].text == "." || toks_[k - 1].text == "->")) {
            return true;  // initialized from the member of the same name
          }
        }
        return false;
      }
    }
    return true;
  }

  const Seed* seed_for(const std::string& name) const {
    const auto it = seed_table().find(name);
    if (it == seed_table().end()) {
      if (name == "x" && colind_subscripted_) {
        static const Seed x_seed{Dom::kCol, Dom::kNone, 2};
        return &x_seed;
      }
      return nullptr;
    }
    return seed_applies(name) ? &it->second : nullptr;
  }

  void set_dom(const std::string& v, Dom d) {
    if (d != Dom::kRow && d != Dom::kCol && d != Dom::kNnz) return;
    const auto it = var_dom_.find(v);
    if (it == var_dom_.end()) {
      var_dom_[v] = d;
    } else if (it->second != d) {
      it->second = Dom::kUnknown;  // conflicting evidence: stay silent
    }
  }

  void infer() {
    // Loop bounds: `for (...; v < bound; ...)` pins v to the bound's domain.
    for (const CfgLoop& loop : fn_.cfg->loops) {
      const std::size_t b = loop.cond_begin, e = loop.cond_end;
      if (b + 1 >= e || !is_ident(toks_[b]) || !is_punct(toks_[b + 1], "<")) {
        continue;
      }
      std::size_t bb = b + 2;
      if (bb < e && is_punct(toks_[bb], "=")) ++bb;  // <=
      std::size_t be = e;
      int depth = 0;
      for (std::size_t i = bb; i < e; ++i) {  // stop at `&&`
        if (toks_[i].kind != TokKind::kPunct) continue;
        if (toks_[i].text == "(" || toks_[i].text == "[") ++depth;
        else if (toks_[i].text == ")" || toks_[i].text == "]") --depth;
        else if (depth == 0 && toks_[i].text == "&") { be = i; break; }
      }
      set_dom(toks_[b].text, eval(bb, be));
    }
    // Assignment propagation to a fixpoint (3 rounds cover the chains that
    // occur in practice; anything deeper stays unknown, i.e. silent).
    for (int round = 0; round < 3; ++round) {
      for (const StmtInfo& st : fn_.stmts) {
        for (const AssignInfo& a : st.assigns) {
          if (a.name.empty() || !a.plain) continue;
          set_dom(a.name, eval(a.rhs_begin, a.rhs_end));
        }
      }
    }
  }

  Dom var_dom(const std::string& v) const {
    const auto it = var_dom_.find(v);
    return it == var_dom_.end() ? Dom::kNone : it->second;
  }

  /// Domain of one additive term [b, e). Terms the evaluator does not model
  /// (multiplication, shifts, calls other than extent getters) are unknown.
  Dom eval_term(std::size_t b, std::size_t e) const {
    if (b >= e) return Dom::kNone;
    if (toks_[e - 1].kind == TokKind::kNumber && e - b == 1) return Dom::kNone;
    if (!is_ident(toks_[b])) return Dom::kUnknown;
    // Walk the chain: root(.member|->member|[..]|())* — must consume the
    // whole term.
    std::string last = toks_[b].text;
    Dom dom = Dom::kUnknown;
    bool subscripted = false;
    std::size_t i = b + 1;
    while (i < e) {
      if ((is_punct(toks_[i], ".") || is_punct(toks_[i], "->") ||
           is_punct(toks_[i], "::")) &&
          i + 1 < e && is_ident(toks_[i + 1])) {
        last = toks_[i + 1].text;
        subscripted = false;
        i += 2;
      } else if (is_punct(toks_[i], "[")) {
        const std::size_t close = match_fwd(toks_, i, e);
        if (close >= e) return Dom::kUnknown;
        subscripted = true;
        i = close + 1;
      } else if (is_punct(toks_[i], "(")) {
        const std::size_t close = match_fwd(toks_, i, e);
        if (close >= e || close != i + 1) return Dom::kUnknown;  // args: opaque
        i = close + 1;
      } else {
        return Dom::kUnknown;
      }
    }
    if (subscripted) {
      const Seed* s = seed_for(last);
      dom = s != nullptr ? s->value : Dom::kUnknown;
    } else if (i == b + 1) {
      dom = var_dom(last);  // bare variable
      if (dom == Dom::kNone) {
        const Dom ext = extent_dom(last);
        if (ext != Dom::kNone) dom = ext;
      }
    } else {
      const Dom ext = extent_dom(last);  // a.rows / a.rows() / m.nnz()
      dom = ext != Dom::kNone ? ext : Dom::kUnknown;
    }
    return dom;
  }

  /// Domain of an expression: top-level +/- terms, same-domain subtraction
  /// is a length (none), exactly one domained term wins, anything else is
  /// unknown. A whole-range static_cast<...>(...) is transparent.
  Dom eval(std::size_t b, std::size_t e) const {
    while (b < e && is_ident(toks_[b]) &&
           (toks_[b].text == "static_cast" ||
            toks_[b].text == "size_t" || toks_[b].text == "index_t" ||
            toks_[b].text == "offset_t" || toks_[b].text == "int" ||
            toks_[b].text == "long")) {
      std::size_t open = b + 1;
      if (open < e && is_punct(toks_[open], "<")) {
        int depth = 0;
        while (open < e) {
          if (is_punct(toks_[open], "<")) ++depth;
          else if (is_punct(toks_[open], ">") && --depth == 0) break;
          ++open;
        }
        ++open;
      } else if (open + 1 < e && is_punct(toks_[open], "::")) {
        b += 2;  // std::size_t(...)-style qualification
        continue;
      }
      if (open >= e || !is_punct(toks_[open], "(")) break;
      const std::size_t close = match_fwd(toks_, open, e);
      if (close != e - 1) break;
      b = open + 1;
      e = close;
    }
    if (b >= e) return Dom::kNone;
    struct Term { Dom dom; char op; };  // op preceding the term
    std::vector<Term> terms;
    std::size_t tb = b;
    int depth = 0;
    char pending = '+';
    for (std::size_t i = b; i <= e; ++i) {
      const bool at_end = i == e;
      if (!at_end && toks_[i].kind == TokKind::kPunct) {
        const std::string& s = toks_[i].text;
        if (s == "(" || s == "[" || s == "{") {
          ++depth;
          continue;
        }
        if (s == ")" || s == "]" || s == "}") {
          --depth;
          continue;
        }
        if (depth != 0 || (s != "+" && s != "-")) continue;
        if (i == tb) {  // unary sign
          if (s == "-") pending = '-';
          tb = i + 1;
          continue;
        }
      } else if (!at_end) {
        continue;
      }
      terms.push_back({eval_term(tb, i), pending});
      if (!at_end) {
        pending = toks_[i].text[0];
        tb = i + 1;
      }
    }
    // same-domain subtraction collapses to a length
    for (std::size_t k = 1; k < terms.size(); ++k) {
      if (terms[k].op == '-' && terms[k].dom != Dom::kNone &&
          terms[k].dom != Dom::kUnknown) {
        for (std::size_t j = 0; j < k; ++j) {
          if (terms[j].dom == terms[k].dom) {
            terms[j].dom = Dom::kNone;
            terms[k].dom = Dom::kNone;
            break;
          }
        }
      }
    }
    Dom result = Dom::kNone;
    for (const Term& t : terms) {
      if (t.dom == Dom::kNone) continue;
      if (t.dom == Dom::kUnknown) return Dom::kUnknown;
      if (result == Dom::kNone) {
        result = t.dom;
      } else if (result != t.dom) {
        return Dom::kUnknown;
      }
    }
    return result;
  }

  void check_subscripts(std::vector<Finding>& out) {
    for (std::size_t i = fn_.cfg->body_begin; i < fn_.cfg->body_end; ++i) {
      if (!is_punct(toks_[i], "[") || i == 0 || !is_ident(toks_[i - 1])) continue;
      const std::string& name = toks_[i - 1].text;
      if (i >= 2 && is_punct(toks_[i - 2], "::")) continue;
      const Seed* s = seed_for(name);
      if (s == nullptr || s->index == Dom::kNone) continue;
      const std::size_t close = match_fwd(toks_, i, fn_.cfg->body_end);
      if (close >= fn_.cfg->body_end) continue;
      const Dom idx = eval(i + 1, close);
      if (idx == Dom::kNone || idx == Dom::kUnknown || idx == s->index) continue;
      report(ctx_, out, toks_[i].line, "index.domain-mix",
             "'" + name + "' is indexed by " + dom_name(s->index) +
                 " but this subscript is in the " + dom_name(idx) + " domain");
    }
  }

  static bool narrow_type(const std::vector<std::string>& type) {
    bool narrow = false;
    for (const std::string& t : type) {
      if (t == "long" || t == "int64_t" || t == "uint64_t" || t == "offset_t" ||
          t == "size_t" || t == "ptrdiff_t" || t == "auto" || t == "double" ||
          t == "float" || t == "value_t") {
        return false;
      }
      if (t == "int" || t == "index_t" || t == "int32_t" || t == "uint32_t" ||
          t == "unsigned" || t == "short" || t == "int16_t") {
        narrow = true;
      }
    }
    return narrow;
  }

  void check_narrowing(std::vector<Finding>& out) {
    for (const StmtInfo& st : fn_.stmts) {
      for (const AssignInfo& a : st.assigns) {
        if (a.name.empty() || !a.plain) continue;
        const auto vit = fn_.vars.find(a.name);
        if (vit == fn_.vars.end() || vit->second.pointer) continue;
        if (!narrow_type(vit->second.type)) continue;
        if (eval(a.rhs_begin, a.rhs_end) != Dom::kNnz) continue;
        report(ctx_, out, st.line, "index.domain-narrowing",
               "nnz-domain value stored into 32-bit row/col-typed '" + a.name +
                   "'; nnz offsets need offset_t (64-bit)");
      }
    }
  }

  FileCtx& ctx_;
  const FnDataflow& fn_;
  const std::vector<Token>& toks_;
  bool colind_subscripted_ = false;
  std::map<std::string, Dom> var_dom_;
};

}  // namespace

void check_domains(FileCtx& ctx, const FnDataflow& fn, std::vector<Finding>& out) {
  DomainPass{ctx, fn}.run(out);
}

}  // namespace sparta::analyze
