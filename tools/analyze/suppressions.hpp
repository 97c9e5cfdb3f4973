// Suppression comments for sparta_analyze.
//
// Grammar (shared with tools/sparta_lint.py; the single normative statement
// lives in DESIGN.md §12):
//
//     // sparta-<tool>: allow(rule[, rule]...)
//
// where <tool> is `analyze` here and `lint` for the Python linter, and each
// rule matches [a-z0-9.-]+. Only comment text counts: a marker inside a
// string literal is neither a suppression nor an unused one. A suppression
// applies to findings on its own physical line or the line directly below
// it, so it can either trail the offending statement or sit on its own line
// above. Suppressions that never match a finding are themselves reported
// (rule `suppression.unused`) so stale allowances cannot accumulate.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sparta::analyze {

class Suppressions {
 public:
  /// The marker tag this tool reads.
  static constexpr std::string_view kTag = "sparta-analyze";

  /// Scan the per-line comment text (LexedFile::comment_lines) for
  /// `<kTag>: allow(...)` markers.
  explicit Suppressions(const std::vector<std::string>& comment_lines);

  /// True if `rule` is suppressed at 1-based `line`; marks the entry used.
  bool allowed(std::string_view rule, int line);

  struct Entry {
    int line = 0;  // 1-based line the allow() comment is on
    std::string rule;
    bool used = false;
  };

  /// Entries that never matched a finding, in file order.
  std::vector<Entry> unused() const;

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace sparta::analyze
