// C++ tokenizer for sparta_analyze.
//
// Deliberately not a full lexer: the analyzer needs exactly enough to walk
// code structure without being fooled by text that *looks* like code —
// comments containing pragmas, string literals containing `push_back`, raw
// strings containing anything at all, and backslash-continued lines. It
// produces:
//   - code tokens (identifiers, numbers, punctuation) with physical line
//     numbers; string/char literal contents are dropped (a single String
//     token marks their position);
//   - preprocessor directives as whole logical lines (continuations joined,
//     comments stripped, whitespace collapsed), since OpenMP pragmas and
//     includes are line-oriented;
//   - the comment text of every physical line, the only text the
//     suppression markers are read from (tools/analyze/suppressions.hpp),
//     so a marker inside a string literal is not a suppression.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sparta::analyze {

enum class TokKind { kIdent, kNumber, kPunct, kString, kChar };

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;  // empty for kString/kChar (contents are never code)
  int line = 0;      // 1-based physical line of the token's first character
};

struct Directive {
  int line = 0;      // 1-based physical line the directive starts on
  std::string text;  // logical line: continuations joined, comments stripped,
                     // whitespace runs collapsed to single spaces
  std::size_t tok = 0;  // index of the first code token *after* the directive,
                        // so structural passes can interleave directives with
                        // the token stream (region trees need to know which
                        // statement a pragma precedes)
};

struct LexedFile {
  std::string rel;                     // path relative to the analysis root
  std::vector<std::string> comment_lines;  // comment text per physical line
                                           // (index = line - 1; "" when none)
  std::vector<Token> tokens;
  std::vector<Directive> directives;
};

/// Tokenize `content` (UTF-8/ASCII source text) as the file `rel`.
LexedFile lex(std::string rel, std::string_view content);

/// `text` with every whitespace character removed — the normal form used to
/// match clause syntax such as `default(none)` inside directives.
std::string squash(std::string_view text);

}  // namespace sparta::analyze
