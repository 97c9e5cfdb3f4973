#include "tokenizer.hpp"

#include <cctype>
#include <utility>

namespace sparta::analyze {

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Spliced source: physical lines joined at backslash-newline, with a
/// parallel per-character map back to the physical line number. Raw string
/// literals are the one place the standard forbids splicing; they are rare
/// enough in practice that the tokenizer accepts the approximation.
struct Spliced {
  std::string text;
  std::vector<int> line;  // line[i] = 1-based physical line of text[i]
};

Spliced splice(std::string_view content) {
  Spliced out;
  out.text.reserve(content.size());
  out.line.reserve(content.size());
  int line = 1;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (c == '\\') {
      std::size_t j = i + 1;
      if (j < content.size() && content[j] == '\r') ++j;
      if (j < content.size() && content[j] == '\n') {
        ++line;
        i = j;
        continue;
      }
    }
    if (c == '\r') continue;
    out.text.push_back(c);
    out.line.push_back(line);
    if (c == '\n') ++line;
  }
  return out;
}

// Raw-string prefixes: R, u8R, uR, UR, LR.
bool raw_string_prefix(std::string_view ident) {
  return ident == "R" || ident == "u8R" || ident == "uR" || ident == "UR" || ident == "LR";
}

class Lexer {
 public:
  Lexer(LexedFile& out, const Spliced& src) : out_(out), s_(src.text), line_(src.line) {}

  void run() {
    bool line_start = true;  // only whitespace seen since the last newline
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\n') {
        line_start = true;
        ++pos_;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\f' || c == '\v') {
        ++pos_;
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        skip_line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        skip_block_comment();
        continue;
      }
      if (c == '#' && line_start) {
        lex_directive();
        line_start = true;
        continue;
      }
      line_start = false;
      if (c == '"') {
        lex_string();
        continue;
      }
      if (c == '\'') {
        lex_char();
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        lex_number();
        continue;
      }
      if (ident_start(c)) {
        lex_ident();
        continue;
      }
      lex_punct();
    }
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < s_.size() ? s_[pos_ + ahead] : '\0';
  }
  int line_at(std::size_t p) const {
    if (line_.empty()) return 1;
    return line_[p < line_.size() ? p : line_.size() - 1];
  }

  // Comments are skipped as code but their text is kept, per physical line,
  // in comment_lines (the delimiters included).
  void keep_comment_char(std::size_t p) {
    const char c = s_[p];
    if (c == '\n') return;
    const auto line = static_cast<std::size_t>(line_at(p));
    if (out_.comment_lines.size() < line) out_.comment_lines.resize(line);
    out_.comment_lines[line - 1].push_back(c);
  }

  void skip_line_comment() {
    while (pos_ < s_.size() && s_[pos_] != '\n') keep_comment_char(pos_++);
  }

  void skip_block_comment() {
    const std::size_t end = s_.find("*/", pos_ + 2);
    const std::size_t stop = end == std::string::npos ? s_.size() : end + 2;
    while (pos_ < stop) keep_comment_char(pos_++);
  }

  // Ordinary string literal; escapes honoured, contents discarded.
  void lex_string() {
    const int line = line_at(pos_);
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\n') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '"') ++pos_;
    out_.tokens.push_back({TokKind::kString, "", line});
  }

  // R"delim( ... )delim" — no escapes, terminated only by the exact suffix.
  void lex_raw_string(int line) {
    ++pos_;  // consume the opening quote
    std::string delim;
    while (pos_ < s_.size() && s_[pos_] != '(') delim.push_back(s_[pos_++]);
    if (pos_ < s_.size()) ++pos_;  // '('
    const std::string suffix = ")" + delim + "\"";
    const std::size_t end = s_.find(suffix, pos_);
    pos_ = end == std::string::npos ? s_.size() : end + suffix.size();
    out_.tokens.push_back({TokKind::kString, "", line});
  }

  void lex_char() {
    const int line = line_at(pos_);
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '\'' && s_[pos_] != '\n') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '\'') ++pos_;
    out_.tokens.push_back({TokKind::kChar, "", line});
  }

  void lex_number() {
    const int line = line_at(pos_);
    std::string text;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_') {
        text.push_back(c);
        ++pos_;
        // Exponent signs are part of the number: 1e+3, 0x1p-4.
        if ((c == 'e' || c == 'E' || c == 'p' || c == 'P') && pos_ < s_.size() &&
            (s_[pos_] == '+' || s_[pos_] == '-')) {
          text.push_back(s_[pos_++]);
        }
      } else if (c == '\'' && pos_ + 1 < s_.size() &&
                 std::isalnum(static_cast<unsigned char>(s_[pos_ + 1]))) {
        ++pos_;  // digit separator, e.g. 1'000'000
      } else {
        break;
      }
    }
    out_.tokens.push_back({TokKind::kNumber, std::move(text), line});
  }

  void lex_ident() {
    const int line = line_at(pos_);
    std::string text;
    while (pos_ < s_.size() && ident_char(s_[pos_])) text.push_back(s_[pos_++]);
    if (text == "_Pragma" && lex_pragma_operator(line)) return;
    if (pos_ < s_.size() && s_[pos_] == '"' && raw_string_prefix(text)) {
      lex_raw_string(line);
      return;
    }
    if (pos_ < s_.size() && (s_[pos_] == '"' || s_[pos_] == '\'') &&
        (text == "u8" || text == "u" || text == "U" || text == "L")) {
      // Encoding-prefixed ordinary literal: re-dispatch on the quote.
      if (s_[pos_] == '"') {
        lex_string();
      } else {
        lex_char();
      }
      return;
    }
    out_.tokens.push_back({TokKind::kIdent, std::move(text), line});
  }

  void lex_punct() {
    const int line = line_at(pos_);
    const char c = s_[pos_];
    // Two-character tokens the rules look at as a unit.
    if ((c == ':' && peek(1) == ':') || (c == '-' && peek(1) == '>')) {
      out_.tokens.push_back({TokKind::kPunct, std::string{c, s_[pos_ + 1]}, line});
      pos_ += 2;
      return;
    }
    out_.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
    ++pos_;
  }

  // `_Pragma("...")` operator form: destringize the literal ('\"' -> '"',
  // '\\' -> '\') and record it as if it were the equivalent `#pragma` line,
  // so OpenMP directives written through macros reach the directive model.
  // Returns false (leaving an ordinary identifier token) when what follows
  // is not a parenthesized string literal.
  bool lex_pragma_operator(int line) {
    std::size_t p = pos_;
    const auto skip_ws = [&] {
      while (p < s_.size() && (s_[p] == ' ' || s_[p] == '\t' || s_[p] == '\n' ||
                               s_[p] == '\f' || s_[p] == '\v')) {
        ++p;
      }
    };
    skip_ws();
    if (p >= s_.size() || s_[p] != '(') return false;
    ++p;
    skip_ws();
    if (p >= s_.size() || s_[p] != '"') return false;
    ++p;
    std::string content;
    while (p < s_.size() && s_[p] != '"' && s_[p] != '\n') {
      if (s_[p] == '\\' && p + 1 < s_.size()) ++p;  // destringize the escape
      content.push_back(s_[p++]);
    }
    if (p >= s_.size() || s_[p] != '"') return false;
    ++p;
    skip_ws();
    if (p >= s_.size() || s_[p] != ')') return false;
    pos_ = p + 1;
    // No token is emitted: like a real `#pragma` line, the operator form is
    // invisible to the token stream and visible only as a directive.
    out_.directives.push_back({line, normalize("#pragma " + content),
                               out_.tokens.size()});
    return true;
  }

  // A preprocessor logical line: '#' through end of (spliced) line, with
  // comments stripped and whitespace collapsed.
  void lex_directive() {
    const int line = line_at(pos_);
    std::string text;
    while (pos_ < s_.size() && s_[pos_] != '\n') {
      const char c = s_[pos_];
      if (c == '/' && peek(1) == '/') {
        skip_line_comment();
        break;
      }
      if (c == '/' && peek(1) == '*') {
        skip_block_comment();
        text.push_back(' ');
        continue;
      }
      if (c == '"') {
        // Keep include targets verbatim: copy the literal including quotes.
        text.push_back(c);
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\n') {
          if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) text.push_back(s_[pos_++]);
          text.push_back(s_[pos_++]);
        }
        if (pos_ < s_.size() && s_[pos_] == '"') {
          text.push_back('"');
          ++pos_;
        }
        continue;
      }
      text.push_back(c);
      ++pos_;
    }
    out_.directives.push_back({line, normalize(text), out_.tokens.size()});
  }

  // Collapse whitespace runs to single spaces and trim.
  static std::string normalize(const std::string& text) {
    std::string norm;
    bool in_space = false;
    for (const char c : text) {
      if (c == ' ' || c == '\t' || c == '\f' || c == '\v') {
        in_space = !norm.empty();
      } else {
        if (in_space) norm.push_back(' ');
        in_space = false;
        norm.push_back(c);
      }
    }
    return norm;
  }

  LexedFile& out_;
  const std::string& s_;
  const std::vector<int>& line_;
  std::size_t pos_ = 0;
};

}  // namespace

LexedFile lex(std::string rel, std::string_view content) {
  LexedFile out;
  out.rel = std::move(rel);
  const Spliced spliced = splice(content);
  Lexer{out, spliced}.run();
  return out;
}

std::string squash(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

}  // namespace sparta::analyze
