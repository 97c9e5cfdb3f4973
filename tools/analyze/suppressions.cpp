#include "suppressions.hpp"

#include <cctype>

namespace sparta::analyze {

namespace {

bool rule_char(char c) {
  return (std::islower(static_cast<unsigned char>(c)) != 0) ||
         (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '.' || c == '-';
}

}  // namespace

Suppressions::Suppressions(const std::vector<std::string>& comment_lines) {
  const std::string marker = std::string(kTag) + ":";
  for (std::size_t i = 0; i < comment_lines.size(); ++i) {
    const std::string& line = comment_lines[i];
    std::size_t pos = line.find(marker);
    if (pos == std::string::npos) continue;
    pos += marker.size();
    while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
    if (line.compare(pos, 6, "allow(") != 0) continue;
    pos += 6;
    // Comma-separated rule list up to the closing paren.
    while (pos < line.size() && line[pos] != ')') {
      while (pos < line.size() &&
             (std::isspace(static_cast<unsigned char>(line[pos])) || line[pos] == ',')) {
        ++pos;
      }
      std::string rule;
      while (pos < line.size() && rule_char(line[pos])) rule.push_back(line[pos++]);
      if (!rule.empty()) entries_.push_back({static_cast<int>(i) + 1, rule, false});
      if (pos < line.size() && line[pos] != ')' && line[pos] != ',' &&
          !std::isspace(static_cast<unsigned char>(line[pos]))) {
        break;  // malformed list; stop rather than loop
      }
    }
  }
}

bool Suppressions::allowed(std::string_view rule, int line) {
  bool hit = false;
  for (Entry& e : entries_) {
    if (e.rule == rule && (e.line == line || e.line == line - 1)) {
      e.used = true;
      hit = true;
    }
  }
  return hit;
}

std::vector<Suppressions::Entry> Suppressions::unused() const {
  std::vector<Entry> out;
  for (const Entry& e : entries_) {
    if (!e.used) out.push_back(e);
  }
  return out;
}

}  // namespace sparta::analyze
