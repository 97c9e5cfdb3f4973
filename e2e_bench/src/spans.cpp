#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/json.hpp"

namespace e2e {

std::int64_t Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = name;
  s.request = request_;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  // Spans close in LIFO order (Stage is scoped); tolerate an early finish()
  // of an outer span by dropping everything above it.
  const auto it = std::find(open_.begin(), open_.end(), index);
  open_.erase(it, open_.end());
}

void Tracer::rename(std::int64_t index, std::string name) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].name = std::move(name);
}

std::vector<double> Tracer::self_seconds() const {
  // Children are recorded after their parent and nest inside it, so the
  // union of a span's children is the sum of their durations clipped to
  // the parent interval.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans_[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end_us - spans_[i].start_us;
    self[i] = std::max(0.0, dur - covered[i]) * 1e-6;
  }
  return self;
}

std::map<std::string, LayerTotals> Tracer::totals() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_s += (spans_[i].end_us - spans_[i].start_us) * 1e-6;
    t.self_s += self[i];
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  namespace json = sparta::obs::json;
  std::ofstream os{path};
  if (!os) return false;
  const std::vector<double> self = self_seconds();
  std::string line;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    line = "{\"name\":";
    json::append_quoted(line, s.name);
    line += ",\"request\":";
    json::append_quoted(line, s.request);
    line += ",\"id\":";
    json::append_number(line, static_cast<double>(s.id));
    line += ",\"parent\":";
    json::append_number(line, static_cast<double>(s.parent));
    line += ",\"start_us\":";
    json::append_number(line, s.start_us);
    line += ",\"end_us\":";
    json::append_number(line, s.end_us);
    line += ",\"self_us\":";
    json::append_number(line, self[i] * 1e6);
    line += "}\n";
    os << line;
  }
  return static_cast<bool>(os.flush());
}

double Stage::finish() {
  if (seconds_ >= 0.0) return seconds_;
  seconds_ = std::chrono::duration<double>(Clock::now() - start_).count();
  tracer_.close(span_);
  if (acc_ != nullptr) *acc_ += seconds_;
  return seconds_;
}

}  // namespace e2e
