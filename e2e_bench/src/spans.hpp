// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened by the benchmark's own code around each call into a
// library module (reader, tuner, kernels, engine, vendor, checks), never
// inside the library. Each span records its name, start and end (steady
// clock, microseconds since the tracer was created), the id of the span
// that was open when it started (its parent), and the request it belongs
// to. Nothing is written until write_jsonl() at the end of the run, so the
// traced hot path costs one clock read and one vector append per span.
//
// A disabled tracer records nothing; Stage still times its scope so the
// untraced run reports the same setup/solve split without spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

struct SpanRecord {
  std::string name;
  std::string request;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1: root
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Per-name totals over the recorded spans.
struct LayerTotals {
  std::int64_t count = 0;
  double total_s = 0.0;
  /// Span time not covered by child spans.
  double self_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Label attached to every span opened from now on.
  void set_request(std::string id) { request_ = std::move(id); }

  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t open(const std::string& name);
  void close(std::int64_t index);
  void rename(std::int64_t index, std::string name);

  /// Self time of every span (duration minus the union of its children).
  [[nodiscard]] std::vector<double> self_seconds() const;
  [[nodiscard]] std::map<std::string, LayerTotals> totals() const;

  /// One JSON object per span, with its self time; returns false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::string request_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;  // stack of open span indices
};

/// Times one scope: adds its wall seconds to `*acc` (when non-null) and,
/// when the tracer is enabled, records it as a span.
class Stage {
 public:
  Stage(Tracer& tracer, const std::string& name, double* acc = nullptr)
      : tracer_(tracer), acc_(acc), span_(tracer.open(name)), start_(Clock::now()) {}
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;
  ~Stage() { finish(); }

  /// Ends the scope early; returns its seconds. Idempotent.
  double finish();
  /// Renames the span (e.g. once the outcome of the call is known).
  void rename(std::string name) { tracer_.rename(span_, std::move(name)); }

 private:
  using Clock = std::chrono::steady_clock;
  Tracer& tracer_;
  double* acc_;
  std::int64_t span_;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

}  // namespace e2e
