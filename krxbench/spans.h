// In-memory span recorder for the traced (--trace 1) run.
//
// Spans are opened and closed by the benchmark's own code around each call
// into a program layer; nothing inside the program is instrumented. Each
// span has a name, a start, an end and the span that caused it (the
// innermost span open when it began). Spans stay in memory until the run
// ends, then go out as one Chrome trace ({"traceEvents": [B/E pairs]}, the
// shape `krx_trace validate` accepts). A disabled recorder reads no clock
// and stores nothing, so the untraced run pays only a branch per call site.
#ifndef KRXBENCH_SPANS_H_
#define KRXBENCH_SPANS_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace krxbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  struct Span {
    const char* name = nullptr;  // a string literal
    int id = 0;                  // 1-based; index + 1 into spans()
    int parent = 0;              // 0 = root
    double start_us = 0;         // since the recorder's origin
    double end_us = -1;          // < 0 while open
    double ms() const { return (end_us - start_us) / 1000.0; }
  };

  bool enabled() const { return enabled_; }
  // Opens a span under the innermost open span; returns its id, or 0 when
  // disabled.
  int Begin(const char* name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (ms) of every closed span called `name`.
  std::vector<double> DurationsMs(const char* name) const;

  // Writes the Chrome trace and re-reads it with the program's JSON parser,
  // requiring balanced B/E events (what `krx_trace validate` checks).
  krx::Status WriteChromeTrace(const std::string& path) const;

  // Prints, for the span tree under each span called `root`, the self time
  // of every span name (a span's duration minus the part its children
  // cover) and an explicit "unaccounted" row: the root's own self time.
  void PrintBreakdown(std::FILE* out, const char* root) const;

  // Host cost of one Begin/End pair on an enabled recorder, in
  // microseconds, measured on a scratch recorder.
  static double CostPerSpanUs();

 private:
  double NowUs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
  // Event log in emission order: +id = begin, -id = end.
  std::vector<int> events_;
};

// RAII span: opens on construction, closes on Close() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.Begin(name)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Close() {
    if (id_ != 0) {
      recorder_.End(id_);
      id_ = 0;
    }
  }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace krxbench

#endif  // KRXBENCH_SPANS_H_
