#include "krxbench/spans.h"

#include <fstream>
#include <map>
#include <sstream>

#include "src/telemetry/json.h"

namespace krxbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(const char* name) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size()) + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.start_us = NowUs();
  spans_.push_back(span);
  open_.push_back(span.id);
  events_.push_back(span.id);
  return span.id;
}

void SpanRecorder::End(int id) {
  if (!enabled_ || id <= 0) {
    return;
  }
  // Spans close innermost-first (RAII scopes); closing an outer span also
  // closes whatever it still encloses, so the B/E log stays balanced.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    spans_[static_cast<size_t>(top - 1)].end_us = NowUs();
    events_.push_back(-top);
    if (top == id) {
      break;
    }
  }
}

std::vector<double> SpanRecorder::DurationsMs(const char* name) const {
  std::vector<double> out;
  const std::string wanted(name);
  for (const Span& s : spans_) {
    if (s.end_us >= 0 && wanted == s.name) {
      out.push_back(s.ms());
    }
  }
  return out;
}

krx::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (int ev : events_) {
    const Span& s = spans_[static_cast<size_t>((ev > 0 ? ev : -ev) - 1)];
    os << (first ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"ph\":\""
       << (ev > 0 ? "B" : "E") << "\",\"ts\":" << (ev > 0 ? s.start_us : s.end_us)
       << ",\"pid\":1,\"tid\":1";
    if (ev > 0) {
      os << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}";
    }
    os << "}";
    first = false;
  }
  os << "\n]}\n";
  const std::string text = os.str();
  {
    std::ofstream out(path);
    out << text;
    if (!out) {
      return krx::InternalError("cannot write " + path);
    }
  }
  // Re-read what was written, with the checks krx_trace validate applies.
  std::ifstream in(path);
  std::ostringstream back;
  back << in.rdbuf();
  auto doc = krx::telemetry::ParseJson(back.str());
  if (!doc.ok()) {
    return krx::InternalError(path + ": parse error: " + doc.status().message());
  }
  const krx::telemetry::JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return krx::InternalError(path + ": no traceEvents array");
  }
  size_t begins = 0;
  size_t ends = 0;
  for (const krx::telemetry::JsonValue& e : events->array) {
    const std::string ph = e.Find("ph") ? e.Find("ph")->StringOr("") : "";
    begins += ph == "B";
    ends += ph == "E";
  }
  if (begins != ends || begins != spans_.size()) {
    return krx::InternalError(path + ": unbalanced spans");
  }
  return krx::Status::Ok();
}

void SpanRecorder::PrintBreakdown(std::FILE* out, const char* root) const {
  struct Row {
    size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<double> child_ms(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_us >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.ms();
    }
  }
  // Which spans lie under a `root` span, and under which one.
  const std::string root_name(root);
  std::vector<int> root_of(spans_.size() + 1, 0);
  double root_total = 0;
  double unaccounted = 0;
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    if (s.end_us < 0) {
      continue;
    }
    const size_t i = static_cast<size_t>(s.id);
    if (root_name == s.name) {
      root_of[i] = s.id;
      root_total += s.ms();
      unaccounted += s.ms() - child_ms[i];
      continue;
    }
    root_of[i] = s.parent == 0 ? 0 : root_of[static_cast<size_t>(s.parent)];
    if (root_of[i] == 0) {
      continue;
    }
    Row& row = rows[s.name];
    ++row.count;
    row.total_ms += s.ms();
    row.self_ms += s.ms() - child_ms[i];
  }
  std::fprintf(out, "breakdown of %s (%.1f ms): self time per span name\n", root, root_total);
  std::fprintf(out, "  %-28s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms",
               "self%");
  for (const auto& [name, row] : rows) {
    std::fprintf(out, "  %-28s %8zu %12.2f %12.2f %6.1f%%\n", name.c_str(), row.count,
                 row.total_ms, row.self_ms,
                 root_total > 0 ? 100.0 * row.self_ms / root_total : 0.0);
  }
  std::fprintf(out, "  %-28s %8s %12s %12.2f %6.1f%%\n", "unaccounted", "-", "-", unaccounted,
               root_total > 0 ? 100.0 * unaccounted / root_total : 0.0);
}

double SpanRecorder::CostPerSpanUs() {
  constexpr int kSpans = 20000;
  SpanRecorder scratch(true);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSpans; ++i) {
    scratch.End(scratch.Begin("calibrate"));
  }
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
             .count() /
         kSpans;
}

}  // namespace krxbench
