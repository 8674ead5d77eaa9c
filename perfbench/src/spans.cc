#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "stats.h"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int32_t SpanRecorder::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int32_t id = static_cast<int32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

int32_t SpanRecorder::Begin(std::string_view name) {
  if (!enabled_) return -1;
  Span span;
  span.name = Intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  span.start_ns = NowNs();
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close innermost first; tolerate an out-of-order End by popping
  // down to the closed span.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

int32_t SpanRecorder::Add(int32_t name, int64_t start_ns, int64_t end_ns,
                          int32_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.run = run_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size()) - 1;
}

std::map<std::string, double> SpanRecorder::SelfSeconds(int32_t run) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (run >= 0 && span.run != run) continue;
    self[names_[static_cast<size_t>(span.name)]] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

std::map<std::string, double> SpanRecorder::TotalSeconds(int32_t run) const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) {
    if (run >= 0 && span.run != run) continue;
    total[names_[static_cast<size_t>(span.name)]] +=
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return total;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    size_t max_spans) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  const size_t written = std::min(max_spans, spans_.size());
  for (size_t i = 0; i < written; ++i) {
    const Span& span = spans_[i];
    // Names are fixed identifiers from this package: no escaping needed.
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run\":%d}}",
                 i == 0 ? "" : ",",
                 names_[static_cast<size_t>(span.name)].c_str(),
                 span.run, static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 span.parent, span.run);
  }
  std::fprintf(out,
               "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%zu,"
               "\"left_out\":%zu}}\n",
               spans_.size(), spans_.size() - written);
  return std::fclose(out) == 0;
}

LayerTimes SummarizeRuns(const SpanRecorder& recorder, const std::string& root,
                         int32_t runs) {
  std::map<std::string, std::vector<double>> by_layer;
  std::vector<double> coverage;
  for (int32_t run = 1; run <= runs; ++run) {
    std::map<std::string, double> self = recorder.SelfSeconds(run);
    for (const auto& [name, seconds] : self) by_layer[name].push_back(seconds);
    const double total = recorder.TotalSeconds(run)[root];
    if (total > 0) coverage.push_back(1.0 - self[root] / total);
  }
  LayerTimes times;
  for (const auto& [name, values] : by_layer) {
    times.self_s[name] = Median(values);
  }
  times.coverage = Median(coverage);
  return times;
}

}  // namespace perfbench
