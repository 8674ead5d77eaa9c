#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One timed call: name, start, end, the span it ran inside, and the run
/// (one repetition of a workload) it belongs to.
struct Span {
  int32_t name = 0;    ///< Index into SpanRecorder::names().
  int32_t parent = -1; ///< Index of the enclosing span, -1 for a root.
  int32_t run = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span log of the traced run. Spans nest: Begin opens a child of
/// the innermost open span. A disabled recorder records nothing, so the
/// untraced run pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  void set_run(int32_t run) { run_ = run; }

  /// Opens a span; returns its index, or -1 when disabled.
  int32_t Begin(std::string_view name);
  void End(int32_t id);
  /// Records an already-timed span under `parent` (-1: a root); returns
  /// its index, or -1 when disabled. `name` comes from Intern, so a hot
  /// loop pays no name lookup per span.
  int32_t Add(int32_t name, int64_t start_ns, int64_t end_ns, int32_t parent);
  int32_t Intern(std::string_view name);
  /// Index of the innermost open span, -1 when none is open.
  int32_t Current() const { return open_.empty() ? -1 : open_.back(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Nanoseconds since the recorder was created.
  int64_t NowNs() const;

  /// Self time per span name, in seconds: each span's duration minus the
  /// part its child spans cover. `run` < 0 sums every run.
  std::map<std::string, double> SelfSeconds(int32_t run = -1) const;
  /// Total duration per span name, in seconds.
  std::map<std::string, double> TotalSeconds(int32_t run = -1) const;

  /// Writes the first `max_spans` spans as Chrome trace-event JSON ("X"
  /// events, one row per run, parent index in args; otherData says how
  /// many were left out). False when the file cannot be written.
  bool WriteChromeTrace(const std::string& path, size_t max_spans) const;

 private:
  bool enabled_;
  int32_t run_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::vector<std::string> names_;
  std::map<std::string, int32_t, std::less<>> ids_;
};

/// Per-layer self times of runs 1..`runs`, each the median over the runs,
/// and the median share of the `root` span's time that its descendants
/// cover (how much of the traced wall time the layers account for).
struct LayerTimes {
  std::map<std::string, double> self_s;
  double coverage = 0;

  /// Self time of `name`, 0 when no run recorded it.
  double Self(const std::string& name) const {
    auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
  }
};
LayerTimes SummarizeRuns(const SpanRecorder& recorder, const std::string& root,
                         int32_t runs);

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name)
      : recorder_(recorder), id_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
