#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile of `values`, `pct` in [0, 100]; 0 when empty.
double Percentile(std::vector<double> values, double pct);

/// A tail percentile together with the sample it was computed from.
struct Tail {
  double pct = 0.0;  ///< 0 when no listed percentile is supported.
  double value = 0.0;
  size_t samples = 0;
};

/// The highest of p50, p90, p99, p99.9 and p99.99 that has at least ten
/// samples beyond it (samples * (1 - pct/100) >= 10), with its value.
Tail HighestSupportedTail(const std::vector<double>& values);

/// An open-loop send schedule: consecutive segments, each a number of
/// events offered at a fixed rate. Event i of a segment starting at time s
/// with rate r is due at s + i / r; a segment with rate <= 0 offers all of
/// its events at its start (closed loop: as fast as the receiver reads).
class Schedule {
 public:
  void AddSegment(uint64_t events, double rate);

  uint64_t total() const { return total_; }
  size_t segments() const { return segments_.size(); }
  double SegmentRate(size_t k) const { return segments_[k].rate; }
  uint64_t SegmentEvents(size_t k) const { return segments_[k].events; }
  double SegmentStart(size_t k) const { return segments_[k].start; }
  double SegmentEnd(size_t k) const;

  /// Seconds after the schedule start at which event `i` is due.
  double DueSeconds(uint64_t i) const;
  /// Events due at or before `seconds` after the start.
  uint64_t DueCount(double seconds) const;
  /// Segment holding event `i`.
  size_t SegmentOf(uint64_t i) const;

 private:
  struct Segment {
    uint64_t first = 0;
    uint64_t events = 0;
    double rate = 0.0;
    double start = 0.0;
  };
  std::vector<Segment> segments_;
  uint64_t total_ = 0;
};

/// Index of the event a match ends on: the last event whose timestamp is
/// <= `end` in the nondecreasing `timestamps` (0 when none is). A match's
/// latency runs from DueSeconds of that index to when its line is seen.
size_t EventIndexAt(const std::vector<int64_t>& timestamps, int64_t end);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
