#include "stats.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(values.size()) - 1e-9);
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

Tail HighestSupportedTail(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(values.size()) * (1 - pct / 100);
    // The epsilon keeps 1000 samples at p99 (9.999...) supported.
    if (beyond + 1e-9 < 10.0) break;
    tail.pct = pct;
  }
  if (tail.pct > 0) tail.value = Percentile(values, tail.pct);
  return tail;
}

void Schedule::AddSegment(uint64_t events, double rate) {
  Segment segment;
  segment.first = total_;
  segment.events = events;
  segment.rate = rate;
  segment.start = segments_.empty() ? 0.0 : SegmentEnd(segments_.size() - 1);
  segments_.push_back(segment);
  total_ += events;
}

double Schedule::SegmentEnd(size_t k) const {
  const Segment& s = segments_[k];
  if (s.rate <= 0) return s.start;
  return s.start + static_cast<double>(s.events) / s.rate;
}

size_t Schedule::SegmentOf(uint64_t i) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), i,
      [](uint64_t v, const Segment& s) { return v < s.first; });
  return it == segments_.begin()
             ? 0
             : static_cast<size_t>(std::distance(segments_.begin(), it)) - 1;
}

double Schedule::DueSeconds(uint64_t i) const {
  if (segments_.empty()) return 0.0;
  const Segment& s = segments_[SegmentOf(i)];
  if (s.rate <= 0) return s.start;
  return s.start + static_cast<double>(i - s.first) / s.rate;
}

uint64_t Schedule::DueCount(double seconds) const {
  uint64_t due = 0;
  for (const Segment& s : segments_) {
    if (seconds < s.start) break;
    if (s.rate <= 0) {
      due = s.first + s.events;
      continue;
    }
    // Event s.first + j is due at s.start + j / rate.
    const double j = std::floor((seconds - s.start) * s.rate) + 1;
    due = s.first + std::min<uint64_t>(s.events, static_cast<uint64_t>(j));
  }
  return due;
}

size_t EventIndexAt(const std::vector<int64_t>& timestamps, int64_t end) {
  auto it = std::upper_bound(timestamps.begin(), timestamps.end(), end);
  return it == timestamps.begin()
             ? 0
             : static_cast<size_t>(std::distance(timestamps.begin(), it)) - 1;
}

}  // namespace perfbench
