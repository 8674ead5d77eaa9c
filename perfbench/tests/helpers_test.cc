#include <gtest/gtest.h>

#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // Unsorted on purpose.
  return values;
}

TEST(Percentiles, NearestRankAndMedian) {
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 50), 50);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 99), 99);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(100), 100), 100);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(1000), 99.9), 999);
  EXPECT_DOUBLE_EQ(Percentile({}, 99), 0);
  EXPECT_DOUBLE_EQ(Median(OneTo(5)), 3);
  EXPECT_DOUBLE_EQ(Median(OneTo(4)), 2.5);
}

TEST(Percentiles, HighestTailNeedsTenSamplesBeyondIt) {
  Tail tail = HighestSupportedTail(OneTo(1000));
  EXPECT_DOUBLE_EQ(tail.pct, 99);
  EXPECT_DOUBLE_EQ(tail.value, 990);
  EXPECT_EQ(tail.samples, 1000u);

  EXPECT_DOUBLE_EQ(HighestSupportedTail(OneTo(999)).pct, 90);
  EXPECT_DOUBLE_EQ(HighestSupportedTail(OneTo(100)).pct, 90);
  EXPECT_DOUBLE_EQ(HighestSupportedTail(OneTo(99)).pct, 50);
  EXPECT_DOUBLE_EQ(HighestSupportedTail(OneTo(10000)).pct, 99.9);

  Tail none = HighestSupportedTail(OneTo(19));
  EXPECT_DOUBLE_EQ(none.pct, 0);
  EXPECT_EQ(none.samples, 19u);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // run (0..100) -> parse (10..30), optimize (30..80) -> solve (40..70);
  // a second root in another run must not leak into run 1.
  SpanRecorder recorder(true);
  recorder.set_run(1);
  const int32_t root = recorder.Add(recorder.Intern("run"), 0, 100, -1);
  recorder.Add(recorder.Intern("parse"), 10, 30, root);
  const int32_t optimize =
      recorder.Add(recorder.Intern("optimize"), 30, 80, root);
  recorder.Add(recorder.Intern("solve"), 40, 70, optimize);
  recorder.set_run(2);
  recorder.Add(recorder.Intern("run"), 0, 1000, -1);

  std::map<std::string, double> self = recorder.SelfSeconds(1);
  EXPECT_DOUBLE_EQ(self["run"], 30e-9);
  EXPECT_DOUBLE_EQ(self["parse"], 20e-9);
  EXPECT_DOUBLE_EQ(self["optimize"], 20e-9);
  EXPECT_DOUBLE_EQ(self["solve"], 30e-9);
  EXPECT_DOUBLE_EQ(recorder.TotalSeconds(1)["run"], 100e-9);
  EXPECT_DOUBLE_EQ(recorder.SelfSeconds()["run"], 1030e-9);
}

TEST(Spans, NestedScopesAndDisabledRecorder) {
  SpanRecorder recorder(true);
  {
    ScopedSpan outer(&recorder, "outer");
    ScopedSpan inner(&recorder, "inner");
    EXPECT_EQ(recorder.Current(), 1);
  }
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.Current(), -1);
  EXPECT_GE(recorder.spans()[0].end_ns, recorder.spans()[1].end_ns);

  SpanRecorder off(false);
  { ScopedSpan span(&off, "ignored"); }
  EXPECT_EQ(off.Add(off.Intern("ignored"), 0, 1, -1), -1);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Schedule, DueTimesAcrossStairs) {
  Schedule schedule;
  schedule.AddSegment(100, 100);  // Events 0..99 due at 0.00 .. 0.99 s.
  schedule.AddSegment(100, 200);  // Events 100..199 due at 1.000 .. 1.495 s.
  EXPECT_DOUBLE_EQ(schedule.DueSeconds(0), 0);
  EXPECT_DOUBLE_EQ(schedule.DueSeconds(99), 0.99);
  EXPECT_DOUBLE_EQ(schedule.DueSeconds(100), 1.0);
  EXPECT_DOUBLE_EQ(schedule.DueSeconds(150), 1.25);
  EXPECT_DOUBLE_EQ(schedule.SegmentEnd(1), 1.5);
  EXPECT_EQ(schedule.SegmentOf(99), 0u);
  EXPECT_EQ(schedule.SegmentOf(100), 1u);
  EXPECT_EQ(schedule.DueCount(0), 1u);
  EXPECT_EQ(schedule.DueCount(0.995), 100u);
  EXPECT_EQ(schedule.DueCount(1.0), 101u);
  EXPECT_EQ(schedule.DueCount(10), 200u);
}

TEST(Schedule, ClosedLoopIsDueAtOnce) {
  Schedule schedule;
  schedule.AddSegment(50, 0);
  EXPECT_EQ(schedule.DueCount(0), 50u);
  EXPECT_DOUBLE_EQ(schedule.DueSeconds(49), 0);
}

TEST(Latency, MatchEndMapsToItsLastEventsDueTime) {
  Schedule schedule;
  schedule.AddSegment(4, 10);  // Due at 0.0, 0.1, 0.2, 0.3 s.
  const std::vector<int64_t> timestamps = {1000, 2000, 3000, 4000};
  EXPECT_EQ(EventIndexAt(timestamps, 3000), 2u);
  EXPECT_EQ(EventIndexAt(timestamps, 3500), 2u);  // Last event <= end.
  EXPECT_EQ(EventIndexAt(timestamps, 500), 0u);
  EXPECT_EQ(EventIndexAt(timestamps, 9000), 3u);
  // A match ending on the event stamped 3000 (due at 0.2 s) that becomes
  // visible at 0.45 s waited 0.25 s.
  EXPECT_NEAR(0.45 - schedule.DueSeconds(EventIndexAt(timestamps, 3000)),
              0.25, 1e-12);
}

}  // namespace
}  // namespace perfbench
