// Tests of the benchmark's own accounting rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "bench.hpp"

namespace perfbench {
namespace {

using casched::metrics::TaskOutcome;
using casched::metrics::TaskStatus;

TEST(Percentile, HighestReportableNeedsTenSamplesBeyond) {
  EXPECT_FALSE(highestReportablePercentile(10).has_value());
  EXPECT_EQ(highestReportablePercentile(20), 50.0);
  EXPECT_EQ(highestReportablePercentile(100), 90.0);
  EXPECT_EQ(highestReportablePercentile(999), 90.0);
  EXPECT_EQ(highestReportablePercentile(1000), 99.0);
  EXPECT_EQ(highestReportablePercentile(10000), 99.9);
  EXPECT_FALSE(percentileReportable(999, 99.0));
  EXPECT_TRUE(percentileReportable(1000, 99.0));
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, WindowedIsTheMedianOverWindows) {
  // 3000 samples of 1.0 with one stall of 40 samples at 50.0 in the second
  // window: that window's p99 is 50, the other two say 1, the median is 1.
  std::vector<double> v(3000, 1.0);
  for (std::size_t i = 1200; i < 1240; ++i) v[i] = 50.0;
  EXPECT_EQ(percentile(v, 99.0), 50.0);
  EXPECT_EQ(windowedPercentile(v, 99.0), 1.0);
  // Fewer samples than one window: the plain percentile.
  EXPECT_EQ(windowedPercentile({1, 2, 3}, 50.0), 2.0);
}

Request sample(double due, double sent, double submitAt, std::uint16_t rung = 0,
               bool measured = true) {
  Request r;
  r.due = due;
  r.sent = sent;
  r.submitAt = submitAt;
  r.completeSentAt = submitAt + 0.010;
  r.terminalAt = submitAt + 0.0105;
  r.rung = rung;
  r.measured = measured;
  return r;
}

TEST(Percentile, MedianOfBatchMeansDoesNotJumpBetweenTwoModes) {
  // Set-ups of 1 or 2 ms, 7 of 16 fast in one run and 9 of 16 in the
  // next: the plain median jumps from 2 to 1, the batch means stay near
  // the mix.
  const auto run = [](int fast) {
    std::vector<double> v;
    for (int i = 0; i < 16; ++i) v.push_back((i * 7 % 16) < fast ? 1.0 : 2.0);
    return v;
  };
  EXPECT_EQ(median(run(7)), 2.0);
  EXPECT_EQ(median(run(9)), 1.0);
  EXPECT_EQ(medianOfBatchMeans(run(7), 8), 1.5);    // batch means 1.5, 1.625
  EXPECT_EQ(medianOfBatchMeans(run(9), 8), 1.375);  // batch means 1.375, 1.5
  // Fewer samples than one batch: their mean.
  EXPECT_EQ(medianOfBatchMeans({1.0, 2.0, 6.0}, 8), 3.0);
}

TEST(OpenLoop, LatencyCountsFromDueTimeNotSendTime) {
  // The generator stalled 4 ms: the request was due at 1.000, left at
  // 1.004, and its submit arrived at 1.005. The open loop charges 5 ms, of
  // which 4 ms are generator lateness.
  const std::deque<Request> reqs{sample(1.000, 1.004, 1.005)};
  const RungSamples s = rungSamples(reqs, 0);
  ASSERT_EQ(s.submitUs.size(), 1u);
  EXPECT_NEAR(s.submitUs[0], 5000.0, 1e-6);
  EXPECT_NEAR(s.lateUs[0], 4000.0, 1e-6);
  EXPECT_NEAR(s.terminalUs[0], 500.0, 1e-6);
}

TEST(OpenLoop, SamplesOnlyTheRungsMeasuredRequests) {
  Request waiting = sample(1.5, 1.5, -1.0);  // no submit yet
  waiting.completeSentAt = waiting.terminalAt = -1.0;
  const std::deque<Request> reqs{
      sample(0.0, 0.0, 0.001, 0, false),  // warm-up
      sample(1.0, 1.0, 1.002, 0),
      sample(1.0, 1.0, 1.003, 1),         // another rung
      waiting,
  };
  const RungSamples s = rungSamples(reqs, 0);
  ASSERT_EQ(s.submitUs.size(), 1u);
  EXPECT_NEAR(s.submitUs[0], 2000.0, 1e-6);
  EXPECT_EQ(s.terminalUs.size(), 1u);
  EXPECT_EQ(s.lateUs.size(), 2u);
}

TEST(OpenLoop, RungAfterAnAbortedRungCountsOnlyItsOwnBacklog) {
  // Rung 0 aborted with 300 requests unsubmitted; their submits arrive
  // during rung 1, which has sent 100 and seen 40 of its own submitted.
  RungBacklog aborted(0);
  for (int i = 0; i < 500; ++i) aborted.onSent();
  for (int i = 0; i < 200; ++i) aborted.onSubmit(0);
  EXPECT_EQ(aborted.unsubmitted(), 300u);
  RungBacklog next(1);
  for (int i = 0; i < 100; ++i) next.onSent();
  for (int i = 0; i < 300; ++i) next.onSubmit(0);
  for (int i = 0; i < 40; ++i) next.onSubmit(1);
  EXPECT_EQ(next.unsubmitted(), 60u);
}

TaskOutcome outcome(std::uint64_t id, const std::string& server, double sched, double done,
                    TaskStatus status = TaskStatus::kCompleted) {
  TaskOutcome o;
  o.index = id;
  o.server = server;
  o.arrival = sched;
  o.scheduledAt = sched;
  o.completion = done;
  o.status = status;
  return o;
}

TEST(Depth, ComputedFromOutcomeIntervals) {
  const std::vector<TaskOutcome> tasks{
      outcome(0, "a", 0.0, 10.0),
      outcome(1, "a", 1.0, 3.0),
      outcome(2, "a", 4.0, 6.0),   // task 1 finished at 3: depth 1 (task 0)
      outcome(3, "b", 2.0, 5.0),   // other server: depth 0
      outcome(4, "a", 10.0, 12.0), // task 0 completes exactly at 10: not counted
      outcome(5, "", -1.0, -1.0, TaskStatus::kLost),  // never ran: skipped
  };
  std::vector<double> d = depthsAtSchedule(tasks);
  std::sort(d.begin(), d.end());
  EXPECT_EQ(d, (std::vector<double>{0, 0, 0, 1, 1}));
}

TEST(Depth, LostTaskOccupiesItsServer) {
  const std::vector<TaskOutcome> tasks{
      outcome(0, "a", 0.0, -1.0, TaskStatus::kLost),
      outcome(1, "a", 5.0, 6.0),
  };
  std::vector<double> d = depthsAtSchedule(tasks);
  std::sort(d.begin(), d.end());
  EXPECT_EQ(d, (std::vector<double>{0, 1}));
}

TEST(HtmError, RelativeToFlow) {
  TaskOutcome o = outcome(0, "a", 0.0, 10.0);
  o.htmPredictedCompletion = 11.0;
  EXPECT_EQ(htmErrorsPct({o}), (std::vector<double>{10.0}));
}

RungResult rung(double rate, double p99, std::size_t backlog = 0, std::size_t samples = 2000) {
  return RungResult{rate, rate * 1.01, samples, p99, backlog};
}

TEST(Ladder, DoublesWhilePassingAndStopsAtFirstFailure) {
  std::vector<RungResult> rungs;
  EXPECT_EQ(nextRungRate(rungs, 1000, 64000), 1000.0);
  rungs.push_back(rung(1000, 2000));
  EXPECT_EQ(nextRungRate(rungs, 1000, 64000), 2000.0);
  rungs.push_back(rung(2000, 3000));
  EXPECT_EQ(nextRungRate(rungs, 1000, 64000), 4000.0);
  rungs.push_back(rung(4000, 30000));  // p99 over the 10 ms limit
  EXPECT_FALSE(nextRungRate(rungs, 1000, 64000).has_value());
  // p99 goes 3 ms -> 30 ms over one doubling; it crosses 10 ms at
  // log(10/3) / log(30/3) = 0.523 of the way: 2020 * 2^0.523.
  EXPECT_NEAR(maxPassingRate(rungs), 2020.0 * std::pow(2.0, std::log(10.0 / 3.0) / std::log(10.0)),
              1e-9);
}

TEST(Ladder, InterpolationIsContinuousAcrossARungBoundary) {
  // A system whose limit sits at ~4000 req/s reads ~4000 whether the
  // 4000 rung just passed or just failed.
  const double justFailed = maxPassingRate({rung(1000, 2000), rung(2000, 2500), rung(4000, 10500)});
  const double justPassed =
      maxPassingRate({rung(1000, 2000), rung(2000, 2500), rung(4000, 9500), rung(8000, 60000)});
  EXPECT_NEAR(justFailed / justPassed, 1.0, 0.1);
}

TEST(Ladder, BacklogFailsARung) {
  std::vector<RungResult> rungs{rung(1000, 2000), rung(2000, 3000, 7)};
  EXPECT_FALSE(rungPasses(rungs.back()));
  EXPECT_FALSE(nextRungRate(rungs, 1000, 64000).has_value());
  // Failed on backlog, not latency: no interpolation.
  EXPECT_DOUBLE_EQ(maxPassingRate(rungs), 1010.0);
}

TEST(Ladder, AbortedRungFails) {
  RungResult r = rung(4000, 100);
  r.aborted = true;
  EXPECT_FALSE(rungPasses(r));
}

TEST(Ladder, TooFewSamplesForP99FailsARung) {
  EXPECT_FALSE(rungPasses(rung(1000, 100, 0, 999)));
  EXPECT_TRUE(rungPasses(rung(1000, 100, 0, 1000)));
}

TEST(Ladder, StopsAtTheCap) {
  std::vector<RungResult> rungs{rung(1000, 1), rung(2000, 1)};
  EXPECT_FALSE(nextRungRate(rungs, 1000, 2000).has_value());
  EXPECT_DOUBLE_EQ(maxPassingRate(rungs), 2020.0);
}

TEST(Ladder, HalvesWhenTheReferenceFails) {
  std::vector<RungResult> rungs{rung(1000, 50000)};
  EXPECT_EQ(nextRungRate(rungs, 1000, 64000), 500.0);
  rungs.push_back(rung(500, 5000));
  EXPECT_FALSE(nextRungRate(rungs, 1000, 64000).has_value());
  EXPECT_GT(maxPassingRate(rungs), 505.0);
  EXPECT_LT(maxPassingRate(rungs), 1000.0);
  std::vector<RungResult> never{rung(1000, 5e4), rung(500, 5e4)};
  EXPECT_FALSE(nextRungRate(never, 1000, 64000).has_value());
  EXPECT_EQ(maxPassingRate(never), 0.0);
}

TEST(Slope, LogLog) {
  EXPECT_NEAR(logLogSlope({200, 400, 800}, {0.04, 0.32, 2.56}), 3.0, 1e-9);
}

}  // namespace
}  // namespace perfbench
