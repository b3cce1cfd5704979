#include <gtest/gtest.h>

#include "core/clock.h"
#include "core/receiver.h"
#include "lrb/metrics.h"
#include "test_util.h"

namespace cwf::lrb {
namespace {

TEST(ResponseTimeSeriesTest, BasicStats) {
  ResponseTimeSeries s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.OverallAvgSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(s.MaxSeconds(), 0.0);
  s.Record(Timestamp::Seconds(0), Timestamp::Seconds(1));    // 1 s
  s.Record(Timestamp::Seconds(1), Timestamp::Seconds(4));    // 3 s
  s.Record(Timestamp::Seconds(2), Timestamp::Seconds(4));    // 2 s
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.OverallAvgSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(s.MaxSeconds(), 3.0);
}

TEST(ResponseTimeSeriesTest, Percentiles) {
  ResponseTimeSeries s;
  for (int i = 1; i <= 100; ++i) {
    s.Record(Timestamp(0), Timestamp::Seconds(i));
  }
  EXPECT_NEAR(s.PercentileSeconds(0), 1.0, 1e-9);
  EXPECT_NEAR(s.PercentileSeconds(50), 50.0, 1.0);
  EXPECT_NEAR(s.PercentileSeconds(95), 95.0, 1.0);
  EXPECT_NEAR(s.PercentileSeconds(100), 100.0, 1e-9);
}

TEST(ResponseTimeSeriesTest, FractionUnderTarget) {
  ResponseTimeSeries s;
  EXPECT_DOUBLE_EQ(s.FractionUnder(Seconds(5)), 1.0);  // vacuously met
  s.Record(Timestamp(0), Timestamp::Seconds(1));
  s.Record(Timestamp(0), Timestamp::Seconds(4));
  s.Record(Timestamp(0), Timestamp::Seconds(9));
  EXPECT_NEAR(s.FractionUnder(Seconds(5)), 2.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.FractionUnder(Seconds(100)), 1.0);
}

TEST(ResponseTimeSeriesTest, SeriesBucketsByCompletionTime) {
  ResponseTimeSeries s;
  // Two results completing in bucket [10,20), one in [30,40).
  s.Record(Timestamp::Seconds(9), Timestamp::Seconds(12));   // 3 s
  s.Record(Timestamp::Seconds(10), Timestamp::Seconds(15));  // 5 s
  s.Record(Timestamp::Seconds(30), Timestamp::Seconds(31));  // 1 s
  auto series = s.Series(Seconds(10));
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].t_seconds, 10.0);
  EXPECT_DOUBLE_EQ(series[0].avg_response_s, 4.0);
  EXPECT_DOUBLE_EQ(series[0].max_response_s, 5.0);
  EXPECT_EQ(series[0].n, 2u);
  EXPECT_DOUBLE_EQ(series[1].t_seconds, 30.0);
  EXPECT_EQ(series[1].n, 1u);
}

TEST(ResponseTimeSeriesTest, SeriesEdgeCases) {
  ResponseTimeSeries s;
  EXPECT_TRUE(s.Series(Seconds(10)).empty());
  s.Record(Timestamp(0), Timestamp::Seconds(1));
  EXPECT_TRUE(s.Series(0).empty());  // degenerate bucket
}

TEST(OutputActorTest, RecordsResponsePerEvent) {
  ResponseTimeSeries series;
  OutputActor out("TollNotification", &series);
  out.in()->SetReceiver(0, testutil::FifoReceiver(out.in()));
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  ASSERT_TRUE(out.Initialize(&ctx).ok());
  CWEvent e(Token(1), Timestamp::Seconds(2), WaveTag::Root(1));
  ASSERT_TRUE(out.in()->receiver(0)->Put(e).ok());
  clock.AdvanceTo(Timestamp::Seconds(5));
  out.BeginFiring();
  ASSERT_TRUE(out.Fire().ok());
  EXPECT_EQ(out.notifications(), 1u);
  ASSERT_EQ(series.count(), 1u);
  EXPECT_DOUBLE_EQ(series.OverallAvgSeconds(), 3.0);
}

}  // namespace
}  // namespace cwf::lrb
