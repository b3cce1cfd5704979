#include <gtest/gtest.h>

#include <cmath>

#include "lrb/harness.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace cwf::lrb {
namespace {

ExperimentOptions ShortExperiment(SchedulerKind kind) {
  ExperimentOptions opt;
  opt.scheduler = kind;
  opt.workload.duration = Seconds(120);
  return opt;
}

class HarnessPerScheduler : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(HarnessPerScheduler, RunsAndProducesTolls) {
  auto res = RunLRBExperiment(ShortExperiment(GetParam()));
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->status.ok());
  EXPECT_GT(res->reports_generated, 1000u);
  EXPECT_GT(res->toll_notifications, 100u);
  EXPECT_EQ(res->toll_notifications, res->tolls_calculated);
  EXPECT_FALSE(res->toll_curve.empty());
  EXPECT_GT(res->total_firings, 0u);
  // Low load: response times are comfortably sub-second.
  EXPECT_LT(res->toll_avg_response_s, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, HarnessPerScheduler,
    ::testing::Values(SchedulerKind::kQBS, SchedulerKind::kRR,
                      SchedulerKind::kRB, SchedulerKind::kFIFO,
                      SchedulerKind::kEDF, SchedulerKind::kPNCWF),
    [](const auto& info) { return SchedulerKindName(info.param); });

void SetAllTelemetry(bool metrics, bool tracing, bool profiling) {
  obs::SetMetricsEnabled(metrics);
  obs::SetTracingEnabled(tracing);
  obs::SetProfilingEnabled(profiling);
}

// Run 1 is uninstrumented, run 2 has every telemetry sink on: the runtime
// toggles must not change a single answer the engine computes.
TEST(HarnessTest, DeterministicAcrossRuns) {
  SetAllTelemetry(false, false, false);
  auto r1 = RunLRBExperiment(ShortExperiment(SchedulerKind::kQBS));
  SetAllTelemetry(true, true, true);
  auto r2 = RunLRBExperiment(ShortExperiment(SchedulerKind::kQBS));
  SetAllTelemetry(/*metrics=*/true, /*tracing=*/false, /*profiling=*/false);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->tolls_calculated, r2->tolls_calculated);
  EXPECT_EQ(r1->accidents_recorded, r2->accidents_recorded);
  EXPECT_EQ(r1->total_firings, r2->total_firings);
  EXPECT_EQ(r1->toll_notifications, r2->toll_notifications);
  EXPECT_DOUBLE_EQ(r1->toll_avg_response_s, r2->toll_avg_response_s);
}

TEST(HarnessTest, SchedulerKindNames) {
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kQBS), "QBS");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kPNCWF), "PNCWF");
}

TEST(HarnessTest, ThrashTimeDetection) {
  ExperimentResult r;
  r.toll_curve = {{0, 0.1, 0.2, 10},  {10, 0.5, 0.9, 10}, {20, 2.5, 3.0, 10},
                  {30, 1.0, 1.5, 10}, {40, 2.5, 3.0, 10}, {50, 4.0, 5.0, 10}};
  // Sustained >= 2s only from t=40 (the t=20 spike recovers at t=30).
  EXPECT_DOUBLE_EQ(r.ThrashTimeSeconds(2.0), 40.0);
  EXPECT_TRUE(std::isinf(r.ThrashTimeSeconds(10.0)));
}

TEST(HarnessTest, RenderCurveFormatsRows) {
  ExperimentResult r;
  r.toll_curve = {{10, 0.5, 0.9, 3}};
  const std::string out = RenderCurve(r, "label");
  EXPECT_NE(out.find("# label"), std::string::npos);
  EXPECT_NE(out.find("10.0"), std::string::npos);
}

TEST(HarnessTest, MakeSchedulerMatchesKind) {
  ExperimentOptions opt;
  opt.scheduler = SchedulerKind::kRB;
  EXPECT_STREQ(MakeScheduler(opt)->name(), "RB");
  opt.scheduler = SchedulerKind::kPNCWF;
  EXPECT_EQ(MakeScheduler(opt), nullptr);
}

TEST(HarnessTest, AccidentPipelineDeliversNotifications) {
  // Longer run with frequent accidents so notifications materialize.
  ExperimentOptions opt = ShortExperiment(SchedulerKind::kFIFO);
  opt.workload.duration = Seconds(400);
  opt.workload.mean_accident_gap = 40.0;
  auto res = RunLRBExperiment(opt);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->accidents_injected, 0u);
  EXPECT_GT(res->accidents_recorded, 0u);
  EXPECT_GT(res->accident_notifications, 0u);
}

TEST(HarnessTest, FlatStructureMatchesHierarchicalResults) {
  ExperimentOptions h = ShortExperiment(SchedulerKind::kFIFO);
  ExperimentOptions f = ShortExperiment(SchedulerKind::kFIFO);
  f.hierarchical = false;
  // The flat workflow pays per-actor costs instead of the composite's; use
  // identical tolls as the invariant (results, not timing).
  auto rh = RunLRBExperiment(h);
  auto rf = RunLRBExperiment(f);
  ASSERT_TRUE(rh.ok());
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(rh->tolls_calculated, rf->tolls_calculated);
  EXPECT_EQ(rh->accidents_recorded, rf->accidents_recorded);
}

}  // namespace
}  // namespace cwf::lrb
