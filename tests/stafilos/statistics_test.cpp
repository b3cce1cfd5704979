#include <gtest/gtest.h>

#include "actors/library.h"
#include "stafilos/statistics.h"

namespace cwf {
namespace {

Token Identity(const Token& t) { return t; }

struct Graph {
  Workflow wf{"g"};
  MapActor* a;
  MapActor* b;
  MapActor* c;

  Graph() {
    a = wf.AddActor<MapActor>("a", Identity);
    b = wf.AddActor<MapActor>("b", Identity);
    c = wf.AddActor<MapActor>("c", Identity);
    CWF_CHECK(wf.Connect(a->out(), b->in()).ok());
    CWF_CHECK(wf.Connect(b->out(), c->in()).ok());
  }
};

TEST(StatisticsTest, FiringAccumulation) {
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  stats.OnFiring(g.a, 100, 1, 2);
  stats.OnFiring(g.a, 300, 1, 0);
  const ActorStats& s = stats.Get(g.a);
  EXPECT_EQ(s.invocations, 2u);
  EXPECT_EQ(s.total_cost, 400);
  EXPECT_DOUBLE_EQ(s.AvgCost(), 200.0);
  EXPECT_EQ(s.events_consumed, 2u);
  EXPECT_EQ(s.events_produced, 2u);
  EXPECT_DOUBLE_EQ(s.Selectivity(), 1.0);
}

TEST(StatisticsTest, SelectivityReflectsFiltering) {
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  stats.OnFiring(g.a, 10, 10, 3);
  EXPECT_DOUBLE_EQ(stats.Get(g.a).Selectivity(), 0.3);
  // Unknown actor: defaults.
  MapActor other("other", [](const Token& t) { return t; });
  EXPECT_DOUBLE_EQ(stats.Get(&other).Selectivity(), 1.0);
}

TEST(StatisticsTest, GlobalMetricsChain) {
  // Chain a -> b -> c with selectivities 0.5, 1.0, 0.2 and unit costs.
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  stats.OnFiring(g.a, 10, 10, 5);   // s=0.5 c=1
  stats.OnFiring(g.b, 20, 10, 10);  // s=1.0 c=2
  stats.OnFiring(g.c, 10, 10, 2);   // s=0.2 c=1
  stats.RecomputeGlobal();
  // c is the output operator: S(c)=1 (delivery is the useful work), C(c)=1;
  // S(b)=1*1=1, C(b)=2+1*1=3; S(a)=0.5*1=0.5, C(a)=1+0.5*3=2.5.
  EXPECT_NEAR(stats.GlobalSelectivity(g.c), 1.0, 1e-9);
  EXPECT_NEAR(stats.GlobalCost(g.c), 1.0, 1e-9);
  EXPECT_NEAR(stats.GlobalSelectivity(g.b), 1.0, 1e-9);
  EXPECT_NEAR(stats.GlobalCost(g.b), 3.0, 1e-9);
  EXPECT_NEAR(stats.GlobalSelectivity(g.a), 0.5, 1e-9);
  EXPECT_NEAR(stats.GlobalCost(g.a), 2.5, 1e-9);
  // Pr(A) = S/C.
  EXPECT_NEAR(stats.RatePriority(g.a), 0.5 / 2.5, 1e-9);
}

TEST(StatisticsTest, GlobalMetricsSumOverSharedPaths) {
  // a fans out to b and c ("we add up the downstream global costs and
  // global selectivities of each path").
  Workflow wf("fan");
  auto* a = wf.AddActor<MapActor>("a", Identity);
  auto* b = wf.AddActor<MapActor>("b", Identity);
  auto* c = wf.AddActor<MapActor>("c", Identity);
  ASSERT_TRUE(wf.Connect(a->out(), b->in()).ok());
  ASSERT_TRUE(wf.Connect(a->out(), c->in()).ok());
  ActorStatistics stats;
  stats.Initialize(wf);
  stats.OnFiring(a, 10, 10, 10);  // s=1 c=1
  stats.OnFiring(b, 20, 10, 5);   // s=.5 c=2
  stats.OnFiring(c, 30, 10, 10);  // s=1 c=3
  stats.RecomputeGlobal();
  // Leaves b and c are output operators (S=1 each); paths add up.
  EXPECT_NEAR(stats.GlobalSelectivity(a), 1.0 * (1.0 + 1.0), 1e-9);
  EXPECT_NEAR(stats.GlobalCost(a), 1.0 + 1.0 * (2.0 + 3.0), 1e-9);
}

TEST(StatisticsTest, GlobalMetricsCutCyclesConservatively) {
  Workflow wf("cyc");
  auto* a = wf.AddActor<MapActor>("a", Identity);
  auto* b = wf.AddActor<MapActor>("b", Identity);
  ASSERT_TRUE(wf.Connect(a->out(), b->in()).ok());
  ASSERT_TRUE(wf.Connect(b->out(), a->in()).ok());
  ActorStatistics stats;
  stats.Initialize(wf);
  stats.OnFiring(a, 10, 10, 10);
  stats.OnFiring(b, 10, 10, 10);
  stats.RecomputeGlobal();  // must terminate
  EXPECT_GT(stats.GlobalCost(a), 0.0);
  EXPECT_GT(stats.RatePriority(a), 0.0);
}

TEST(StatisticsTest, SourceDefaultsAreSafe) {
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  // An actor that never consumed anything: selectivity 1, per-event cost
  // falls back to per-invocation cost.
  stats.OnFiring(g.a, 500, 0, 3);
  EXPECT_DOUBLE_EQ(stats.Get(g.a).Selectivity(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Get(g.a).AvgCostPerEvent(), 500.0);
  stats.RecomputeGlobal();
  EXPECT_GT(stats.RatePriority(g.a), 0.0);
}

TEST(StatisticsTest, InitializeResets) {
  Graph g;
  ActorStatistics stats;
  stats.Initialize(g.wf);
  stats.OnFiring(g.a, 100, 1, 1);
  stats.Initialize(g.wf);
  EXPECT_EQ(stats.Get(g.a).invocations, 0u);
}

}  // namespace
}  // namespace cwf
