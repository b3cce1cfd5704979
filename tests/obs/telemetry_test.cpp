// Telemetry hook-layer behavior: directors bind instruments into the
// global registry, receiver probes count traffic, runtime toggles stop the
// sinks, Director::Initialize re-entry resets per-run state (receiver
// high-water marks, actor statistics) without invalidating instruments, and
// firing cost is engine time whatever the toggles say.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "actors/library.h"
#include "directors/ddf_director.h"
#include "directors/scwf_director.h"
#include "directors/sdf_director.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "stafilos/fifo_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

struct Rig {
  Workflow wf{"w"};
  std::shared_ptr<PushChannel> feed = std::make_shared<PushChannel>();
  StreamSourceActor* src;
  MapActor* map;
  CollectorSink* sink;
  VirtualClock clock;
  CostModel cm;

  Rig() {
    src = wf.AddActor<StreamSourceActor>("src", feed);
    map = wf.AddActor<MapActor>(
        "map", [](const Token& t) { return Token(t.AsInt() + 1); });
    sink = wf.AddActor<CollectorSink>("sink");
    CWF_CHECK(wf.Connect(src->out(), map->in()).ok());
    CWF_CHECK(wf.Connect(map->out(), sink->in()).ok());
  }

  void Feed(int n) {
    for (int i = 0; i < n; ++i) {
      feed->Push(Token(i), Timestamp::Seconds(i));
    }
    feed->Close();
  }
};

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().Reset();
    obs::SetMetricsEnabled(true);
  }
  void TearDown() override { obs::SetMetricsEnabled(true); }
};

TEST_F(TelemetryTest, FiringMetricsLandInGlobalRegistry) {
  Rig rig;
  rig.Feed(12);
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("cwf_actor_firings_total", "actor", "map")->Value(),
            12u);
  EXPECT_EQ(
      reg.GetCounter("cwf_actor_events_consumed_total", "actor", "map")
          ->Value(),
      12u);
  EXPECT_EQ(
      reg.GetCounter("cwf_actor_events_emitted_total", "actor", "map")
          ->Value(),
      12u);
  // Virtual-clock cost lands in the cost histogram.
  EXPECT_EQ(reg.GetHistogram("cwf_actor_cost_us", "actor", "map")->Count(),
            12u);
  // Scheduler decisions were counted for scheduled dispatch.
  EXPECT_GT(reg.GetCounter("cwf_sched_decisions_total", "actor", "map")
                ->Value(),
            0u);
}

TEST_F(TelemetryTest, ReceiverProbesCountPutsGetsAndDepth) {
  Rig rig;
  rig.Feed(7);
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  // The map actor's input channel is labeled with the port's full name.
  EXPECT_EQ(
      reg.GetCounter("cwf_receiver_puts_total", "port", "map.in")->Value(),
      7u);
  EXPECT_EQ(
      reg.GetCounter("cwf_receiver_gets_total", "port", "map.in")->Value(),
      7u);
  EXPECT_GE(reg.GetGauge("cwf_receiver_depth", "port", "map.in")->Max(), 1);
}

TEST_F(TelemetryTest, DisablingMetricsStopsSinksButNotExecution) {
  obs::SetMetricsEnabled(false);
  Rig rig;
  rig.Feed(5);
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("cwf_actor_firings_total", "actor", "map")->Value(),
            0u);
  EXPECT_EQ(
      reg.GetCounter("cwf_receiver_puts_total", "port", "map.in")->Value(),
      0u);
  // The workflow itself ran normally; the stats observer (always on) saw
  // every firing.
  EXPECT_EQ(rig.sink->TakeSnapshot().size(), 5u);
  EXPECT_EQ(d.stats().Get(rig.map).invocations, 5u);
}

TEST_F(TelemetryTest, InitializeReEntryResetsPerRunState) {
  Rig rig;
  rig.Feed(9);
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  EXPECT_EQ(d.stats().Get(rig.map).invocations, 9u);

  // Re-initialize: receivers are rebuilt, every input-port high-water mark
  // and the statistics module start from zero.
  ASSERT_TRUE(d.Initialize(&rig.wf, &rig.clock, &rig.cm).ok());
  EXPECT_EQ(d.stats().Get(rig.map).invocations, 0u);
  for (const auto& actor : rig.wf.actors()) {
    for (const auto& port : actor->input_ports()) {
      for (size_t c = 0; c < port->ChannelCount(); ++c) {
        if (Receiver* r = port->receiver(c)) {
          EXPECT_EQ(r->high_water_mark(), 0u)
              << actor->name() << "." << port->name();
        }
      }
    }
  }
  // Instrument pointers stayed valid: a second run keeps counting on the
  // same instruments (cumulative across runs by design).
  // The original feed is drained/closed; a fresh run over the same actors
  // simply observes no new input and fires nothing — Run must still work.
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
}

/// Source whose every firing spends kWork of engine time (it advances the
/// virtual clock itself) and emits one token. Each firing also switches the
/// metric sinks on, so a run started with metrics off still lands its first
/// firing's record in the cost histogram: the recorded cost must not depend
/// on the toggle state when the firing began.
class WorkingSource : public Actor {
 public:
  static constexpr Duration kWork = 250000;

  WorkingSource(std::string name, VirtualClock* clock, int firings)
      : Actor(std::move(name)), clock_(clock), firings_(firings) {
    out_ = AddOutputPort("out");
  }
  Result<bool> Prefire() override { return fired_ < firings_; }
  Status Fire() override {
    clock_->AdvanceBy(kWork);
    obs::SetMetricsEnabled(true);
    Send(out_, Token(fired_++));
    return Status::OK();
  }
  OutputPort* out() const { return out_; }

 private:
  VirtualClock* clock_;
  int firings_;
  int fired_ = 0;
  OutputPort* out_;
};

template <typename DirectorT>
void ExpectCostIsEngineTime(bool metrics_at_start) {
  constexpr int kFirings = 3;
  obs::MetricsRegistry::Global().Reset();
  obs::SetMetricsEnabled(metrics_at_start);
  VirtualClock clock;
  Workflow wf("cost");
  auto* src = wf.AddActor<WorkingSource>("src", &clock, kFirings);
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), sink->in()).ok());
  DirectorT d;
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  ASSERT_EQ(sink->count(), static_cast<size_t>(kFirings));

  const obs::Histogram* cost = obs::MetricsRegistry::Global().GetHistogram(
      "cwf_actor_cost_us", "actor", "src");
  EXPECT_EQ(cost->Count(), static_cast<uint64_t>(kFirings));
  EXPECT_EQ(cost->Sum(), kFirings * WorkingSource::kWork);
}

TEST_F(TelemetryTest, DdfAndSdfCostIsEngineTimeWithMetricsOnOrOff) {
  for (bool metrics_at_start : {true, false}) {
    SCOPED_TRACE(metrics_at_start ? "metrics on" : "metrics off");
    {
      SCOPED_TRACE("DDF");
      ExpectCostIsEngineTime<DDFDirector>(metrics_at_start);
    }
    {
      SCOPED_TRACE("SDF");
      ExpectCostIsEngineTime<SDFDirector>(metrics_at_start);
    }
  }
}

TEST_F(TelemetryTest, RealClockCostMeasuredWithMetricsOff) {
  obs::SetMetricsEnabled(false);
  constexpr int kTokens = 3;
  Workflow wf("real");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* slow = wf.AddActor<MapActor>("slow", [](const Token& t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return t;
  });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  ASSERT_TRUE(wf.Connect(src->out(), slow->in()).ok());
  ASSERT_TRUE(wf.Connect(slow->out(), sink->in()).ok());
  for (int i = 0; i < kTokens; ++i) {
    feed->Push(Token(i), Timestamp(0));
  }
  feed->Close();

  RealClock clock;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  ASSERT_TRUE(d.Initialize(&wf, &clock, nullptr).ok());
  ASSERT_TRUE(d.Run(Timestamp::Max()).ok());
  ASSERT_EQ(sink->count(), static_cast<size_t>(kTokens));

  // Every firing slept at least 2 ms, so the costs add up to at least
  // 2000 µs per firing.
  const ActorStats& stats = d.stats().Get(slow);
  EXPECT_EQ(stats.invocations, static_cast<uint64_t>(kTokens));
  EXPECT_GE(stats.total_cost, kTokens * 2000);
}

}  // namespace
}  // namespace cwf
