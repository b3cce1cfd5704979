// Trace-schema validation: the wave tracer's Chrome trace-event export
// must be loadable by Perfetto. Golden-style checks over a real traced
// run: required keys on every event, metadata records first, ts-ordered
// events, and matched B/E pairs per track.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "actors/library.h"
#include "directors/scwf_director.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_buffer.h"
#include "stafilos/fifo_scheduler.h"
#include "stream/stream_source.h"

namespace cwf {
namespace {

/// Extracts the string value of `"key":"..."` or npos-driven failure.
bool StrField(const std::string& line, const std::string& key,
              std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  const size_t start = pos + needle.size();
  const size_t end = line.find('"', start);
  if (end == std::string::npos) {
    return false;
  }
  *out = line.substr(start, end - start);
  return true;
}

bool IntField(const std::string& line, const std::string& key, int64_t* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtoll(line.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

/// One exported trace, split into per-event JSON lines.
struct ParsedTrace {
  std::vector<std::string> events;
};

ParsedTrace Parse(const std::string& json) {
  ParsedTrace out;
  size_t start = 0;
  while (start < json.size()) {
    size_t end = json.find('\n', start);
    if (end == std::string::npos) {
      end = json.size();
    }
    std::string line = json.substr(start, end - start);
    start = end + 1;
    // Strip the record separator and array/object closers.
    while (!line.empty() &&
           (line.back() == ',' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.rfind("{\"name\"", 0) == 0) {
      out.events.push_back(line);
    }
  }
  return out;
}

/// Runs a 3-actor pipeline with tracing on and returns the trace JSON.
std::string TracedRunJson() {
  obs::ResetGlobalTracer();
  obs::SetTracingEnabled(true);
  Workflow wf("traced");
  auto feed = std::make_shared<PushChannel>();
  auto* src = wf.AddActor<StreamSourceActor>("src", feed);
  auto* map = wf.AddActor<MapActor>(
      "map", [](const Token& t) { return Token(t.AsInt() * 2); });
  auto* sink = wf.AddActor<CollectorSink>("sink");
  CWF_CHECK(wf.Connect(src->out(), map->in()).ok());
  CWF_CHECK(wf.Connect(map->out(), sink->in()).ok());
  for (int i = 0; i < 16; ++i) {
    feed->Push(Token(i), Timestamp::Seconds(i));
  }
  feed->Close();
  VirtualClock clock;
  CostModel cm;
  SCWFDirector d(std::make_unique<FIFOScheduler>());
  CWF_CHECK(d.Initialize(&wf, &clock, &cm).ok());
  CWF_CHECK(d.Run(Timestamp::Max()).ok());
  CWF_CHECK(d.Wrapup().ok());
  obs::SetTracingEnabled(false);
  return obs::GlobalTracer().RenderChromeJson();
}

class TraceSchemaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { json_ = new std::string(TracedRunJson()); }
  static void TearDownTestSuite() {
    delete json_;
    json_ = nullptr;
  }
  static std::string* json_;
};

std::string* TraceSchemaTest::json_ = nullptr;

TEST_F(TraceSchemaTest, DocumentShape) {
  ASSERT_NE(json_, nullptr);
  EXPECT_EQ(json_->rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(json_->find("]}"), std::string::npos);
}

TEST_F(TraceSchemaTest, EveryEventHasRequiredKeys) {
  const ParsedTrace trace = Parse(*json_);
  ASSERT_GT(trace.events.size(), 4u);
  for (const std::string& ev : trace.events) {
    std::string name;
    std::string ph;
    int64_t ts = -1;
    int64_t pid = -1;
    int64_t tid = -1;
    EXPECT_TRUE(StrField(ev, "name", &name)) << ev;
    EXPECT_TRUE(StrField(ev, "ph", &ph)) << ev;
    EXPECT_TRUE(IntField(ev, "ts", &ts)) << ev;
    EXPECT_TRUE(IntField(ev, "pid", &pid)) << ev;
    EXPECT_TRUE(IntField(ev, "tid", &tid)) << ev;
    EXPECT_FALSE(name.empty()) << ev;
    EXPECT_TRUE(ph == "M" || ph == "B" || ph == "E" || ph == "X" ||
                ph == "i")
        << "unexpected phase '" << ph << "' in " << ev;
    EXPECT_GE(ts, 0) << ev;
    EXPECT_EQ(pid, 1) << ev;
    EXPECT_GE(tid, 1) << ev;
    // Complete events must carry a duration.
    if (ph == "X") {
      int64_t dur = -1;
      EXPECT_TRUE(IntField(ev, "dur", &dur)) << ev;
      EXPECT_GE(dur, 0) << ev;
    }
  }
}

TEST_F(TraceSchemaTest, MetadataComesFirstAndNamesEveryTrack) {
  const ParsedTrace trace = Parse(*json_);
  size_t i = 0;
  std::string ph;
  // The metadata prefix: process_name, then a thread_name block.
  ASSERT_TRUE(StrField(trace.events[0], "name", &ph));
  EXPECT_EQ(ph, "process_name");
  std::map<int64_t, bool> named_tids;
  for (; i < trace.events.size(); ++i) {
    ASSERT_TRUE(StrField(trace.events[i], "ph", &ph));
    if (ph != "M") {
      break;
    }
    int64_t tid = -1;
    ASSERT_TRUE(IntField(trace.events[i], "tid", &tid));
    named_tids[tid] = true;
  }
  // No metadata after the first data event.
  for (; i < trace.events.size(); ++i) {
    ASSERT_TRUE(StrField(trace.events[i], "ph", &ph));
    EXPECT_NE(ph, "M") << trace.events[i];
    int64_t tid = -1;
    ASSERT_TRUE(IntField(trace.events[i], "tid", &tid));
    EXPECT_TRUE(named_tids.count(tid))
        << "event on unnamed track tid=" << tid << ": " << trace.events[i];
  }
}

TEST_F(TraceSchemaTest, TimestampsAreMonotone) {
  const ParsedTrace trace = Parse(*json_);
  int64_t prev = 0;
  for (const std::string& ev : trace.events) {
    std::string ph;
    ASSERT_TRUE(StrField(ev, "ph", &ph));
    if (ph == "M") {
      continue;
    }
    int64_t ts = -1;
    ASSERT_TRUE(IntField(ev, "ts", &ts));
    EXPECT_GE(ts, prev) << ev;
    prev = ts;
  }
}

TEST_F(TraceSchemaTest, BeginEndPairsMatchPerTrack) {
  const ParsedTrace trace = Parse(*json_);
  std::map<int64_t, int> depth;
  size_t begins = 0;
  for (const std::string& ev : trace.events) {
    std::string ph;
    int64_t tid = -1;
    ASSERT_TRUE(StrField(ev, "ph", &ph));
    ASSERT_TRUE(IntField(ev, "tid", &tid));
    if (ph == "B") {
      ++depth[tid];
      ++begins;
    } else if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "E without B on tid " << tid << ": " << ev;
    }
  }
  EXPECT_GT(begins, 0u) << "traced run produced no firing spans";
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced B/E on tid " << tid;
  }
}

TEST_F(TraceSchemaTest, WaveLifecycleEventsPresent) {
  // The traced pipeline runs source-rooted waves end to end, so the wave
  // track must contain born and closed instants plus latency spans.
  EXPECT_NE(json_->find("\"cat\":\"wave\""), std::string::npos);
  EXPECT_NE(json_->find("born"), std::string::npos);
  EXPECT_NE(json_->find("closed"), std::string::npos);
  // The birth-to-closure latency span is a complete event on the wave track.
  EXPECT_NE(json_->find("\"cat\":\"wave\",\"ph\":\"X\""), std::string::npos);
}

TEST_F(TraceSchemaTest, TracerCountsWavesClosed) {
  // Regenerate with a fresh tracer to read the counters directly.
  obs::ResetGlobalTracer();
  (void)TracedRunJson();
  EXPECT_GT(obs::GlobalTracer().waves_born(), 0u);
  EXPECT_EQ(obs::GlobalTracer().waves_born(),
            obs::GlobalTracer().waves_closed());
  EXPECT_EQ(obs::GlobalTracer().live_waves(), 0u);
}

}  // namespace
}  // namespace cwf
