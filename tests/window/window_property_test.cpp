// Property-style parameterized sweeps over window semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <tuple>

#include "core/port.h"
#include "test_util.h"
#include "window/window_operator.h"
#include "window/windowed_receiver.h"

namespace cwf {
namespace {

using testutil::Ev;

struct TupleParams {
  int64_t size;
  int64_t step;
  bool delete_used;
  int64_t n_events;
};

class TupleWindowProperty : public ::testing::TestWithParam<TupleParams> {};

// Invariant set for count-based windows over a strictly increasing stream:
//  1. every produced window has exactly `size` events;
//  2. window contents are contiguous, in-order slices;
//  3. consecutive windows start `step` (or `size` under consumption) apart;
//  4. conservation: every input event is in >=0 windows and ends up
//     used, pending or expired — never silently lost.
TEST_P(TupleWindowProperty, Invariants) {
  const TupleParams p = GetParam();
  WindowOperator op(
      WindowSpec::Tuples(p.size, p.step).DeleteUsedEvents(p.delete_used));
  std::vector<Window> windows;
  for (int64_t i = 0; i < p.n_events; ++i) {
    ASSERT_TRUE(op.Put(Ev(Token(i), i + 1), &windows).ok());
  }
  const int64_t advance = p.delete_used ? p.size : p.step;
  int64_t expected_start = 0;
  for (const Window& w : windows) {
    ASSERT_EQ(static_cast<int64_t>(w.size()), p.size);
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(w.events[i].token.AsInt(),
                expected_start + static_cast<int64_t>(i));
    }
    expected_start += advance;
  }
  // Expected window count: floor((n - size) / advance) + 1 when n >= size.
  const int64_t expected_windows =
      p.n_events >= p.size ? (p.n_events - p.size) / advance + 1 : 0;
  EXPECT_EQ(static_cast<int64_t>(windows.size()), expected_windows);

  // Conservation.
  const size_t expired = op.DrainExpired().size();
  const size_t pending = op.PendingEventCount();
  if (p.delete_used) {
    EXPECT_EQ(static_cast<int64_t>(pending),
              p.n_events - expected_windows * p.size);
    EXPECT_EQ(expired, 0u);
  } else {
    EXPECT_EQ(static_cast<int64_t>(pending + expired), p.n_events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TupleWindowProperty,
    ::testing::Values(TupleParams{1, 1, false, 10}, TupleParams{1, 1, true, 10},
                      TupleParams{4, 1, false, 25}, TupleParams{4, 1, true, 25},
                      TupleParams{4, 4, false, 25}, TupleParams{4, 4, true, 25},
                      TupleParams{2, 3, false, 20}, TupleParams{2, 3, true, 20},
                      TupleParams{5, 2, false, 33}, TupleParams{7, 7, true, 50},
                      TupleParams{10, 3, false, 100},
                      TupleParams{3, 10, false, 100},
                      TupleParams{64, 1, false, 10000}));

struct TimeParams {
  int64_t size_s;
  int64_t step_s;
  bool delete_used;
  int64_t n_events;
  int64_t spacing_s;  // inter-event gap
};

class TimeWindowProperty : public ::testing::TestWithParam<TimeParams> {};

// Invariants for time windows over an in-order stream:
//  1. all events of a window fall within one [start, start+size) span;
//  2. window spans are step-aligned to the epoch;
//  3. events are never lost (window'd, pending or expired).
TEST_P(TimeWindowProperty, Invariants) {
  const TimeParams p = GetParam();
  WindowOperator op(WindowSpec::Time(Seconds(p.size_s), Seconds(p.step_s))
                        .DeleteUsedEvents(p.delete_used));
  std::vector<Window> windows;
  for (int64_t i = 0; i < p.n_events; ++i) {
    ASSERT_TRUE(
        op.Put(Ev(Token(i), Seconds(1 + i * p.spacing_s)), &windows).ok());
  }
  op.Flush(&windows);
  size_t events_in_windows = 0;
  for (const Window& w : windows) {
    ASSERT_FALSE(w.empty());
    const int64_t span =
        w.back().timestamp.micros() - w.front().timestamp.micros();
    EXPECT_LT(span, Seconds(p.size_s));
    events_in_windows += w.size();
  }
  if (p.delete_used) {
    // Consumption semantics: every event lands in exactly one window or
    // expires unused (stragglers between gapped windows).
    EXPECT_EQ(static_cast<int64_t>(events_in_windows +
                                   op.DrainExpired().size()),
              p.n_events);
  } else if (p.step_s >= p.size_s) {
    // Non-consuming tumbling windows: each event appears in at most one
    // window (and additionally expires once it slides out).
    EXPECT_LE(static_cast<int64_t>(events_in_windows), p.n_events);
    EXPECT_LE(static_cast<int64_t>(op.DrainExpired().size()), p.n_events);
  } else {
    // Overlapping windows may duplicate events.
    EXPECT_GE(static_cast<int64_t>(events_in_windows), p.n_events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TimeWindowProperty,
    ::testing::Values(TimeParams{60, 60, true, 50, 7},
                      TimeParams{60, 60, false, 50, 7},
                      TimeParams{60, 30, false, 50, 7},
                      TimeParams{10, 10, true, 100, 1},
                      TimeParams{10, 5, false, 100, 1},
                      TimeParams{5, 20, true, 60, 2},
                      TimeParams{120, 120, true, 30, 11}));

// Group-by property: windows formed per key match windows formed by running
// one operator per key.
class GroupByProperty : public ::testing::TestWithParam<int> {};

TEST_P(GroupByProperty, EquivalentToPerKeyOperators) {
  const int num_keys = GetParam();
  WindowOperator grouped(WindowSpec::Tuples(3, 2).GroupBy({"k"}));
  std::vector<std::unique_ptr<WindowOperator>> isolated;
  for (int k = 0; k < num_keys; ++k) {
    isolated.push_back(
        std::make_unique<WindowOperator>(WindowSpec::Tuples(3, 2)));
  }
  std::vector<Window> grouped_out;
  std::vector<std::vector<Window>> isolated_out(num_keys);
  for (int64_t i = 0; i < 200; ++i) {
    const int k = static_cast<int>((i * 7) % num_keys);
    CWEvent e = Ev(testutil::Rec({{"k", Value(k)}, {"v", Value(i)}}), i + 1);
    ASSERT_TRUE(grouped.Put(e, &grouped_out).ok());
    ASSERT_TRUE(isolated[k]->Put(e, &isolated_out[k]).ok());
  }
  // Same total window count, and grouped windows per key equal isolated ones.
  size_t total_isolated = 0;
  for (const auto& outs : isolated_out) {
    total_isolated += outs.size();
  }
  ASSERT_EQ(grouped_out.size(), total_isolated);
  std::vector<size_t> cursor(num_keys, 0);
  for (const Window& w : grouped_out) {
    const int k = static_cast<int>(w.group_key.Field("k").AsInt());
    const Window& expect = isolated_out[k][cursor[k]++];
    ASSERT_EQ(w.size(), expect.size());
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(w.events[i].token.Field("v").AsInt(),
                expect.events[i].token.Field("v").AsInt());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupByProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// Counter conservation: PendingEventCount() is a maintained counter, not a
// recount, so check it against the events the test itself put in and saw
// leave. Every event put is pending, expired (drained after each call) or —
// under DeleteUsedEvents — consumed by a produced window.
enum class SpecKind { kTuple, kTupleGapped, kTime, kTimeSliding, kWave };

WindowSpec MakeSpec(SpecKind kind, bool delete_used) {
  WindowSpec spec;
  switch (kind) {
    case SpecKind::kTuple:
      spec = WindowSpec::Tuples(3, 2);
      break;
    case SpecKind::kTupleGapped:
      spec = WindowSpec::Tuples(2, 5);
      break;
    case SpecKind::kTime:
      spec = WindowSpec::Time(Seconds(10), Seconds(10))
                 .FormationTimeout(Seconds(2));
      break;
    case SpecKind::kTimeSliding:
      spec = WindowSpec::Time(Seconds(10), Seconds(4))
                 .FormationTimeout(Seconds(1));
      break;
    case SpecKind::kWave:
      spec = WindowSpec::Waves(2, 1);
      break;
  }
  return spec.GroupBy({"k"}).DeleteUsedEvents(delete_used);
}

// A seeded multi-key stream: keyed records with mostly increasing
// timestamps and occasional stragglers. Wave specs get whole (sub-)waves
// of 1-3 events per key, delivered in shuffled order within the wave.
class StreamGen {
 public:
  StreamGen(SpecKind kind, uint32_t seed) : kind_(kind), rng_(seed) {}

  // Appends the next batch of events (one, or one wave's worth) to `out`.
  void Next(std::vector<CWEvent>* out) {
    const int64_t key = Uniform(0, 6);
    now_ += Seconds(Uniform(0, 3));
    int64_t ts = now_;
    if (Uniform(0, 9) == 0) {
      ts = std::max<int64_t>(0, now_ - Seconds(Uniform(1, 20)));
    }
    if (kind_ != SpecKind::kWave) {
      out->push_back(Ev(key, ts, WaveTag::Root(++root_), true));
      return;
    }
    const WaveTag root = WaveTag::Root(++root_);
    const int64_t m = Uniform(0, 3);
    if (m == 0) {
      out->push_back(Ev(key, ts, root, true));
      return;
    }
    std::vector<CWEvent> wave;
    for (int64_t s = 1; s <= m; ++s) {
      wave.push_back(
          Ev(key, ts, root.Child(static_cast<uint32_t>(s)), s == m));
    }
    std::shuffle(wave.begin(), wave.end(), rng_);
    out->insert(out->end(), wave.begin(), wave.end());
  }

  int64_t Uniform(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }

  int64_t now() const { return now_; }

 private:
  CWEvent Ev(int64_t key, int64_t ts, WaveTag wave, bool last) {
    CWEvent e = testutil::Ev(
        testutil::Rec({{"k", Value(key)}, {"v", Value(++value_)}}), ts);
    e.wave = std::move(wave);
    e.last_in_wave = last;
    return e;
  }

  SpecKind kind_;
  std::mt19937 rng_;
  int64_t now_ = Seconds(1);
  uint64_t root_ = 0;
  int64_t value_ = 0;
};

using ConservationParams = std::tuple<SpecKind, bool, uint32_t>;

class CounterConservation
    : public ::testing::TestWithParam<ConservationParams> {};

TEST_P(CounterConservation, OperatorCountMatchesPutsMinusDepartures) {
  const auto [kind, delete_used, seed] = GetParam();
  WindowOperator op(MakeSpec(kind, delete_used));
  StreamGen gen(kind, seed);
  size_t puts = 0;
  size_t drained = 0;
  size_t consumed = 0;
  std::vector<Window> out;
  auto check = [&](const char* after) {
    drained += op.DrainExpired().size();
    for (const Window& w : out) {
      consumed += w.size();
    }
    out.clear();
    const size_t expected = puts - drained - (delete_used ? consumed : 0);
    ASSERT_EQ(op.PendingEventCount(), expected) << "after " << after;
  };
  std::vector<CWEvent> batch;
  for (int step = 0; step < 400; ++step) {
    batch.clear();
    gen.Next(&batch);
    for (const CWEvent& e : batch) {
      ASSERT_TRUE(op.Put(e, &out).ok());
      ++puts;
      check("Put");
    }
    if (gen.Uniform(0, 4) == 0) {
      op.OnTimeout(Timestamp(gen.now() + Seconds(gen.Uniform(0, 5))), &out);
      check("OnTimeout");
    }
  }
  EXPECT_GT(op.GroupCount(), 1u);
  EXPECT_GT(op.windows_produced(), 0u);
  op.Flush(&out);
  EXPECT_EQ(op.PendingEventCount(), 0u);
}

// Receiver level: the high-water mark is sampled from QueueDepth() after
// every deposit, so it must equal the largest depth observable from outside
// (gets only shrink the queue).
TEST_P(CounterConservation, ReceiverHighWaterMarkIsLargestDepth) {
  const auto [kind, delete_used, seed] = GetParam();
  const WindowSpec spec = MakeSpec(kind, delete_used);
  InputPort port(nullptr, "in", spec);
  WindowedReceiver r(&port, spec);
  StreamGen gen(kind, seed);
  size_t max_depth = 0;
  auto observe = [&] { max_depth = std::max(max_depth, r.QueueDepth()); };
  std::vector<CWEvent> batch;
  for (int step = 0; step < 400; ++step) {
    batch.clear();
    gen.Next(&batch);
    for (const CWEvent& e : batch) {
      ASSERT_TRUE(r.Put(e).ok());
      observe();
    }
    if (gen.Uniform(0, 4) == 0) {
      r.OnTimeout(Timestamp(gen.now() + Seconds(gen.Uniform(0, 5))));
      observe();
    }
    for (int64_t gets = gen.Uniform(0, 2); gets > 0 && r.HasWindow();
         --gets) {
      r.Get();
      observe();
    }
    r.DrainExpired();
  }
  r.Flush();
  observe();
  EXPECT_GT(max_depth, 0u);
  EXPECT_EQ(r.high_water_mark(), max_depth);
  EXPECT_EQ(r.PendingEventCount(), 0u);
}

std::string SpecKindName(SpecKind kind) {
  switch (kind) {
    case SpecKind::kTuple:
      return "Tuple";
    case SpecKind::kTupleGapped:
      return "TupleGapped";
    case SpecKind::kTime:
      return "Time";
    case SpecKind::kTimeSliding:
      return "TimeSliding";
    case SpecKind::kWave:
      return "Wave";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CounterConservation,
    ::testing::Combine(::testing::Values(SpecKind::kTuple,
                                         SpecKind::kTupleGapped,
                                         SpecKind::kTime,
                                         SpecKind::kTimeSliding,
                                         SpecKind::kWave),
                       ::testing::Bool(), ::testing::Values(42u, 7u)),
    [](const ::testing::TestParamInfo<ConservationParams>& info) {
      return SpecKindName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_DeleteUsed" : "_Keep") + "_Seed" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace cwf
