// Semantics the per-group window state must keep whatever its layout: a
// popped or consumed event leaves no reference behind, and FIFO order holds
// while the queue's ring wraps and grows.

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"
#include "window/window_operator.h"

namespace cwf {
namespace {

CWEvent RecordEvent(const RecordPtr& rec, int64_t ts_us, uint64_t seq) {
  CWEvent e;
  e.token = Token(rec);
  e.timestamp = Timestamp(ts_us);
  e.wave = WaveTag::Root(seq);
  e.last_in_wave = true;
  e.seq = seq;
  return e;
}

// Feeds `n` fresh records 1 s apart, drops every produced window and the
// expired events, then checks that only the records still pending in the
// operator (the most recent PendingEventCount() ones) are referenced by it.
void ExpectNoLingeringReferences(WindowOperator* op, size_t n) {
  std::vector<RecordPtr> fed;
  {
    std::vector<Window> out;
    for (size_t i = 0; i < n; ++i) {
      auto rec = std::make_shared<Record>();
      rec->Set("v", Value(static_cast<int64_t>(i)));
      fed.push_back(rec);
      ASSERT_TRUE(op->Put(RecordEvent(rec, static_cast<int64_t>(i) * 1000000,
                                      i + 1),
                          &out)
                      .ok());
    }
    EXPECT_FALSE(out.empty());
    op->DrainExpired();
  }
  const size_t pending = op->PendingEventCount();
  ASSERT_LT(pending, n);
  for (size_t i = 0; i < n; ++i) {
    const long expected = i + pending < n ? 1 : 2;
    EXPECT_EQ(fed[i].use_count(), expected) << "record " << i;
  }
}

TEST(WindowStateTest, SlidingTupleWindowLeavesNoReferences) {
  WindowOperator op(WindowSpec::Tuples(2, 1));
  ExpectNoLingeringReferences(&op, 50);
}

TEST(WindowStateTest, ConsumingTimeWindowLeavesNoReferences) {
  WindowOperator op(
      WindowSpec::Time(Seconds(10), Seconds(10)).DeleteUsedEvents(true));
  ExpectNoLingeringReferences(&op, 55);
}

std::vector<std::vector<uint64_t>> Seqs(const std::vector<Window>& windows) {
  std::vector<std::vector<uint64_t>> out;
  for (const Window& w : windows) {
    std::vector<uint64_t> seqs;
    for (const CWEvent& e : w.events) {
      seqs.push_back(e.seq);
    }
    out.push_back(std::move(seqs));
  }
  return out;
}

constexpr uint64_t kFifoEvents = 10000;

TEST(WindowStateTest, SlidingTimeWindowOrderSurvivesWraparound) {
  const Duration size = Seconds(10);
  const Duration step = Seconds(1);
  WindowOperator op(WindowSpec::Time(size, step));
  std::vector<Window> out;
  std::vector<int64_t> ts(kFifoEvents + 1);
  for (uint64_t seq = 1; seq <= kFifoEvents; ++seq) {
    // Irregular spacing (100..700 ms), never a gap of a whole step.
    ts[seq] = static_cast<int64_t>(seq) * 400000 +
              static_cast<int64_t>(seq * 7919 % 7) * 50000;
    ASSERT_TRUE(op.Put(testutil::Ev(Token(static_cast<int64_t>(seq)),
                                    ts[seq], 0, seq),
                       &out)
                    .ok());
  }
  // Reference: every window [s, s + size) on the step grid that a later
  // event closed (s + size <= last timestamp), holding the events it covers.
  std::vector<std::vector<uint64_t>> expected;
  const int64_t first_start = ts[1] / step * step;
  for (int64_t s = first_start; s + size <= ts[kFifoEvents]; s += step) {
    std::vector<uint64_t> w;
    for (uint64_t seq = 1; seq <= kFifoEvents; ++seq) {
      if (ts[seq] >= s && ts[seq] < s + size) {
        w.push_back(seq);
      }
    }
    expected.push_back(std::move(w));
  }
  EXPECT_EQ(Seqs(out), expected);
}

}  // namespace
}  // namespace cwf
