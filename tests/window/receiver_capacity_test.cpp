// Capacity bounds and high-water-mark accounting on receivers — the
// runtime half of the static capacity planner's feedback edge.

#include <gtest/gtest.h>

#include "core/port.h"
#include "test_util.h"
#include "window/windowed_receiver.h"

namespace cwf {
namespace {

using testutil::Ev;

TEST(ReceiverCapacityTest, UnboundedByDefault) {
  InputPort port(nullptr, "in", WindowSpec::SingleEvent());
  WindowedReceiver r(&port, WindowSpec::SingleEvent());
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_EQ(r.overflow_policy(), OverflowPolicy::kUnbounded);
  EXPECT_FALSE(r.AtCapacity());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(r.Put(Ev(Token(i), i)).ok());
  }
  EXPECT_FALSE(r.AtCapacity());
  EXPECT_EQ(r.QueueDepth(), 100u);
  EXPECT_EQ(r.high_water_mark(), 100u);
}

TEST(ReceiverCapacityTest, AtCapacityTracksQueueDepth) {
  InputPort port(nullptr, "in", WindowSpec::SingleEvent());
  WindowedReceiver r(&port, WindowSpec::SingleEvent());
  r.SetCapacity(2, OverflowPolicy::kBlock);
  EXPECT_EQ(r.capacity(), 2u);
  EXPECT_EQ(r.overflow_policy(), OverflowPolicy::kBlock);
  ASSERT_TRUE(r.Put(Ev(Token(1), 1)).ok());
  EXPECT_FALSE(r.AtCapacity());
  ASSERT_TRUE(r.Put(Ev(Token(2), 2)).ok());
  EXPECT_TRUE(r.AtCapacity());
  ASSERT_TRUE(r.Get().has_value());
  EXPECT_FALSE(r.AtCapacity());
  EXPECT_EQ(r.high_water_mark(), 2u);
}

TEST(ReceiverCapacityTest, ZeroCapacityResetsPolicyToUnbounded) {
  InputPort port(nullptr, "in", WindowSpec::SingleEvent());
  WindowedReceiver r(&port, WindowSpec::SingleEvent());
  r.SetCapacity(4, OverflowPolicy::kBlock);
  r.SetCapacity(0, OverflowPolicy::kBlock);
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_EQ(r.overflow_policy(), OverflowPolicy::kUnbounded);
  EXPECT_FALSE(r.AtCapacity());
}

TEST(ReceiverCapacityTest, HighWaterMarkIsMonotoneUntilReset) {
  InputPort port(nullptr, "in", WindowSpec::SingleEvent());
  WindowedReceiver r(&port, WindowSpec::SingleEvent());
  ASSERT_TRUE(r.Put(Ev(Token(1), 1)).ok());
  ASSERT_TRUE(r.Put(Ev(Token(2), 2)).ok());
  ASSERT_TRUE(r.Get().has_value());
  ASSERT_TRUE(r.Get().has_value());
  ASSERT_TRUE(r.Put(Ev(Token(3), 3)).ok());
  // Draining does not lower the mark; a shallower refill does not raise it.
  EXPECT_EQ(r.high_water_mark(), 2u);
  r.ResetHighWaterMark();
  EXPECT_EQ(r.high_water_mark(), 0u);
  // Token 3 is still queued, so the next deposit observes depth 2.
  ASSERT_TRUE(r.Put(Ev(Token(4), 4)).ok());
  EXPECT_EQ(r.high_water_mark(), 2u);
}

TEST(ReceiverCapacityTest, WindowedReceiverCountsPendingPlusReady) {
  // Tuples(2, 2): depth counts buffered-but-unwindowed events AND formed
  // windows awaiting the consumer — the planner's "queued units".
  InputPort port(nullptr, "in", WindowSpec::Tuples(2, 2));
  WindowedReceiver r(&port, port.spec());
  ASSERT_TRUE(r.Put(Ev(Token(1), 1)).ok());
  EXPECT_EQ(r.QueueDepth(), 1u);  // 1 pending
  ASSERT_TRUE(r.Put(Ev(Token(2), 2)).ok());
  EXPECT_EQ(r.QueueDepth(), 1u);  // 0 pending + 1 ready window
  ASSERT_TRUE(r.Put(Ev(Token(3), 3)).ok());
  EXPECT_EQ(r.QueueDepth(), 2u);  // 1 pending + 1 ready
  EXPECT_EQ(r.high_water_mark(), 2u);
  r.SetCapacity(2, OverflowPolicy::kBlock);
  EXPECT_TRUE(r.AtCapacity());
  ASSERT_TRUE(r.Get().has_value());
  EXPECT_FALSE(r.AtCapacity());
}

TEST(ReceiverCapacityTest, FlushRecordsDepthOfForcedWindows) {
  InputPort port(nullptr, "in", WindowSpec::Tuples(3, 3));
  WindowedReceiver r(&port, port.spec());
  ASSERT_TRUE(r.Put(Ev(Token(1), 1)).ok());
  ASSERT_TRUE(r.Put(Ev(Token(2), 2)).ok());
  r.Flush();
  EXPECT_GE(r.high_water_mark(), r.QueueDepth());
}

}  // namespace
}  // namespace cwf
