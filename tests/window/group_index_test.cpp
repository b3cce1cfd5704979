// Group-by semantics the operator's group index must keep whatever its
// container: flush order, key identity across Value types, timeout order
// among groups that share a deadline, and one key record per group.

#include <gtest/gtest.h>

#include "test_util.h"
#include "window/window_operator.h"

namespace cwf {
namespace {

using testutil::Ev;
using testutil::Rec;

TEST(GroupIndexTest, FlushEmitsGroupsInAscendingKeyOrder) {
  WindowOperator op(WindowSpec::Tuples(100, 1).GroupBy({"k"}));
  std::vector<Window> out;
  int64_t ts = 0;
  for (int64_t k : {3, 1, 2}) {
    ASSERT_TRUE(op.Put(Ev(Rec({{"k", Value(k)}, {"v", Value(k * 10)}}), ++ts),
                       &out)
                    .ok());
  }
  ASSERT_TRUE(out.empty());
  op.Flush(&out);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    const int64_t k = static_cast<int64_t>(i) + 1;
    EXPECT_EQ(out[i].group_key.Field("k").AsInt(), k);
    ASSERT_EQ(out[i].events.size(), 1u);
    EXPECT_EQ(out[i].events[0].token.Field("v").AsInt(), k * 10);
  }
  EXPECT_EQ(op.PendingEventCount(), 0u);
}

TEST(GroupIndexTest, ValuesOfDifferentTypesFormSeparateGroups) {
  // 1, 1.0, "1" and true print alike and may hash alike, but they are
  // distinct keys; each arrives twice and must find its own group again.
  WindowOperator op(WindowSpec::Tuples(100, 1).GroupBy({"k"}));
  const std::vector<Value> keys = {Value(1), Value(1.0), Value("1"),
                                   Value(true)};
  std::vector<Window> out;
  int64_t ts = 0;
  for (int round = 0; round < 2; ++round) {
    for (const Value& k : keys) {
      ASSERT_TRUE(op.Put(Ev(Rec({{"k", k}}), ++ts), &out).ok());
    }
  }
  EXPECT_EQ(op.GroupCount(), 4u);
  op.Flush(&out);
  ASSERT_EQ(out.size(), 4u);
  // Flush order follows Value's type-tag-first total order.
  EXPECT_TRUE(out[0].group_key.Field("k").is_int());
  EXPECT_TRUE(out[1].group_key.Field("k").is_double());
  EXPECT_TRUE(out[2].group_key.Field("k").is_bool());
  EXPECT_TRUE(out[3].group_key.Field("k").is_string());
  for (const Window& w : out) {
    ASSERT_EQ(w.events.size(), 2u);
    EXPECT_EQ(w.events[0].token.Field("k"), w.group_key.Field("k"));
    EXPECT_EQ(w.events[1].token.Field("k"), w.group_key.Field("k"));
  }
}

TEST(GroupIndexTest, SharedDeadlineTimesOutInRegistrationOrder) {
  WindowOperator op(WindowSpec::Time(Seconds(60), Seconds(60))
                        .GroupBy({"k"})
                        .FormationTimeout(Seconds(5)));
  std::vector<Window> out;
  const std::vector<int64_t> order = {5, 2, 9, 1};
  for (int64_t k : order) {
    ASSERT_TRUE(op.Put(Ev(Rec({{"k", Value(k)}}), Seconds(10)), &out).ok());
  }
  // Later events in the same window leave each group's deadline as it was.
  for (int64_t k : {1, 2}) {
    ASSERT_TRUE(op.Put(Ev(Rec({{"k", Value(k)}}), Seconds(20)), &out).ok());
  }
  EXPECT_EQ(op.NextDeadline(), Timestamp::Seconds(65));
  op.OnTimeout(Timestamp::Seconds(65), &out);
  ASSERT_EQ(out.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(out[i].group_key.Field("k").AsInt(), order[i]);
    EXPECT_TRUE(out[i].closed_by_timeout);
  }
  EXPECT_EQ(op.NextDeadline(), Timestamp::Max());
}

// Windows of car 7 (key fields listed out of spec order in the record) from
// three separate puts, with a second group interleaved.
std::vector<Window> Car7Windows() {
  WindowOperator op(WindowSpec::Tuples(2, 2).GroupBy({"car", "seg"}));
  std::vector<Window> out;
  int64_t ts = 0;
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(op.Put(Ev(Rec({{"seg", Value(3)},
                               {"x", Value(i)},
                               {"car", Value(7)}}),
                          ++ts),
                       &out)
                    .ok());
    EXPECT_TRUE(op.Put(Ev(Rec({{"seg", Value(4)}, {"car", Value(8)}}), ++ts),
                       &out)
                    .ok());
  }
  std::vector<Window> car7;
  for (Window& w : out) {
    if (w.group_key.Field("car").AsInt() == 7) {
      car7.push_back(std::move(w));
    }
  }
  return car7;
}

TEST(GroupIndexTest, KeyRecordHoldsGroupByFieldsInSpecOrder) {
  const std::vector<Window> car7 = Car7Windows();
  ASSERT_EQ(car7.size(), 3u);
  for (const Window& w : car7) {
    const Record& key = *w.group_key.AsRecord();
    ASSERT_EQ(key.size(), 2u);
    EXPECT_EQ(key.NameAt(0), "car");
    EXPECT_EQ(key.ValueAt(0), Value(7));
    EXPECT_EQ(key.NameAt(1), "seg");
    EXPECT_EQ(key.ValueAt(1), Value(3));
  }
}

TEST(GroupIndexTest, WindowsOfOneGroupShareOneKeyRecord) {
  // The key record is built when the group is created, not per put.
  const std::vector<Window> car7 = Car7Windows();
  ASSERT_EQ(car7.size(), 3u);
  const Record* key = car7[0].group_key.AsRecord().get();
  for (const Window& w : car7) {
    EXPECT_EQ(w.group_key.AsRecord().get(), key);
  }
}

}  // namespace
}  // namespace cwf
