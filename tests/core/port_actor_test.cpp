#include <gtest/gtest.h>

#include "actors/library.h"
#include "core/actor.h"
#include "core/clock.h"
#include "test_util.h"

namespace cwf {
namespace {

using testutil::Ev;

class ProbeActor : public Actor {
 public:
  explicit ProbeActor(std::string name) : Actor(std::move(name)) {
    in = AddInputPort("in");
    in2 = AddInputPort("in2");
    out = AddOutputPort("out");
  }
  Status Fire() override { return Status::OK(); }
  InputPort* in;
  InputPort* in2;
  OutputPort* out;
};

TEST(PortTest, NamesAndOwnership) {
  ProbeActor a("A");
  EXPECT_EQ(a.in->name(), "in");
  EXPECT_EQ(a.in->FullName(), "A.in");
  EXPECT_EQ(a.in->actor(), &a);
  EXPECT_EQ(a.GetInputPort("in2"), a.in2);
  EXPECT_EQ(a.GetInputPort("nope"), nullptr);
  EXPECT_EQ(a.GetOutputPort("out"), a.out);
}

TEST(PortDeathTest, DuplicatePortNameAborts) {
  ProbeActor a("A");
  EXPECT_DEATH(a.AddInputPort("in"), "duplicate input port");
  EXPECT_DEATH(a.AddOutputPort("out"), "duplicate output port");
}

TEST(InputPortTest, ReceiverChannels) {
  ProbeActor a("A");
  EXPECT_EQ(a.in->ChannelCount(), 0u);
  EXPECT_EQ(a.in->receiver(0), nullptr);
  Receiver* r0 = a.in->SetReceiver(0, testutil::FifoReceiver(a.in));
  Receiver* r2 = a.in->SetReceiver(2, testutil::FifoReceiver(a.in));
  EXPECT_EQ(a.in->ChannelCount(), 3u);
  EXPECT_EQ(a.in->receiver(0), r0);
  EXPECT_EQ(a.in->receiver(1), nullptr);
  EXPECT_EQ(a.in->receiver(2), r2);
}

TEST(InputPortTest, GetScansChannelsInOrder) {
  ProbeActor a("A");
  a.in->SetReceiver(0, testutil::FifoReceiver(a.in));
  a.in->SetReceiver(1, testutil::FifoReceiver(a.in));
  ASSERT_TRUE(a.in->receiver(1)->Put(Ev(Token(2), 10)).ok());
  ASSERT_TRUE(a.in->receiver(0)->Put(Ev(Token(1), 20)).ok());
  EXPECT_TRUE(a.in->HasWindow());
  EXPECT_TRUE(a.in->HasWindowOn(0));
  EXPECT_EQ(a.in->ReadyWindowCount(), 2u);
  // Channel 0 drained first.
  EXPECT_EQ(a.in->Get()->events[0].token.AsInt(), 1);
  EXPECT_EQ(a.in->Get()->events[0].token.AsInt(), 2);
  EXPECT_FALSE(a.in->Get().has_value());
}

TEST(InputPortTest, GetUpdatesFiringContext) {
  ProbeActor a("A");
  a.in->SetReceiver(0, testutil::FifoReceiver(a.in));
  CWEvent e = Ev(Token(5), 123, /*root=*/9, /*seq=*/77);
  ASSERT_TRUE(a.in->receiver(0)->Put(e).ok());
  a.BeginFiring();
  EXPECT_FALSE(a.firing_context().valid);
  a.in->Get();
  ASSERT_TRUE(a.firing_context().valid);
  EXPECT_EQ(a.firing_context().timestamp, Timestamp(123));
  EXPECT_EQ(a.firing_context().wave, WaveTag::Root(9));
  EXPECT_EQ(a.firing_context().max_seq, 77u);
  EXPECT_EQ(a.firing_context().events_consumed, 1u);
}

TEST(FiringContextTest, AbsorbKeepsNewestBySeq) {
  FiringContext fc;
  Window w1;
  w1.events.push_back(Ev(Token(1), 100, 1, 5));
  Window w2;
  w2.events.push_back(Ev(Token(2), 50, 2, 9));
  fc.Absorb(w1);
  fc.Absorb(w2);
  EXPECT_EQ(fc.wave, WaveTag::Root(2));  // seq 9 wins
  EXPECT_EQ(fc.timestamp, Timestamp(50));
  EXPECT_EQ(fc.events_consumed, 2u);
}

TEST(ActorTest, DefaultPrefireRequiresAllConnectedPorts) {
  ProbeActor a("A");
  // No connected ports: prefire is vacuously true.
  EXPECT_TRUE(a.Prefire().value());
  a.in->SetReceiver(0, testutil::FifoReceiver(a.in));
  a.in2->SetReceiver(0, testutil::FifoReceiver(a.in2));
  EXPECT_FALSE(a.Prefire().value());
  ASSERT_TRUE(a.in->receiver(0)->Put(Ev(Token(1), 1)).ok());
  EXPECT_FALSE(a.Prefire().value());  // in2 still empty
  ASSERT_TRUE(a.in2->receiver(0)->Put(Ev(Token(2), 2)).ok());
  EXPECT_TRUE(a.Prefire().value());
}

TEST(ActorTest, IsSourceTracksConnectedInputs) {
  ProbeActor a("A");
  EXPECT_TRUE(a.IsSource());
  a.in->SetReceiver(0, testutil::FifoReceiver(a.in));
  EXPECT_FALSE(a.IsSource());
}

TEST(ActorTest, SendBuffersUntilTaken) {
  ProbeActor a("A");
  a.Send(a.out, Token(1));
  a.SendStamped(a.out, Token(2), Timestamp(55));
  auto pending = a.TakePendingOutputs();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].token.AsInt(), 1);
  EXPECT_FALSE(pending[0].external_timestamp.has_value());
  EXPECT_EQ(pending[1].external_timestamp.value(), Timestamp(55));
  EXPECT_TRUE(a.TakePendingOutputs().empty());
}

TEST(ActorDeathTest, SendOnForeignPortAborts) {
  ProbeActor a("A");
  ProbeActor b("B");
  EXPECT_DEATH(a.Send(b.out, Token(1)), "not owned");
}

TEST(ActorTest, BeginFiringClearsState) {
  ProbeActor a("A");
  a.Send(a.out, Token(1));
  a.in->SetReceiver(0, testutil::FifoReceiver(a.in));
  ASSERT_TRUE(a.in->receiver(0)->Put(Ev(Token(9), 5)).ok());
  a.in->Get();
  EXPECT_TRUE(a.firing_context().valid);
  a.BeginFiring();
  EXPECT_FALSE(a.firing_context().valid);
  EXPECT_TRUE(a.TakePendingOutputs().empty());
}

TEST(OutputPortTest, BroadcastReachesAllRemoteReceivers) {
  ProbeActor a("A"), b("B"), c("C");
  b.in->SetReceiver(0, testutil::FifoReceiver(b.in));
  c.in->SetReceiver(0, testutil::FifoReceiver(c.in));
  a.out->AddRemoteReceiver(b.in->receiver(0));
  a.out->AddRemoteReceiver(c.in->receiver(0));
  ASSERT_TRUE(a.out->Broadcast(Ev(Token(3), 1)).ok());
  EXPECT_TRUE(b.in->HasWindow());
  EXPECT_TRUE(c.in->HasWindow());
}

TEST(LibraryActorTest, MapActorTransforms) {
  MapActor map("double", [](const Token& t) { return Token(t.AsInt() * 2); });
  map.in()->SetReceiver(0, testutil::FifoReceiver(map.in()));
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  ASSERT_TRUE(map.Initialize(&ctx).ok());
  ASSERT_TRUE(map.in()->receiver(0)->Put(Ev(Token(21), 1)).ok());
  map.BeginFiring();
  ASSERT_TRUE(map.Fire().ok());
  auto out = map.TakePendingOutputs();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].token.AsInt(), 42);
}

TEST(LibraryActorTest, FilterActorDropsNonMatching) {
  FilterActor f("evens", [](const Token& t) { return t.AsInt() % 2 == 0; });
  f.in()->SetReceiver(0, testutil::FifoReceiver(f.in()));
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  ASSERT_TRUE(f.Initialize(&ctx).ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(f.in()->receiver(0)->Put(Ev(Token(i), i)).ok());
  }
  int emitted = 0;
  while (f.Prefire().value()) {
    f.BeginFiring();
    ASSERT_TRUE(f.Fire().ok());
    emitted += static_cast<int>(f.TakePendingOutputs().size());
  }
  EXPECT_EQ(emitted, 2);  // 2 and 4
}

TEST(LibraryActorTest, FlatMapFansOut) {
  FlatMapActor fm("explode", [](const Token& t) {
    return std::vector<Token>{t, t, t};
  });
  fm.in()->SetReceiver(0, testutil::FifoReceiver(fm.in()));
  ExecutionContext ctx;
  VirtualClock clock;
  ctx.clock = &clock;
  ASSERT_TRUE(fm.Initialize(&ctx).ok());
  ASSERT_TRUE(fm.in()->receiver(0)->Put(Ev(Token(1), 1)).ok());
  fm.BeginFiring();
  ASSERT_TRUE(fm.Fire().ok());
  EXPECT_EQ(fm.TakePendingOutputs().size(), 3u);
}

}  // namespace
}  // namespace cwf
