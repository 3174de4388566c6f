#include "net/link.h"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics_registry.h"

namespace rave::net {
namespace {

struct Delivery {
  Packet packet;
  Timestamp at;
};

struct LinkFixture {
  explicit LinkFixture(Link::Config config) {
    link = std::make_unique<Link>(loop, std::move(config),
                                  [this](const Packet& p, Timestamp t) {
                                    deliveries.push_back({p, t});
                                  });
  }
  EventLoop loop;
  std::vector<Delivery> deliveries;
  std::unique_ptr<Link> link;
};

Packet MakePacket(int64_t seq, int64_t bits) {
  Packet p;
  p.seq = seq;
  p.size = DataSize::Bits(bits);
  return p;
}

TEST(LinkTest, SerializationPlusPropagationExact) {
  Link::Config config;
  config.trace = CapacityTrace::Constant(DataRate::KilobitsPerSec(1000));
  config.propagation = TimeDelta::Millis(25);
  LinkFixture fx(std::move(config));
  // 10'000 bits at 1 Mbps = 10 ms serialization + 25 ms propagation.
  fx.link->Send(MakePacket(0, 10'000));
  fx.loop.RunAll();
  ASSERT_EQ(fx.deliveries.size(), 1u);
  EXPECT_EQ(fx.deliveries[0].at, Timestamp::Millis(35));
}

TEST(LinkTest, BackToBackPacketsQueueBehindEachOther) {
  Link::Config config;
  config.trace = CapacityTrace::Constant(DataRate::KilobitsPerSec(1000));
  config.propagation = TimeDelta::Zero();
  LinkFixture fx(std::move(config));
  fx.link->Send(MakePacket(0, 10'000));
  fx.link->Send(MakePacket(1, 10'000));
  fx.link->Send(MakePacket(2, 10'000));
  fx.loop.RunAll();
  ASSERT_EQ(fx.deliveries.size(), 3u);
  EXPECT_EQ(fx.deliveries[0].at, Timestamp::Millis(10));
  EXPECT_EQ(fx.deliveries[1].at, Timestamp::Millis(20));
  EXPECT_EQ(fx.deliveries[2].at, Timestamp::Millis(30));
  // FIFO order.
  EXPECT_EQ(fx.deliveries[0].packet.seq, 0);
  EXPECT_EQ(fx.deliveries[2].packet.seq, 2);
}

TEST(LinkTest, RateChangeMidPacketExactCompletion) {
  // 20'000 bits; 10 ms at 1 Mbps sends 10'000 bits, then the rate halves:
  // remaining 10'000 bits at 500 kbps = 20 ms. Total 30 ms.
  Link::Config config;
  config.trace =
      CapacityTrace::StepDrop(DataRate::KilobitsPerSec(1000),
                              DataRate::KilobitsPerSec(500),
                              Timestamp::Millis(10));
  config.propagation = TimeDelta::Zero();
  LinkFixture fx(std::move(config));
  fx.link->Send(MakePacket(0, 20'000));
  fx.loop.RunAll();
  ASSERT_EQ(fx.deliveries.size(), 1u);
  EXPECT_EQ(fx.deliveries[0].at, Timestamp::Millis(30));
}

TEST(LinkTest, RateIncreaseMidPacket) {
  // 20'000 bits: 10ms at 500kbps sends 5'000; remaining 15'000 at 2 Mbps =
  // 7.5 ms. Total 17.5 ms.
  Link::Config config;
  config.trace =
      CapacityTrace::StepDrop(DataRate::KilobitsPerSec(500),
                              DataRate::MegabitsPerSecF(2.0),
                              Timestamp::Millis(10));
  config.propagation = TimeDelta::Zero();
  LinkFixture fx(std::move(config));
  fx.link->Send(MakePacket(0, 20'000));
  fx.loop.RunAll();
  ASSERT_EQ(fx.deliveries.size(), 1u);
  EXPECT_EQ(fx.deliveries[0].at.us(), 17'500);
}

TEST(LinkTest, DroptailDropsWhenQueueFull) {
  Link::Config config;
  config.trace = CapacityTrace::Constant(DataRate::KilobitsPerSec(100));
  config.queue_capacity = DataSize::Bits(25'000);
  LinkFixture fx(std::move(config));
  // First packet starts transmitting (leaves the queue); then fill the
  // queue: 2 x 12'000 fits (24'000 <= 25'000), the next is dropped.
  for (int i = 0; i < 4; ++i) fx.link->Send(MakePacket(i, 12'000));
  EXPECT_EQ(fx.link->stats().packets_dropped, 1);
  fx.loop.RunAll();
  EXPECT_EQ(fx.deliveries.size(), 3u);
  EXPECT_EQ(fx.link->stats().packets_delivered, 3);
}

TEST(LinkTest, ConservationDeliveredPlusDroppedEqualsSent) {
  Link::Config config;
  config.trace = CapacityTrace::Constant(DataRate::KilobitsPerSec(500));
  config.queue_capacity = DataSize::Bits(50'000);
  LinkFixture fx(std::move(config));
  const int sent = 200;
  for (int i = 0; i < sent; ++i) fx.link->Send(MakePacket(i, 9'600));
  fx.loop.RunAll();
  EXPECT_EQ(fx.link->stats().packets_delivered +
                fx.link->stats().packets_dropped,
            sent);
  EXPECT_EQ(static_cast<int>(fx.deliveries.size()),
            static_cast<int>(fx.link->stats().packets_delivered));
}

// The net.tail_drops counter goes to whichever registry is installed when
// the drop happens: one link, two registries in turn, each must count
// exactly the drops made while it was installed.
TEST(LinkTest, TailDropCounterFollowsInstalledRegistry) {
  Link::Config config;
  config.trace = CapacityTrace::Constant(DataRate::KilobitsPerSec(100));
  config.queue_capacity = DataSize::Bits(25'000);
  LinkFixture fx(std::move(config));
  auto tail_drops = [](const obs::MetricsRegistry& registry) {
    const obs::RegistrySnapshot snap = registry.Snapshot();
    const obs::MetricSnapshot* m = snap.Find("net.tail_drops");
    return m != nullptr ? m->counter : 0u;
  };

  obs::MetricsRegistry first;
  {
    obs::MetricsScope scope(&first);
    for (int i = 0; i < 6; ++i) fx.link->Send(MakePacket(i, 12'000));
  }
  const int64_t first_drops = fx.link->stats().packets_dropped;
  ASSERT_GT(first_drops, 0);
  EXPECT_EQ(tail_drops(first), static_cast<uint64_t>(first_drops));

  obs::MetricsRegistry second;
  {
    obs::MetricsScope scope(&second);
    for (int i = 6; i < 10; ++i) fx.link->Send(MakePacket(i, 12'000));
  }
  const int64_t second_drops = fx.link->stats().packets_dropped - first_drops;
  ASSERT_GT(second_drops, 0);
  EXPECT_EQ(tail_drops(second), static_cast<uint64_t>(second_drops));
  EXPECT_EQ(tail_drops(first), static_cast<uint64_t>(first_drops));
}

TEST(LinkTest, BacklogAndQueueDelayTrackLoad) {
  Link::Config config;
  config.trace = CapacityTrace::Constant(DataRate::KilobitsPerSec(1000));
  config.queue_capacity = DataSize::Bits(1'000'000);
  LinkFixture fx(std::move(config));
  for (int i = 0; i < 10; ++i) fx.link->Send(MakePacket(i, 10'000));
  // 100'000 bits at 1 Mbps = 100 ms backlog.
  EXPECT_NEAR(fx.link->QueueDelay().ms_float(), 100.0, 1.0);
  EXPECT_NEAR(static_cast<double>(fx.link->backlog().bits()), 100'000, 100);
  fx.loop.RunFor(TimeDelta::Millis(50));
  EXPECT_NEAR(fx.link->QueueDelay().ms_float(), 50.0, 1.0);
  fx.loop.RunAll();
  EXPECT_TRUE(fx.link->backlog().IsZero());
}

TEST(LinkTest, SendTimeStampedIfUnset) {
  Link::Config config;
  LinkFixture fx(std::move(config));
  fx.loop.RunFor(TimeDelta::Millis(10));
  fx.link->Send(MakePacket(0, 8'000));
  fx.loop.RunAll();
  ASSERT_EQ(fx.deliveries.size(), 1u);
  EXPECT_EQ(fx.deliveries[0].packet.send_time, Timestamp::Millis(10));
}

TEST(DelayPipeTest, DeliversAfterDelay) {
  EventLoop loop;
  DelayPipe pipe(loop, TimeDelta::Millis(40));
  Timestamp delivered_at = Timestamp::MinusInfinity();
  pipe.Send([&] { delivered_at = loop.now(); });
  loop.RunAll();
  EXPECT_EQ(delivered_at, Timestamp::Millis(40));
  EXPECT_EQ(pipe.delivered(), 1);
}

TEST(DelayPipeTest, LossDropsDeterministically) {
  EventLoop loop;
  DelayPipe pipe(loop, TimeDelta::Millis(10), /*loss_rate=*/0.5,
                 TimeDelta::Zero(), /*seed=*/3);
  int delivered = 0;
  for (int i = 0; i < 1000; ++i) {
    pipe.Send([&] { ++delivered; });
  }
  loop.RunAll();
  EXPECT_EQ(delivered, static_cast<int>(pipe.delivered()));
  EXPECT_NEAR(delivered, 500, 60);
  EXPECT_EQ(pipe.delivered() + pipe.lost(), 1000);
}

TEST(DelayPipeTest, JitterNeverReorders) {
  EventLoop loop;
  DelayPipe pipe(loop, TimeDelta::Millis(20), 0.0, TimeDelta::Millis(15),
                 /*seed=*/5);
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) {
    pipe.Send([&order, i] { order.push_back(i); });
    loop.RunFor(TimeDelta::Millis(1));
  }
  loop.RunAll();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

}  // namespace
}  // namespace rave::net
