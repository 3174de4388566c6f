#include "fault/fault_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fault/fault_plan.h"
#include "net/link.h"
#include "obs/metrics_registry.h"
#include "sim/event_loop.h"

namespace rave::fault {
namespace {

net::Packet MakePacket(int64_t media_seq) {
  net::Packet p;
  p.media_seq = media_seq;
  p.size = DataSize::Bytes(1200);
  return p;
}

// 10 Mbps link, 10 ms propagation: a 1200-byte packet serializes in ~1 ms.
struct LinkFixture {
  LinkFixture() {
    net::Link::Config config;
    config.trace =
        net::CapacityTrace::Constant(DataRate::KilobitsPerSec(10'000));
    config.propagation = TimeDelta::Millis(10);
    link = std::make_unique<net::Link>(
        loop, config, [this](const net::Packet& p, Timestamp at) {
          arrivals.emplace_back(p.media_seq, at);
        });
  }

  void SendAt(Timestamp at, int64_t media_seq) {
    loop.ScheduleAt(at, [this, media_seq] { link->Send(MakePacket(media_seq)); });
  }

  EventLoop loop;
  std::vector<std::pair<int64_t, Timestamp>> arrivals;
  std::unique_ptr<net::Link> link;
};

TEST(FaultSchedulerTest, OutageBlocksDeliveryUntilRevert) {
  LinkFixture fx;
  FaultPlan plan;
  plan.Outage(Timestamp::Millis(100), TimeDelta::Millis(200));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);

  fx.SendAt(Timestamp::Millis(50), 0);   // before the outage
  fx.SendAt(Timestamp::Millis(150), 1);  // mid-outage: parked in the queue
  fx.loop.RunFor(TimeDelta::Millis(500));

  ASSERT_EQ(fx.arrivals.size(), 2u);
  EXPECT_LT(fx.arrivals[0].second, Timestamp::Millis(100));
  // Packet 1 cannot start serializing before the outage clears at t=300.
  EXPECT_GE(fx.arrivals[1].second, Timestamp::Millis(300));
  EXPECT_EQ(fx.link->stats().outages, 1);
  EXPECT_EQ(scheduler.stats().faults_applied, 1);
  EXPECT_EQ(scheduler.stats().faults_reverted, 1);
  EXPECT_FALSE(scheduler.any_active());
}

TEST(FaultSchedulerTest, OutageFreezesInFlightPacketMidSerialization) {
  LinkFixture fx;
  // 100 kbps: a 1200-byte packet takes 96 ms to serialize.
  net::Link::Config config;
  config.trace = net::CapacityTrace::Constant(DataRate::KilobitsPerSec(100));
  config.propagation = TimeDelta::Millis(10);
  std::vector<Timestamp> arrivals;
  net::Link slow(fx.loop, config,
                 [&](const net::Packet&, Timestamp at) { arrivals.push_back(at); });

  FaultPlan plan;
  plan.Outage(Timestamp::Millis(50), TimeDelta::Millis(100));
  FaultScheduler scheduler(fx.loop, plan, &slow, nullptr);

  fx.loop.ScheduleAt(Timestamp::Zero(), [&] { slow.Send(MakePacket(0)); });
  fx.loop.RunFor(TimeDelta::Millis(400));

  // 50 ms served before the outage + 46 ms after it clears at t=150, plus
  // 10 ms propagation: arrival at ~206 ms (blackout added exactly 100 ms).
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GE(arrivals[0], Timestamp::Micros(205'990));
  EXPECT_LE(arrivals[0], Timestamp::Micros(206'010));
}

TEST(FaultSchedulerTest, DelaySpikeAddsDelayAndPreservesOrder) {
  LinkFixture fx;
  FaultPlan plan;
  plan.DelaySpike(Timestamp::Millis(100), TimeDelta::Millis(100),
                  TimeDelta::Millis(80));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);

  fx.SendAt(Timestamp::Millis(50), 0);   // normal: ~10 ms propagation
  fx.SendAt(Timestamp::Millis(150), 1);  // spiked: ~90 ms propagation
  fx.SendAt(Timestamp::Millis(230), 2);  // after revert: would overtake
  fx.loop.RunFor(TimeDelta::Millis(500));

  ASSERT_EQ(fx.arrivals.size(), 3u);
  EXPECT_EQ(fx.arrivals[0].first, 0);
  EXPECT_GE(fx.arrivals[1].second, Timestamp::Millis(240));
  // The in-order clamp: packet 2 (sent after the spike cleared) must not
  // arrive before packet 1, which is still in flight with the extra delay.
  EXPECT_EQ(fx.arrivals[1].first, 1);
  EXPECT_EQ(fx.arrivals[2].first, 2);
  EXPECT_GT(fx.arrivals[2].second, fx.arrivals[1].second);
}

TEST(FaultSchedulerTest, DuplicationDeliversCopies) {
  LinkFixture fx;
  FaultPlan plan;
  plan.DuplicationBurst(Timestamp::Millis(100), TimeDelta::Millis(200), 1.0);
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);

  fx.SendAt(Timestamp::Millis(50), 0);   // outside the window: no copy
  fx.SendAt(Timestamp::Millis(150), 1);  // inside: duplicated
  fx.loop.RunFor(TimeDelta::Millis(500));

  ASSERT_EQ(fx.arrivals.size(), 3u);
  EXPECT_EQ(fx.arrivals[0].first, 0);
  EXPECT_EQ(fx.arrivals[1].first, 1);
  EXPECT_EQ(fx.arrivals[2].first, 1);
  EXPECT_GT(fx.arrivals[2].second, fx.arrivals[1].second);
  EXPECT_EQ(fx.link->stats().packets_duplicated, 1);
  // The link-level delivery counter counts unique packets.
  EXPECT_EQ(fx.link->stats().packets_delivered, 2);
}

TEST(FaultSchedulerTest, ReorderBurstHoldsPacketsBackWithoutLoss) {
  LinkFixture fx;
  FaultPlan plan;
  // Every packet in the window is held back up to 50 ms.
  plan.ReorderBurst(Timestamp::Millis(100), TimeDelta::Millis(50), 1.0,
                    TimeDelta::Millis(50));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);

  fx.SendAt(Timestamp::Millis(120), 0);  // held back
  fx.SendAt(Timestamp::Millis(160), 1);  // after the window: normal
  fx.loop.RunFor(TimeDelta::Millis(500));

  ASSERT_EQ(fx.arrivals.size(), 2u);
  EXPECT_EQ(fx.link->stats().packets_reordered, 1);
}

TEST(FaultSchedulerTest, FeedbackBlackholeDiscardsReverseTraffic) {
  LinkFixture fx;
  net::DelayPipe pipe(fx.loop, TimeDelta::Millis(25));
  FaultPlan plan;
  plan.FeedbackBlackhole(Timestamp::Millis(100), TimeDelta::Millis(200));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), &pipe);

  int delivered = 0;
  for (int64_t ms : {50, 150, 250, 350}) {
    fx.loop.ScheduleAt(Timestamp::Millis(ms),
                       [&] { pipe.Send([&] { ++delivered; }); });
  }
  fx.loop.RunFor(TimeDelta::Millis(500));

  // The t=150 and t=250 sends fall into the blackhole window.
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(pipe.blackholed(), 2);
}

TEST(FaultSchedulerTest, NullPipeIgnoresFeedbackFaults) {
  LinkFixture fx;
  FaultPlan plan;
  plan.FeedbackBlackhole(Timestamp::Millis(100), TimeDelta::Millis(100));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);
  fx.SendAt(Timestamp::Millis(150), 0);
  fx.loop.RunFor(TimeDelta::Millis(400));
  // Forward traffic unaffected; apply/revert still accounted.
  EXPECT_EQ(fx.arrivals.size(), 1u);
  EXPECT_EQ(scheduler.stats().faults_applied, 1);
  EXPECT_EQ(scheduler.stats().faults_reverted, 1);
}

TEST(FaultSchedulerTest, AnyActiveTracksOpenWindows) {
  LinkFixture fx;
  FaultPlan plan;
  plan.Outage(Timestamp::Millis(100), TimeDelta::Millis(100));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);

  fx.loop.RunFor(TimeDelta::Millis(50));
  EXPECT_FALSE(scheduler.any_active());
  fx.loop.RunFor(TimeDelta::Millis(100));  // now at t=150, mid-window
  EXPECT_TRUE(scheduler.any_active());
  EXPECT_TRUE(fx.link->outage());
  fx.loop.RunFor(TimeDelta::Millis(100));  // t=250, cleared
  EXPECT_FALSE(scheduler.any_active());
  EXPECT_FALSE(fx.link->outage());
}

TEST(FaultSchedulerTest, HandoverSwapsRateRttAndLossAtomically) {
  // The acceptance test for the wireless tier: sample the link on BOTH
  // sides of the handover instant and observe capacity, propagation, and
  // the loss model change together, in one event-loop action.
  LinkFixture fx;
  net::DelayPipe pipe(fx.loop, TimeDelta::Millis(25));

  net::LossModel new_loss;
  new_loss.random_loss = 1.0;  // exact: every post-handover packet dies
  new_loss.seed = 99;
  FaultPlan plan;
  plan.Handover(Timestamp::Millis(100), TimeDelta::Millis(50),
                DataRate::KilobitsPerSec(1'000), TimeDelta::Millis(40),
                new_loss);
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), &pipe);

  // Probes 1 ms either side of the event.
  struct Sample {
    DataRate rate = DataRate::Zero();
    bool outage = false;
    bool blackhole = false;
    int64_t handovers = 0;
    TimeDelta pipe_delay = TimeDelta::Zero();
  };
  Sample before, during, after;
  auto probe = [&](Sample& s) {
    s.rate = fx.link->current_rate();
    s.outage = fx.link->outage();
    s.blackhole = pipe.blackhole();
    s.handovers = fx.link->stats().handovers;
    s.pipe_delay = pipe.base_delay();
  };
  fx.loop.ScheduleAt(Timestamp::Millis(99), [&] { probe(before); });
  fx.loop.ScheduleAt(Timestamp::Millis(101), [&] { probe(during); });
  fx.loop.ScheduleAt(Timestamp::Millis(200), [&] { probe(after); });

  fx.SendAt(Timestamp::Millis(50), 0);   // old cell: delivered normally
  fx.SendAt(Timestamp::Millis(200), 1);  // new cell: certain loss
  fx.loop.RunFor(TimeDelta::Millis(500));

  // Old cell on the left side of the event.
  EXPECT_EQ(before.rate, DataRate::KilobitsPerSec(10'000));
  EXPECT_FALSE(before.outage);
  EXPECT_FALSE(before.blackhole);
  EXPECT_EQ(before.handovers, 0);
  EXPECT_EQ(before.pipe_delay, TimeDelta::Millis(25));

  // One event-loop action later every parameter has moved: capacity,
  // reverse-path delay, loss model, and the radio-silence gap are all on.
  EXPECT_EQ(during.rate, DataRate::KilobitsPerSec(1'000));
  EXPECT_TRUE(during.outage);
  EXPECT_TRUE(during.blackhole);
  EXPECT_EQ(during.handovers, 1);
  EXPECT_EQ(during.pipe_delay, TimeDelta::Millis(40));

  // The revert only ends the silence; the new cell persists.
  EXPECT_FALSE(after.outage);
  EXPECT_FALSE(after.blackhole);
  EXPECT_EQ(after.rate, DataRate::KilobitsPerSec(1'000));
  EXPECT_EQ(after.pipe_delay, TimeDelta::Millis(40));

  // Packet 0 rode the old cell (10 ms propagation); packet 1 hit the new
  // cell's certain loss without ever arriving.
  ASSERT_EQ(fx.arrivals.size(), 1u);
  EXPECT_EQ(fx.arrivals[0].first, 0);
  EXPECT_LT(fx.arrivals[0].second, Timestamp::Millis(100));
  EXPECT_EQ(fx.link->stats().packets_lost_random, 1);
  EXPECT_EQ(scheduler.stats().faults_applied, 1);
  EXPECT_EQ(scheduler.stats().faults_reverted, 1);
}

TEST(FaultSchedulerTest, HandoverPropagationGovernsArrivalTiming) {
  LinkFixture fx;
  FaultPlan plan;
  plan.Handover(Timestamp::Millis(100), TimeDelta::Millis(50),
                DataRate::KilobitsPerSec(1'000), TimeDelta::Millis(40));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);

  fx.SendAt(Timestamp::Millis(200), 0);
  fx.loop.RunFor(TimeDelta::Millis(500));

  // New cell: 1200 bytes at 1 Mbps = 9.6 ms serialization + 40 ms OWD.
  ASSERT_EQ(fx.arrivals.size(), 1u);
  EXPECT_GE(fx.arrivals[0].second, Timestamp::Micros(249'590));
  EXPECT_LE(fx.arrivals[0].second, Timestamp::Micros(249'610));
}

TEST(FaultSchedulerTest, RenegotiationIsWindowedNotPersistent) {
  LinkFixture fx;
  FaultPlan plan;
  plan.Renegotiate(Timestamp::Millis(100), TimeDelta::Millis(100),
                   DataRate::KilobitsPerSec(1'000));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);

  DataRate rate_inside = DataRate::Zero();
  DataRate rate_after = DataRate::Zero();
  fx.loop.ScheduleAt(Timestamp::Millis(150),
                     [&] { rate_inside = fx.link->current_rate(); });
  fx.loop.ScheduleAt(Timestamp::Millis(250),
                     [&] { rate_after = fx.link->current_rate(); });

  fx.SendAt(Timestamp::Millis(120), 0);  // inside: 9.6 ms serialization
  fx.SendAt(Timestamp::Millis(250), 1);  // after revert: ~1 ms again
  fx.loop.RunFor(TimeDelta::Millis(500));

  EXPECT_EQ(rate_inside, DataRate::KilobitsPerSec(1'000));
  EXPECT_EQ(rate_after, DataRate::KilobitsPerSec(10'000));
  EXPECT_EQ(fx.link->stats().renegotiations, 1);

  ASSERT_EQ(fx.arrivals.size(), 2u);
  // 120 ms + 9.6 ms + 10 ms propagation.
  EXPECT_GE(fx.arrivals[0].second, Timestamp::Micros(139'590));
  EXPECT_LE(fx.arrivals[0].second, Timestamp::Micros(139'610));
  // 250 ms + 0.96 ms + 10 ms.
  EXPECT_LE(fx.arrivals[1].second, Timestamp::Millis(262));
}

TEST(FaultSchedulerTest, RenegotiationOverridesHandoverRateWhileActive) {
  // A renegotiation window spanning a handover serializes at the
  // renegotiated rate, then falls back to the NEW cell's rate on revert.
  LinkFixture fx;
  FaultPlan plan;
  plan.Renegotiate(Timestamp::Millis(50), TimeDelta::Millis(200),
                   DataRate::KilobitsPerSec(500));
  plan.Handover(Timestamp::Millis(100), TimeDelta::Millis(20),
                DataRate::KilobitsPerSec(2'000), TimeDelta::Millis(10));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);

  DataRate rate_overlap = DataRate::Zero();
  DataRate rate_after = DataRate::Zero();
  fx.loop.ScheduleAt(Timestamp::Millis(150),
                     [&] { rate_overlap = fx.link->current_rate(); });
  fx.loop.ScheduleAt(Timestamp::Millis(300),
                     [&] { rate_after = fx.link->current_rate(); });
  fx.loop.RunFor(TimeDelta::Millis(400));

  EXPECT_EQ(rate_overlap, DataRate::KilobitsPerSec(500));
  EXPECT_EQ(rate_after, DataRate::KilobitsPerSec(2'000));
}

TEST(FaultSchedulerTest, FaultFreeLinkIsByteIdenticalWithHooksPresent) {
  // The fault RNG must not be consumed when no dup/reorder window is active:
  // a link with an (inactive) scheduler attached behaves identically to one
  // without.
  auto run = [](bool attach_scheduler) {
    LinkFixture fx;
    FaultPlan plan;
    plan.Outage(Timestamp::Seconds(100), TimeDelta::Seconds(1));  // never hit
    std::unique_ptr<FaultScheduler> scheduler;
    if (attach_scheduler) {
      scheduler = std::make_unique<FaultScheduler>(fx.loop, plan,
                                                   fx.link.get(), nullptr);
    }
    for (int i = 0; i < 50; ++i) {
      fx.SendAt(Timestamp::Millis(10 * i), i);
    }
    fx.loop.RunFor(TimeDelta::Seconds(2));
    return fx.arrivals;
  };
  const auto without = run(false);
  const auto with = run(true);
  ASSERT_EQ(without.size(), with.size());
  for (size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(without[i].first, with[i].first);
    EXPECT_EQ(without[i].second, with[i].second);
  }
}

// The fault.applied counter goes to whichever registry is installed when
// the fault fires: one scheduler, two registries in turn, each must count
// exactly the faults applied while it was installed.
TEST(FaultSchedulerTest, AppliedCounterFollowsInstalledRegistry) {
  LinkFixture fx;
  FaultPlan plan;
  plan.Outage(Timestamp::Millis(100), TimeDelta::Millis(50))
      .DelaySpike(Timestamp::Millis(200), TimeDelta::Millis(50),
                  TimeDelta::Millis(30))
      .Outage(Timestamp::Millis(600), TimeDelta::Millis(50))
      .DelaySpike(Timestamp::Millis(700), TimeDelta::Millis(50),
                  TimeDelta::Millis(30))
      .Outage(Timestamp::Millis(800), TimeDelta::Millis(50));
  FaultScheduler scheduler(fx.loop, plan, fx.link.get(), nullptr);
  auto applied = [](const obs::MetricsRegistry& registry) {
    const obs::RegistrySnapshot snap = registry.Snapshot();
    const obs::MetricSnapshot* m = snap.Find("fault.applied");
    return m != nullptr ? m->counter : 0u;
  };

  obs::MetricsRegistry first;
  {
    obs::MetricsScope scope(&first);
    fx.loop.RunUntil(Timestamp::Millis(500));
  }
  const int64_t first_applied = scheduler.stats().faults_applied;
  ASSERT_EQ(first_applied, 2);
  EXPECT_EQ(applied(first), static_cast<uint64_t>(first_applied));

  obs::MetricsRegistry second;
  {
    obs::MetricsScope scope(&second);
    fx.loop.RunUntil(Timestamp::Seconds(1));
  }
  const int64_t second_applied =
      scheduler.stats().faults_applied - first_applied;
  ASSERT_EQ(second_applied, 3);
  EXPECT_EQ(applied(second), static_cast<uint64_t>(second_applied));
  EXPECT_EQ(applied(first), static_cast<uint64_t>(first_applied));
}

}  // namespace
}  // namespace rave::fault
