#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "util/alloc_probe.h"

namespace rave {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(TimeDelta::Millis(20), [&] { order.push_back(2); });
  loop.Schedule(TimeDelta::Millis(10), [&] { order.push_back(1); });
  loop.Schedule(TimeDelta::Millis(30), [&] { order.push_back(3); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.events_executed(), 3u);
}

TEST(EventLoopTest, SameTimeEventsRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(TimeDelta::Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, NowAdvancesToEventTime) {
  EventLoop loop;
  Timestamp seen = Timestamp::Zero();
  loop.Schedule(TimeDelta::Millis(123), [&] { seen = loop.now(); });
  loop.RunAll();
  EXPECT_EQ(seen, Timestamp::Millis(123));
}

TEST(EventLoopTest, RunUntilStopsAtBoundaryInclusive) {
  EventLoop loop;
  int ran = 0;
  loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.Schedule(TimeDelta::Millis(20), [&] { ++ran; });
  loop.Schedule(TimeDelta::Millis(21), [&] { ++ran; });
  loop.RunUntil(Timestamp::Millis(20));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.now(), Timestamp::Millis(20));
  loop.RunAll();
  EXPECT_EQ(ran, 3);
}

TEST(EventLoopTest, RunForAdvancesClockEvenWithoutEvents) {
  EventLoop loop;
  loop.RunFor(TimeDelta::Seconds(5));
  EXPECT_EQ(loop.now(), Timestamp::Seconds(5));
}

TEST(EventLoopTest, ReentrantScheduling) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(TimeDelta::Millis(10), [&] {
    order.push_back(1);
    loop.Schedule(TimeDelta::Millis(5), [&] { order.push_back(2); });
  });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), Timestamp::Millis(15));
}

TEST(EventLoopTest, ZeroAndNegativeDelaysClampToNow) {
  EventLoop loop;
  loop.RunFor(TimeDelta::Millis(100));
  Timestamp seen = Timestamp::MinusInfinity();
  loop.Schedule(TimeDelta::Millis(-50), [&] { seen = loop.now(); });
  loop.RunAll();
  EXPECT_EQ(seen, Timestamp::Millis(100));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  int ran = 0;
  EventHandle handle = loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.Schedule(TimeDelta::Millis(20), [&] { ++ran; });
  loop.Cancel(handle);
  loop.RunAll();
  EXPECT_EQ(ran, 1);
}

TEST(EventLoopTest, CancelInertHandleIsNoop) {
  EventLoop loop;
  loop.Cancel(EventHandle{});
  int ran = 0;
  loop.Schedule(TimeDelta::Millis(1), [&] { ++ran; });
  loop.RunAll();
  EXPECT_EQ(ran, 1);
}

TEST(EventLoopTest, PendingCountExcludesCancelled) {
  EventLoop loop;
  EventHandle h = loop.Schedule(TimeDelta::Millis(10), [] {});
  loop.Schedule(TimeDelta::Millis(20), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.Cancel(h);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, CancelAfterExecutionIsNoop) {
  EventLoop loop;
  int ran = 0;
  EventHandle h = loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.RunAll();
  EXPECT_EQ(ran, 1);
  loop.Cancel(h);  // already ran; must not disturb later events
  loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  EXPECT_EQ(loop.pending(), 1u);
  loop.RunAll();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopTest, DoubleCancelIsNoop) {
  EventLoop loop;
  int ran = 0;
  EventHandle h = loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.Schedule(TimeDelta::Millis(20), [&] { ++ran; });
  loop.Cancel(h);
  loop.Cancel(h);
  loop.RunAll();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.events_executed(), 1u);
}

// Stress test and perf canary for the cancel path: 100k events with half of
// them cancelled must execute exactly the live half, in order. Before the
// O(1) tombstone lookup this was an O(pending x cancelled) scan per pop and
// took minutes; it now finishes in milliseconds.
TEST(EventLoopTest, ScheduleCancelStress100k) {
  constexpr int kEvents = 100'000;
  EventLoop loop;
  loop.Reserve(kEvents);
  std::vector<EventHandle> handles;
  handles.reserve(kEvents);
  int64_t executed_sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    // Spread fire times so the heap stays deep while cancelled tombstones
    // are interleaved with live events.
    handles.push_back(loop.Schedule(TimeDelta::Micros(1 + (i * 7919) % 5000),
                                    [&executed_sum, i] { executed_sum += i; }));
  }
  int64_t expected_sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 2 == 0) {
      loop.Cancel(handles[static_cast<size_t>(i)]);
    } else {
      expected_sum += i;
    }
  }
  EXPECT_EQ(loop.pending(), static_cast<size_t>(kEvents) / 2);
  loop.RunAll();
  EXPECT_EQ(loop.events_executed(), static_cast<uint64_t>(kEvents) / 2);
  EXPECT_EQ(executed_sum, expected_sum);
  EXPECT_EQ(loop.pending(), 0u);
}

// Cancelling mid-run from inside a callback must prevent the target from
// firing even when both events share a fire time.
TEST(EventLoopTest, CancelFromCallbackSameTime) {
  EventLoop loop;
  int ran = 0;
  EventHandle victim;
  loop.Schedule(TimeDelta::Millis(10), [&] { loop.Cancel(victim); });
  victim = loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.RunAll();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(loop.events_executed(), 1u);
}

TEST(RepeatingTaskTest, FiresAtPeriod) {
  EventLoop loop;
  int fired = 0;
  RepeatingTask task(loop, TimeDelta::Millis(100), [&] { ++fired; });
  task.Start();
  loop.RunFor(TimeDelta::Millis(1000));
  EXPECT_EQ(fired, 10);
}

TEST(RepeatingTaskTest, StartWithDelayZeroFiresImmediately) {
  EventLoop loop;
  std::vector<int64_t> fire_times_ms;
  RepeatingTask task(loop, TimeDelta::Millis(100),
                     [&] { fire_times_ms.push_back(loop.now().ms()); });
  task.StartWithDelay(TimeDelta::Zero());
  loop.RunFor(TimeDelta::Millis(250));
  EXPECT_EQ(fire_times_ms, (std::vector<int64_t>{0, 100, 200}));
}

TEST(RepeatingTaskTest, StopHaltsFiring) {
  EventLoop loop;
  int fired = 0;
  RepeatingTask task(loop, TimeDelta::Millis(10), [&] { ++fired; });
  task.Start();
  loop.RunFor(TimeDelta::Millis(35));
  task.Stop();
  loop.RunFor(TimeDelta::Millis(100));
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(task.running());
}

TEST(RepeatingTaskTest, StopFromWithinCallback) {
  EventLoop loop;
  int fired = 0;
  RepeatingTask task(loop, TimeDelta::Millis(10), [&] {
    ++fired;
    // Stop after the second firing; `task` must survive re-entrant Stop.
  });
  task.Start();
  RepeatingTask stopper(loop, TimeDelta::Millis(25), [&] { task.Stop(); });
  stopper.Start();
  loop.RunFor(TimeDelta::Millis(200));
  EXPECT_EQ(fired, 2);
}

TEST(RepeatingTaskTest, RestartResetsPhase) {
  EventLoop loop;
  int fired = 0;
  RepeatingTask task(loop, TimeDelta::Millis(100), [&] { ++fired; });
  task.Start();
  loop.RunFor(TimeDelta::Millis(150));  // fired once at 100
  task.Start();                         // re-phase: next at 250
  loop.RunFor(TimeDelta::Millis(120));  // now at 270
  EXPECT_EQ(fired, 2);
}

// --- generation-slot liveness table ---

TEST(EventLoopSlotTableTest, StaleHandleCannotCancelSlotReusedByNewEvent) {
  EventLoop loop;
  bool first_fired = false;
  bool second_fired = false;
  EventHandle first =
      loop.Schedule(TimeDelta::Millis(10), [&] { first_fired = true; });
  loop.Cancel(first);  // releases the slot; `first` is now stale
  // The freed slot is reused (LIFO free list) by the next schedule.
  loop.Schedule(TimeDelta::Millis(20), [&] { second_fired = true; });
  loop.Cancel(first);  // stale generation: must NOT kill the new event
  loop.RunAll();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
}

TEST(EventLoopSlotTableTest, HandleStaysStaleAcrossManySlotReuses) {
  EventLoop loop;
  EventHandle stale = loop.Schedule(TimeDelta::Millis(1), [] {});
  loop.Cancel(stale);
  int fired = 0;
  // Recycle the same slot many times; the stale handle must never match any
  // of the new generations.
  for (int i = 0; i < 1000; ++i) {
    loop.Schedule(TimeDelta::Millis(1), [&fired] { ++fired; });
    loop.Cancel(stale);
    loop.RunFor(TimeDelta::Millis(2));
  }
  EXPECT_EQ(fired, 1000);
}

TEST(EventLoopSlotTableTest, CancelAfterFireWithReusedSlotIsNoop) {
  EventLoop loop;
  int fired = 0;
  EventHandle ran =
      loop.Schedule(TimeDelta::Millis(1), [&fired] { ++fired; });
  loop.RunFor(TimeDelta::Millis(5));
  EXPECT_EQ(fired, 1);
  // The fired event's slot is free; a new event takes it.
  loop.Schedule(TimeDelta::Millis(1), [&fired] { ++fired; });
  loop.Cancel(ran);  // refers to the already-fired event, not the new one
  loop.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopSlotTableTest, PendingCountsLiveEventsNotTombstones) {
  EventLoop loop;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(loop.Schedule(TimeDelta::Millis(i + 1), [] {}));
  }
  EXPECT_EQ(loop.pending(), 10u);
  for (int i = 0; i < 10; i += 2) loop.Cancel(handles[static_cast<size_t>(i)]);
  // Tombstones still sit in the heap, but pending() reflects liveness.
  EXPECT_EQ(loop.pending(), 5u);
  loop.RunAll();
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopSlotTableTest, ReserveKeepsScheduleCancelAllocationFree) {
  EventLoop loop;
  loop.Reserve(256);
  // Warm once: the first firings may lazily touch nothing, but keep the
  // pattern identical to the measured pass.
  for (int i = 0; i < 256; ++i) {
    loop.Cancel(loop.Schedule(TimeDelta::Millis(1), [] {}));
  }
  loop.RunFor(TimeDelta::Millis(2));
  AllocScope scope;
  for (int i = 0; i < 256; ++i) {
    loop.Cancel(loop.Schedule(TimeDelta::Millis(1), [] {}));
  }
  loop.RunFor(TimeDelta::Millis(2));
  if (AllocProbeEnabled()) {
    EXPECT_EQ(scope.allocs(), 0u);
  }
}

TEST(EventLoopSlotTableTest, CallbackResourcesReleasedOnCancel) {
  EventLoop loop;
  auto tracked = std::make_shared<int>(1);
  std::weak_ptr<int> watch = tracked;
  EventHandle h =
      loop.Schedule(TimeDelta::Millis(5), [keep = std::move(tracked)] {});
  ASSERT_FALSE(watch.expired());
  loop.Cancel(h);
  // Cancellation releases the captured state immediately, without waiting
  // for the tombstone to surface from the heap.
  EXPECT_TRUE(watch.expired());
}

// --- ordering across horizons ---
//
// Delays span sub-ms, seconds, and beyond 16.8 s (2^24 µs). These tests pin
// the observable contract — exact peek times and strict (fire time, seq)
// order — at every horizon.

TEST(EventLoopOrderTest, OrderPreservedAcrossAllHorizons) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(TimeDelta::Seconds(20), [&] { order.push_back(5); });
  loop.Schedule(TimeDelta::Micros(100), [&] { order.push_back(1); });
  loop.Schedule(TimeDelta::Seconds(1), [&] { order.push_back(3); });
  loop.Schedule(TimeDelta::Millis(5), [&] { order.push_back(2); });
  loop.Schedule(TimeDelta::Seconds(2), [&] { order.push_back(4); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.now(), Timestamp::Seconds(20));
}

TEST(EventLoopOrderTest, SameTimeTiesRunInScheduleOrderFarOut) {
  EventLoop loop;
  std::vector<int> order;
  // All fire at the same instant, far out: scheduling order breaks the tie.
  for (int i = 0; i < 8; ++i) {
    loop.Schedule(TimeDelta::Seconds(18), [&order, i] { order.push_back(i); });
  }
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventLoopOrderTest, NextEventTimeIsExactAtEveryHorizon) {
  EventLoop loop;
  EXPECT_EQ(loop.NextEventTime(), Timestamp::PlusInfinity());

  loop.Schedule(TimeDelta::Seconds(19) + TimeDelta::Micros(7), [] {});
  EXPECT_EQ(loop.NextEventTime(),
            Timestamp::Seconds(19) + TimeDelta::Micros(7));

  loop.Schedule(TimeDelta::Millis(900) + TimeDelta::Micros(3), [] {});
  EXPECT_EQ(loop.NextEventTime(),
            Timestamp::Millis(900) + TimeDelta::Micros(3));

  loop.Schedule(TimeDelta::Micros(250), [] {});
  EXPECT_EQ(loop.NextEventTime(), Timestamp::Micros(250));
  loop.RunAll();
  EXPECT_EQ(loop.NextEventTime(), Timestamp::PlusInfinity());
}

TEST(EventLoopOrderTest, CancelledEventsNeverFireAtAnyHorizon) {
  EventLoop loop;
  int fired = 0;
  EventHandle near = loop.Schedule(TimeDelta::Millis(500), [&] { ++fired; });
  EventHandle far = loop.Schedule(TimeDelta::Seconds(19), [&] { ++fired; });
  loop.Schedule(TimeDelta::Seconds(19), [&] { ++fired; });  // survivor
  loop.Cancel(near);
  loop.Cancel(far);
  EXPECT_EQ(loop.pending(), 1u);
  loop.RunAll();
  EXPECT_EQ(fired, 1);
}

// --- reference model ---
//
// A seeded random mix of Schedule/ScheduleAt, Cancel (from outside and from
// inside callbacks, including stale handles), re-entrant scheduling and
// RunUntil bounds, checked event by event against a std::set ordered by
// (fire time, scheduling order). Delays run from 0 µs to 30 s, with many
// equal-µs ties and times around 4096 µs and 2^24 µs (≈16.8 s), the block
// and horizon sizes of earlier timing-wheel designs.

class ModelRunner {
 public:
  explicit ModelRunner(uint64_t seed) : rng_(seed) {}

  void Run(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      const int schedules = Uniform(0, 24);
      for (int i = 0; i < schedules; ++i) ScheduleRandom();
      if (Uniform(0, 3) == 0) CancelRandom();
      if (Uniform(0, 7) == 0) CancelStale();
      RunTo(loop_.now() + RandomDelay());
      if (::testing::Test::HasFailure()) return;
    }
    // Drain: callbacks stop scheduling, so the run ends.
    draining_ = true;
    RunTo(Timestamp::PlusInfinity());
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(loop_.pending(), 0u);
  }

  uint64_t fired() const { return fired_; }

 private:
  using Key = std::pair<int64_t, uint64_t>;  // (fire time µs, schedule seq)

  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  TimeDelta RandomDelay() {
    constexpr int64_t kBlockUs = int64_t{1} << 12;
    constexpr int64_t kHorizonUs = int64_t{1} << 24;
    switch (Uniform(0, 9)) {
      case 0:
        return TimeDelta::Zero();
      case 1:
      case 2:
        return TimeDelta::Micros(Uniform(0, 8));
      case 3:  // around one or a few 4096 µs blocks
        return TimeDelta::Micros(kBlockUs * Uniform(1, 3) + Uniform(-3, 3));
      case 4:  // around the ≈16.8 s horizon
        return TimeDelta::Micros(kHorizonUs + Uniform(-3, 3));
      case 5:  // 0..30 s
        return TimeDelta::Micros(
            std::uniform_int_distribution<int64_t>(0, 30'000'000)(rng_));
      default:  // packet and frame cadences
        return TimeDelta::Micros(Uniform(0, 40'000));
    }
  }

  // Absolute times: a shared grid (many equal-µs ties), block and horizon
  // boundaries, and times in the past (clamped to now()).
  Timestamp RandomTime() {
    const int64_t now = loop_.now().us();
    switch (Uniform(0, 3)) {
      case 0:
        return Timestamp::Micros(now - Uniform(0, 1000));
      case 1: {
        const int64_t grid = 1000;
        return Timestamp::Micros((now / grid + Uniform(0, 4)) * grid);
      }
      case 2: {
        const int64_t block = int64_t{1} << 12;
        return Timestamp::Micros((now / block + Uniform(1, 2)) * block +
                                 Uniform(-2, 2));
      }
      default: {
        const int64_t horizon = int64_t{1} << 24;
        return Timestamp::Micros((now / horizon + 1) * horizon +
                                 Uniform(-2, 2));
      }
    }
  }

  void ScheduleRandom() {
    if (model_.size() >= 300) return;
    const uint64_t seq = next_seq_++;
    auto fn = [this, seq] { OnFire(seq); };
    EventHandle handle;
    Timestamp at;
    if (Uniform(0, 2) == 0) {
      at = std::max(RandomTime(), loop_.now());
      handle = loop_.ScheduleAt(at, fn);
    } else {
      const TimeDelta delay = RandomDelay();
      at = loop_.now() + delay;
      handle = loop_.Schedule(delay, fn);
    }
    model_.insert({at.us(), seq});
    live_[seq] = {handle, at.us()};
  }

  void CancelRandom() {
    if (live_.empty()) return;
    auto it = live_.begin();
    std::advance(it, Uniform(0, static_cast<int>(live_.size()) - 1));
    loop_.Cancel(it->second.handle);
    model_.erase({it->second.at_us, it->first});
    stale_.push_back(it->second.handle);
    live_.erase(it);
  }

  void CancelStale() {
    if (stale_.empty()) return;
    loop_.Cancel(stale_[static_cast<size_t>(
        Uniform(0, static_cast<int>(stale_.size()) - 1))]);
  }

  void OnFire(uint64_t seq) {
    ++fired_;
    ASSERT_FALSE(model_.empty()) << "event " << seq << " fired unscheduled";
    const Key expected = *model_.begin();
    ASSERT_EQ(seq, expected.second) << "out of order at " << expected.first;
    ASSERT_EQ(loop_.now(), Timestamp::Micros(expected.first));
    ASSERT_LE(expected.first, bound_us_);
    model_.erase(model_.begin());
    stale_.push_back(live_[seq].handle);
    live_.erase(seq);
    // Re-entrant work: schedule (zero delays land at now(), behind every
    // event already pending at now()) and cancel, possibly a same-time
    // event that would otherwise fire next.
    const int schedules = draining_ ? 0 : std::max(0, Uniform(-2, 2));
    for (int i = 0; i < schedules; ++i) ScheduleRandom();
    if (Uniform(0, 4) == 0) CancelRandom();
    if (Uniform(0, 9) == 0) CancelStale();
  }

  void RunTo(Timestamp until) {
    const Timestamp before = loop_.now();
    bound_us_ = until.IsFinite() ? until.us()
                                 : std::numeric_limits<int64_t>::max();
    loop_.RunUntil(until);
    // Everything up to the bound ran; the clock sits on the bound.
    if (!model_.empty()) {
      EXPECT_GT(model_.begin()->first, bound_us_);
      EXPECT_EQ(loop_.NextEventTime(), Timestamp::Micros(model_.begin()->first));
    } else {
      EXPECT_EQ(loop_.NextEventTime(), Timestamp::PlusInfinity());
    }
    if (until.IsFinite()) {
      EXPECT_EQ(loop_.now(), std::max(until, before));
    }
    EXPECT_EQ(loop_.pending(), model_.size());
  }

  struct Live {
    EventHandle handle;
    int64_t at_us;
  };

  std::mt19937_64 rng_;
  EventLoop loop_;
  std::set<Key> model_;
  std::map<uint64_t, Live> live_;
  std::vector<EventHandle> stale_;
  uint64_t next_seq_ = 1;
  uint64_t fired_ = 0;
  int64_t bound_us_ = 0;
  bool draining_ = false;
};

TEST(EventLoopModelTest, MatchesOrderedSetModel) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    ModelRunner runner(seed);
    runner.Run(3000);
    EXPECT_GT(runner.fired(), 10000u);
  }
}

}  // namespace
}  // namespace rave
