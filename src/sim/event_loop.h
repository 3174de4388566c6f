// Deterministic discrete-event simulation core.
//
// Every component in the RTC pipeline (pacer, link, feedback path, encoder
// cadence) schedules callbacks on a single `EventLoop`. Events with equal
// fire times execute in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes whole-session runs bit-for-bit
// reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "util/inline_function.h"
#include "util/time.h"

namespace rave {

/// Handle used to cancel a scheduled event. Default-constructed handles are
/// inert. The 64-bit id encodes (sequence number << 24 | slot index) into
/// the loop's slot table; the sequence number is globally unique, so it acts
/// as the slot's generation stamp — a stale handle (its event already ran or
/// was cancelled, and the slot was reused) can never cancel a newer event.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class EventLoop;
  explicit EventHandle(uint64_t id) : id_(id) {}
  uint64_t id_ = 0;
};

/// Single-threaded discrete-event loop with µs resolution.
///
/// Allocation-free in steady state: callbacks live in fixed inline storage
/// (`Callback`, an InlineFunction — oversized captures fail to compile) inside
/// a reusable slot table, and liveness is an id stamp on the slot — Schedule,
/// Cancel and the cancelled-event check on pop are two array reads with no
/// hashing and no heap traffic.
///
/// The pending set is one implicit 4-ary min-heap of 16-byte (fire time, id)
/// entries; the callbacks stay in the slot table. Sessions keep few events
/// pending — sampled at every dispatch, perfbench's 216-session sweep holds
/// 8.8 on average and 17 at most, the full suite 12.4 and 89 — so the heap
/// is usually three levels deep, its entries fit in a few cache lines, and
/// a push or pop is a handful of comparisons. Cancelled events destroy their callback immediately and
/// leave a tombstone in the heap, reclaimed when it surfaces.
///
/// Capacity limits (asserted in debug builds): at most 2^24 - 1 events
/// pending at once, at most 2^40 events scheduled over the loop's lifetime.
class EventLoop {
 public:
  /// Inline storage budget for event closures. Sized for the largest hot
  /// closure in the pipeline — `this` plus a 72-byte net::Packet captured by
  /// value in the link delivery path (80 bytes) — with one word of headroom.
  /// Anything bigger must capture by pointer/reference or shrink.
  static constexpr size_t kCallbackCapacity = 88;
  using Callback = InlineFunction<void(), kCallbackCapacity>;

  EventLoop() = default;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulation time. Starts at Timestamp::Zero().
  Timestamp now() const { return now_; }

  /// Pre-allocates capacity for `events` concurrently pending events in
  /// every internal structure: the event heap AND the liveness slot table
  /// (slots + free list). After Reserve(n), a loop whose pending population
  /// never exceeds n performs no allocations — Schedule/Cancel/pop are
  /// guaranteed heap-traffic-free.
  void Reserve(size_t events);

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to zero
  /// (the event still runs strictly after the current callback returns).
  EventHandle Schedule(TimeDelta delay, Callback fn);

  /// Schedules `fn` at an absolute time; times in the past clamp to `now()`.
  EventHandle ScheduleAt(Timestamp at, Callback fn);

  /// Cancels a pending event. No-op if the event already ran or the handle is
  /// inert or stale.
  void Cancel(EventHandle handle);

  /// Runs until the queue drains or simulation time reaches `until`
  /// (inclusive: events at exactly `until` run).
  void RunUntil(Timestamp until);

  /// Runs for `duration` from the current time.
  void RunFor(TimeDelta duration) { RunUntil(now_ + duration); }

  /// Runs until the queue is fully drained. Intended for tests; production
  /// sessions always bound the run time.
  void RunAll();

  /// Fire time of the earliest pending event, or PlusInfinity when the queue
  /// is empty. Pops any cancelled tombstones encountered at the front (slot
  /// reclamation order is unobservable, so peeking never changes results).
  Timestamp NextEventTime();

  /// Number of events executed so far (part of SessionResult).
  uint64_t events_executed() const { return events_executed_; }
  /// Number of events currently pending.
  size_t pending() const { return live_count_; }

 private:
  /// Heap entry: trivially copyable, 16 bytes — four children share one
  /// cache line. The callback lives in the slot table, not the heap. `id`
  /// packs the monotone sequence number into the high 40 bits and the slot
  /// index into the low 24, so comparing ids compares scheduling order
  /// directly.
  struct Event {
    Timestamp at;
    uint64_t id;
  };
  /// Strict total order: earlier fire time first, scheduling order breaking
  /// ties. Because the order is total, the pop sequence is identical for any
  /// correct priority queue — the 4-ary layout is purely a cache choice.
  static bool Earlier(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.id < b.id;
  }
  /// Slot-table entry. `id` is the packed id of the current occupant, 0 when
  /// the slot is free or cancelled. Since the sequence half of the id is
  /// globally unique, an id mismatch identifies both stale handles and
  /// tombstones — no per-slot generation counter (or wrap concern) is
  /// needed.
  struct Slot {
    Callback fn;
    uint64_t id = 0;
  };

  static constexpr uint64_t kSlotMask = 0xFFFFFFull;
  static constexpr int kSlotBits = 24;

  bool PopAndRunNext(Timestamp until);
  /// Pops cancelled tombstones off the heap top, reclaiming their slots, so
  /// the top (if any) is a live event.
  void DropDeadTop();
  /// Sift-up insertion.
  void HeapPush(const Event& e);
  /// Removes the heap top.
  void PopTop();

  Timestamp now_ = Timestamp::Zero();
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  size_t live_count_ = 0;
  /// Implicit 4-ary min-heap on (at, id): root at 0, children of i at
  /// 4i+1..4i+4.
  std::vector<Event> heap_;
  /// Callback slots addressed by the low 24 handle bits, stamped with the
  /// occupant's id.
  std::vector<Slot> slots_;
  /// Released slot indices available for reuse (LIFO).
  std::vector<uint32_t> free_slots_;
};

/// Re-schedules a callback at a fixed period until stopped. The first firing
/// is one period after `Start()` (or at an explicit phase offset).
class RepeatingTask {
 public:
  /// Creates a task bound to `loop` firing every `period`, invoking `fn`.
  RepeatingTask(EventLoop& loop, TimeDelta period, EventLoop::Callback fn);
  ~RepeatingTask();

  RepeatingTask(const RepeatingTask&) = delete;
  RepeatingTask& operator=(const RepeatingTask&) = delete;

  /// Begins firing. `initial_delay` defaults to one period.
  void Start();
  void StartWithDelay(TimeDelta initial_delay);
  /// Stops future firings; safe to call from within the callback.
  void Stop();

  bool running() const { return running_; }

 private:
  void Fire();

  EventLoop& loop_;
  TimeDelta period_;
  EventLoop::Callback fn_;
  bool running_ = false;
  EventHandle pending_;
};

}  // namespace rave
