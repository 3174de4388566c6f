#include "sim/event_loop.h"

#include <cassert>
#include <utility>

namespace rave {

void EventLoop::Reserve(size_t events) {
  heap_.reserve(events);
  slots_.reserve(events);
  free_slots_.reserve(events);
}

EventHandle EventLoop::Schedule(TimeDelta delay, Callback fn) {
  if (delay < TimeDelta::Zero()) delay = TimeDelta::Zero();
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventHandle EventLoop::ScheduleAt(Timestamp at, Callback fn) {
  assert(fn);
  if (at < now_) at = now_;

  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    assert(slot < kSlotMask);
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  assert(next_seq_ < (1ull << 40));
  const uint64_t id = (next_seq_++ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.id = id;
  HeapPush(Event{at, id});
  ++live_count_;
  return EventHandle(id);
}

void EventLoop::Cancel(EventHandle handle) {
  if (!handle.valid()) return;
  const uint32_t slot = static_cast<uint32_t>(handle.id_ & kSlotMask);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // Stale id => the event already ran or was cancelled (and the slot
  // possibly reused by a newer event, which must survive).
  if (s.id != handle.id_) return;
  // Destroy the captured state now; the heap entry becomes a tombstone
  // whose slot is reclaimed when it surfaces.
  s.fn = Callback();
  s.id = 0;
  --live_count_;
}

void EventLoop::HeapPush(const Event& e) {
  size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventLoop::PopTop() {
  const Event last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) return;
  // Sift `last` down from the root, early-exiting as soon as it is no later
  // than every child of the current hole.
  size_t i = 0;
  for (;;) {
    const size_t first = 4 * i + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t end = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < end; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventLoop::DropDeadTop() {
  while (!heap_.empty()) {
    const uint64_t id = heap_.front().id;
    const uint32_t slot = static_cast<uint32_t>(id & kSlotMask);
    if (slots_[slot].id == id) return;
    PopTop();  // cancelled tombstone
    free_slots_.push_back(slot);
  }
}

Timestamp EventLoop::NextEventTime() {
  DropDeadTop();
  return heap_.empty() ? Timestamp::PlusInfinity() : heap_.front().at;
}

bool EventLoop::PopAndRunNext(Timestamp until) {
  DropDeadTop();
  if (heap_.empty()) return false;
  const Event top = heap_.front();
  if (top.at > until) return false;
  PopTop();
  const uint32_t slot = static_cast<uint32_t>(top.id & kSlotMask);
  // Move the callback out before releasing: it may re-schedule (growing
  // slots_) or cancel, and must be able to reuse this slot.
  Callback fn = std::move(slots_[slot].fn);
  slots_[slot].id = 0;
  free_slots_.push_back(slot);
  --live_count_;
  now_ = top.at;
  ++events_executed_;
  fn();
  return true;
}

void EventLoop::RunUntil(Timestamp until) {
  while (PopAndRunNext(until)) {
    if (pause_requested_) {
      // Return without the trailing now_ advance: time must stay at the
      // paused event so the resuming RunUntil continues the exact sequence.
      pause_requested_ = false;
      return;
    }
  }
  if (until > now_ && until.IsFinite()) now_ = until;
}

void EventLoop::RunAll() { RunUntil(Timestamp::PlusInfinity()); }

RepeatingTask::RepeatingTask(EventLoop& loop, TimeDelta period,
                             EventLoop::Callback fn)
    : loop_(loop), period_(period), fn_(std::move(fn)) {
  assert(period_ > TimeDelta::Zero());
  assert(fn_);
}

RepeatingTask::~RepeatingTask() { Stop(); }

void RepeatingTask::Start() { StartWithDelay(period_); }

void RepeatingTask::StartWithDelay(TimeDelta initial_delay) {
  Stop();
  running_ = true;
  pending_ = loop_.Schedule(initial_delay, [this] { Fire(); });
}

void RepeatingTask::Stop() {
  if (running_) {
    loop_.Cancel(pending_);
    running_ = false;
  }
}

void RepeatingTask::Fire() {
  if (!running_) return;
  pending_ = loop_.Schedule(period_, [this] { Fire(); });
  fn_();
}

}  // namespace rave
