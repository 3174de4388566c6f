#include "net/link.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics_registry.h"
#include "obs/stage_timer.h"
#include "obs/trace.h"

namespace rave::net {

Link::Link(EventLoop& loop, Config config, DeliveryCallback on_delivery)
    : loop_(loop),
      config_(std::move(config)),
      on_delivery_(std::move(on_delivery)),
      trace_cursor_(*config_.trace),
      current_rate_(trace_cursor_.RateAt(Timestamp::Zero())),
      loss_rng_(config_.loss.seed),
      gilbert_(config_.loss.gilbert, Rng(config_.loss.seed ^ 0x5A5A)),
      base_propagation_(config_.propagation),
      fault_rng_(config_.loss.seed ^ 0xFA17'FA17ULL) {
  assert(on_delivery_);
  arrivals_.reserve(64);
  gilbert_next_step_ = Timestamp::Zero() + config_.loss.gilbert_step;
  // Register a callback at every capacity change point so the in-flight
  // packet's completion can be re-computed exactly.
  for (const CapacityTrace::Step& step : config_.trace->steps()) {
    if (step.start > Timestamp::Zero()) {
      loop_.ScheduleAt(step.start, [this] { OnRateChange(); });
    }
  }
}

void Link::Send(Packet packet) {
  if (packet.send_time.IsMinusInfinity()) packet.send_time = loop_.now();
  if (queued_ + packet.size > config_.queue_capacity) {
    ++stats_.packets_dropped;
    stats_.bytes_dropped += packet.size;
    if (obs::MetricsRegistry* reg = obs::CurrentMetrics()) {
      reg->GetCounter("net.tail_drops")->Add();
    }
    return;
  }
  queued_ += packet.size;
  queue_.push_back(std::move(packet));
  RAVE_TRACE_COUNTER(kLinkQueueMs, loop_.now(), QueueDelay().ms_float());
  if (!in_flight_) StartNext();
}

void Link::StartNext() {
  assert(!in_flight_);
  if (outage_ || queue_.empty()) return;
  in_flight_ = std::move(queue_.front());
  queue_.pop_front();
  queued_ -= in_flight_->size;
  remaining_bits_ = static_cast<double>(in_flight_->size.bits());
  segment_start_ = loop_.now();
  const TimeDelta tx_time = TimeDelta::SecondsF(
      remaining_bits_ / static_cast<double>(current_rate_.bps()));
  completion_ = loop_.Schedule(tx_time, [this] { OnTransmitComplete(); });
}

void Link::OnTransmitComplete() {
  const obs::StageTimer::Scope timer(obs::StageTimer::kLink);
  for (;;) {
    assert(in_flight_);
    const Packet packet = *in_flight_;
    in_flight_.reset();
    remaining_bits_ = 0.0;

    // Non-congestive loss (corruption): the packet consumed link capacity
    // but never reaches the receiver.
    double loss_p = config_.loss.random_loss;
    if (config_.loss.gilbert_enabled) {
      AdvanceGilbert(loop_.now());
      if (gilbert_.bad()) {
        loss_p = std::max(loss_p, config_.loss.gilbert_bad_loss);
      }
    }
    // p=0 and p=1 are certainties: no RNG draw, so they are byte-identical
    // to a disabled model / an outage respectively.
    const bool lost =
        loss_p >= 1.0 || (loss_p > 0.0 && loss_rng_.Bernoulli(loss_p));
    if (lost) {
      ++stats_.packets_lost_random;
    } else {
      ++stats_.packets_delivered;
      stats_.bytes_delivered += packet.size;
      Deliver(packet);
    }

    // Inline StartNext: arm the next completion exactly where StartNext
    // does, preserving the invariant the outage/handover hooks rely on. A
    // sub-µs serialization completes at now(), so it is processed inline.
    if (outage_ || queue_.empty()) return;
    in_flight_ = std::move(queue_.front());
    queue_.pop_front();
    queued_ -= in_flight_->size;
    remaining_bits_ = static_cast<double>(in_flight_->size.bits());
    segment_start_ = loop_.now();
    const TimeDelta tx_time = TimeDelta::SecondsF(
        remaining_bits_ / static_cast<double>(current_rate_.bps()));
    const Timestamp done = loop_.now() + tx_time;
    if (done > loop_.now()) {
      completion_ = loop_.ScheduleAt(done, [this] { OnTransmitComplete(); });
      return;
    }
  }
}

void Link::AdvanceGilbert(Timestamp now) {
  const TimeDelta step = config_.loss.gilbert_step;
  if (step <= TimeDelta::Zero()) return;
  // One transition per elapsed `gilbert_step`, so bad-state dwell depends
  // only on sim time — not on how many packets happened to be delivered.
  while (gilbert_next_step_ <= now) {
    gilbert_.Step();
    gilbert_next_step_ += step;
  }
}

void Link::Deliver(const Packet& packet) {
  TimeDelta propagation = base_propagation_ + extra_propagation_;
  bool reordered = false;
  if (reorder_probability_ > 0.0 &&
      fault_rng_.Bernoulli(reorder_probability_)) {
    // Held back: later packets overtake it. Bypasses the in-order clamp by
    // design — that is the fault being injected.
    propagation += TimeDelta::SecondsF(
        fault_rng_.Uniform(0.0, reorder_max_extra_.seconds()));
    reordered = true;
    ++stats_.packets_reordered;
  }

  Timestamp arrival = loop_.now() + propagation;
  if (!reordered) {
    // A delay spike that later clears must not let newer packets arrive
    // before older ones already in flight.
    if (arrival <= last_inorder_arrival_) {
      arrival = last_inorder_arrival_ + TimeDelta::Micros(1);
    }
    last_inorder_arrival_ = arrival;
    // In-order deliveries share one drain event: arrival times are strictly
    // increasing, so the armed timer always covers the front entry and new
    // entries queue behind it.
    arrivals_.push_back({packet, arrival});
    if (!arrival_armed_) {
      arrival_armed_ = true;
      loop_.ScheduleAt(arrival, [this] { OnArrivalTimer(); });
    }
  } else {
    // Reordered: its own event, outside the in-order queue by design.
    loop_.ScheduleAt(arrival,
                     [this, packet] { on_delivery_(packet, loop_.now()); });
  }

  if (dup_probability_ > 0.0 && fault_rng_.Bernoulli(dup_probability_)) {
    ++stats_.packets_duplicated;
    const TimeDelta dup_extra =
        TimeDelta::SecondsF(fault_rng_.Uniform(0.0005, 0.005));
    loop_.ScheduleAt(arrival + dup_extra,
                     [this, packet] { on_delivery_(packet, loop_.now()); });
  }
}

void Link::OnArrivalTimer() {
  arrival_armed_ = false;
  while (!arrivals_.empty() && arrivals_.front().at <= loop_.now()) {
    // Pop before delivering: the callback may feed packets back into the
    // session pipeline and must see a consistent queue.
    PendingArrival a = std::move(arrivals_.front());
    arrivals_.pop_front();
    on_delivery_(a.packet, a.at);
  }
  if (arrivals_.empty()) return;
  arrival_armed_ = true;
  loop_.ScheduleAt(arrivals_.front().at, [this] { OnArrivalTimer(); });
}

void Link::SetOutage(bool on) {
  if (on == outage_) return;
  outage_ = on;
  if (on) {
    ++stats_.outages;
    if (in_flight_) {
      // Freeze the in-flight packet: account bits already serialized, then
      // park the remainder until the outage clears.
      const double sent = static_cast<double>(current_rate_.bps()) *
                          (loop_.now() - segment_start_).seconds();
      remaining_bits_ = std::max(0.0, remaining_bits_ - sent);
      loop_.Cancel(completion_);
    }
    return;
  }
  if (in_flight_) {
    segment_start_ = loop_.now();
    const TimeDelta tx_time = TimeDelta::SecondsF(
        remaining_bits_ / static_cast<double>(current_rate_.bps()));
    completion_ = loop_.Schedule(tx_time, [this] { OnTransmitComplete(); });
  } else {
    StartNext();
  }
}

void Link::SetExtraPropagation(TimeDelta extra) { extra_propagation_ = extra; }

void Link::SetDuplication(double probability) {
  dup_probability_ = probability;
}

void Link::SetReordering(double probability, TimeDelta max_extra) {
  reorder_probability_ = probability;
  reorder_max_extra_ = max_extra;
}

void Link::OnRateChange() { ApplyEffectiveRate(); }

void Link::ApplyEffectiveRate() {
  const DataRate new_rate =
      reneg_rate_ ? *reneg_rate_
                  : (handover_rate_ ? *handover_rate_
                                    : trace_cursor_.RateAt(loop_.now()));
  // During an outage nothing is serializing: remaining_bits_ is frozen and
  // there is no completion event to re-schedule.
  if (in_flight_ && !outage_) {
    // Account for bits sent at the old rate since the segment began.
    const double sent = static_cast<double>(current_rate_.bps()) *
                        (loop_.now() - segment_start_).seconds();
    remaining_bits_ = std::max(0.0, remaining_bits_ - sent);
    loop_.Cancel(completion_);
    segment_start_ = loop_.now();
    const TimeDelta tx_time = TimeDelta::SecondsF(
        remaining_bits_ / static_cast<double>(new_rate.bps()));
    completion_ = loop_.Schedule(tx_time, [this] { OnTransmitComplete(); });
  }
  current_rate_ = new_rate;
}

void Link::Handover(DataRate rate, TimeDelta propagation,
                    const std::optional<LossModel>& loss) {
  ++stats_.handovers;
  handover_rate_ = rate;
  base_propagation_ = propagation;
  if (loss) {
    // The new cell has its own radio environment: swap the loss model and
    // reseed its RNGs deterministically from the model's seed. The fault
    // RNG (dup/reorder) is untouched — those faults belong to the plan,
    // not the cell.
    config_.loss = *loss;
    loss_rng_ = Rng(loss->seed);
    gilbert_ = GilbertProcess(loss->gilbert, Rng(loss->seed ^ 0x5A5A));
    gilbert_next_step_ = loop_.now() + loss->gilbert_step;
  }
  ApplyEffectiveRate();
}

void Link::SetRateOverride(std::optional<DataRate> rate) {
  if (rate) ++stats_.renegotiations;
  reneg_rate_ = rate;
  ApplyEffectiveRate();
}

void Link::SetPropagation(TimeDelta propagation) {
  base_propagation_ = propagation;
}

DataSize Link::backlog() const {
  double in_flight_bits = 0.0;
  if (in_flight_) {
    if (outage_) {
      in_flight_bits = remaining_bits_;  // frozen while blacked out
    } else {
      const double sent = static_cast<double>(current_rate_.bps()) *
                          (loop_.now() - segment_start_).seconds();
      in_flight_bits = std::max(0.0, remaining_bits_ - sent);
    }
  }
  return queued_ + DataSize::Bits(static_cast<int64_t>(in_flight_bits));
}

TimeDelta Link::QueueDelay() const {
  return TimeDelta::SecondsF(static_cast<double>(backlog().bits()) /
                             static_cast<double>(current_rate_.bps()));
}

DelayPipe::DelayPipe(EventLoop& loop, TimeDelta delay, double loss_rate,
                     TimeDelta jitter, uint64_t seed)
    : loop_(loop),
      delay_(delay),
      loss_rate_(loss_rate),
      jitter_(jitter),
      rng_(seed) {}

void DelayPipe::Send(EventLoop::Callback deliver) {
  if (blackhole_) {
    ++blackholed_;
    return;
  }
  if (rng_.Bernoulli(loss_rate_)) {
    ++lost_;
    return;
  }
  TimeDelta extra = extra_delay_;
  if (jitter_ > TimeDelta::Zero()) {
    extra += TimeDelta::SecondsF(rng_.Uniform(0.0, jitter_.seconds()));
  }
  Timestamp at = loop_.now() + delay_ + extra;
  // Keep the channel in-order.
  if (at <= last_delivery_) at = last_delivery_ + TimeDelta::Micros(1);
  last_delivery_ = at;
  ++delivered_;
  loop_.ScheduleAt(at, std::move(deliver));
}

}  // namespace rave::net
