// Paced sender, modelled on WebRTC's PacedSender: media packets queue here
// and leave at the pacing rate (a small multiple of the target bitrate), so
// a large frame does not burst into the network. The queue depth is the
// sender-side component of end-to-end latency and the key signal the
// adaptive controller reads ("how much of what I already encoded has not
// even left the host yet").
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "util/inline_function.h"
#include "util/ring_deque.h"
#include "util/time.h"
#include "util/units.h"

namespace rave::transport {

/// Token-style pacer draining a FIFO of packets at SetPacingRate().
class Pacer {
 public:
  struct Config {
    DataRate initial_rate = DataRate::KilobitsPerSec(1650);
    /// Burst window: after idle the pacer may send this much time's worth of
    /// data back-to-back (WebRTC default 40 ms).
    TimeDelta burst = TimeDelta::Millis(40);
  };

  using SendCallback = InlineFunction<void(net::Packet&&)>;

  Pacer(EventLoop& loop, const Config& config, SendCallback send);

  Pacer(const Pacer&) = delete;
  Pacer& operator=(const Pacer&) = delete;

  /// Queues packets for paced transmission, draining (but not deallocating)
  /// the caller's vector so its capacity is reused for the next frame.
  void Enqueue(std::vector<net::Packet>& packets);

  /// Queues a high-priority packet at the head of the queue (used for
  /// retransmissions, which must not wait behind fresh media).
  void EnqueueFront(net::Packet packet);

  /// Updates the drain rate (congestion controller output * pacing factor).
  void SetPacingRate(DataRate rate);
  DataRate pacing_rate() const { return rate_; }

  /// Bits currently queued.
  DataSize queue_size() const { return queued_; }
  size_t queue_packets() const { return queue_.size(); }
  /// Time to drain the current queue at the current pacing rate.
  TimeDelta ExpectedQueueTime() const;

  int64_t packets_sent() const { return packets_sent_; }

 private:
  /// Sends whatever is already due at now() and (re-)arms the drain timer
  /// for the next send; runs after an enqueue, a rate change, or a timer
  /// wake.
  void MaybeSend();
  /// Drain-timer callback: the armed timer has fired, so MaybeSend arms a
  /// fresh one if packets remain.
  void OnTimer();

  EventLoop& loop_;
  SendCallback send_;
  DataRate rate_;
  TimeDelta burst_;

  RingDeque<net::Packet> queue_;
  DataSize queued_ = DataSize::Zero();
  Timestamp next_send_time_ = Timestamp::Zero();
  EventHandle pending_;
  bool timer_armed_ = false;
  Timestamp armed_for_ = Timestamp::Zero();
  int64_t packets_sent_ = 0;
};

}  // namespace rave::transport
