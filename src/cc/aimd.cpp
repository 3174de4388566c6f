#include "cc/aimd.h"

#include <algorithm>
#include <cmath>

#include "util/fastmath.h"

namespace rave::cc {

void LinkCapacityEstimator::Update(double sample_kbps, double alpha) {
  if (!estimate_) {
    estimate_ = sample_kbps;
  } else {
    *estimate_ = (1.0 - alpha) * *estimate_ + alpha * sample_kbps;
  }
  // Normalized variance tracking as in webrtc (scaled by estimate).
  const double error = *estimate_ - sample_kbps;
  const double norm = std::max(*estimate_, 1.0);
  deviation_kbps_ =
      (1.0 - alpha) * deviation_kbps_ + alpha * error * error / norm;
  deviation_kbps_ = std::clamp(deviation_kbps_, 0.4, 2.5);
}

void LinkCapacityEstimator::OnOveruseDetected(DataRate acked) {
  Update(acked.kbps(), 0.05);
}

void LinkCapacityEstimator::Reset() {
  estimate_.reset();
  deviation_kbps_ = 0.4;
}

DataRate LinkCapacityEstimator::estimate() const {
  return DataRate::KilobitsPerSecF(estimate_.value_or(0.0));
}

DataRate LinkCapacityEstimator::UpperBound() const {
  if (!estimate_) return DataRate::PlusInfinity();
  const double sigma = std::sqrt(deviation_kbps_ * *estimate_);
  return DataRate::KilobitsPerSecF(*estimate_ + 3.0 * sigma);
}

DataRate LinkCapacityEstimator::LowerBound() const {
  if (!estimate_) return DataRate::Zero();
  const double sigma = std::sqrt(deviation_kbps_ * *estimate_);
  return DataRate::KilobitsPerSecF(std::max(0.0, *estimate_ - 3.0 * sigma));
}

AimdRateControl::AimdRateControl() : AimdRateControl(Config{}) {}

AimdRateControl::AimdRateControl(const Config& config)
    : config_(config), current_(config.initial_rate) {}

void AimdRateControl::ChangeState(BandwidthUsage usage) {
  switch (usage) {
    case BandwidthUsage::kOverusing:
      state_ = State::kDecrease;
      break;
    case BandwidthUsage::kUnderusing:
      // The queue built during over-use is draining; hold until it empties.
      state_ = State::kHold;
      break;
    case BandwidthUsage::kNormal:
      if (state_ == State::kHold) state_ = State::kIncrease;
      break;
  }
}

DataRate AimdRateControl::AdditiveIncrease(TimeDelta rtt,
                                           TimeDelta since_last) const {
  // One average packet per response interval (rtt + 100 ms), as in webrtc.
  const TimeDelta response = rtt + TimeDelta::Millis(100);
  const double packets_per_frame =
      std::max(current_.bps() / 30.0 / (1200.0 * 8.0), 1.0);
  const double packet_bits = std::min(
      current_.bps() / 30.0 / packets_per_frame, 1200.0 * 8.0);
  const double increase_per_second =
      std::max(1000.0, packet_bits / response.seconds());
  return DataRate::BitsPerSec(
      static_cast<int64_t>(increase_per_second * since_last.seconds()));
}

DataRate AimdRateControl::Update(BandwidthUsage usage, DataRate acked,
                                 TimeDelta rtt, Timestamp now) {
  ChangeState(usage);
  last_update_decreased_ = false;

  const TimeDelta since_last = last_change_.IsMinusInfinity()
                                   ? TimeDelta::Millis(50)
                                   : std::min(now - last_change_,
                                              TimeDelta::Seconds(1));

  switch (state_) {
    case State::kHold:
      break;
    case State::kDecrease: {
      // Decrease toward beta * measured throughput, but never below it:
      // once the target is at/below what the network demonstrably delivers,
      // further over-use signals reflect the still-draining queue, not a
      // lower capacity (webrtc guards the same way).
      if (acked.bps() > 0) {
        const DataRate floor = acked * config_.beta;
        if (current_ > floor) {
          link_capacity_.OnOveruseDetected(acked);
          current_ = floor;
          last_update_decreased_ = true;
          last_decrease_ = now;
        }
      } else if (last_decrease_.IsMinusInfinity() ||
                 now - last_decrease_ > TimeDelta::Millis(300)) {
        // No throughput measurement (e.g. sender starved): back off
        // multiplicatively, but at most once per 300 ms.
        current_ = current_ * config_.beta;
        last_update_decreased_ = true;
        last_decrease_ = now;
      }
      state_ = State::kHold;
      break;
    }
    case State::kIncrease: {
      // Throughput above the remembered capacity band means the estimate is
      // stale (e.g. it was learned during a fault or outage): forget it and
      // probe multiplicatively again (webrtc resets the same way).
      if (link_capacity_.has_estimate() &&
          acked > link_capacity_.UpperBound()) {
        link_capacity_.Reset();
      }
      // Near the estimated link capacity: probe gently (additive). Beyond
      // it, grow multiplicatively; the acked ceiling below bounds overshoot,
      // so the stale estimate must not pin the rate (that deadlocks an
      // application-limited sender that never triggers over-use).
      const bool near_capacity =
          link_capacity_.has_estimate() &&
          current_ > link_capacity_.LowerBound() &&
          current_ < link_capacity_.UpperBound();
      if (near_capacity) {
        current_ = current_ + AdditiveIncrease(rtt, since_last);
      } else {
        const double factor = fastmath::Pow(
            config_.increase_factor_per_second, since_last.seconds());
        current_ = current_ * factor;
      }
      // Do not run far beyond what the network demonstrably delivers.
      if (acked.bps() > 0) {
        const DataRate ceiling = acked * 1.5 + DataRate::KilobitsPerSec(10);
        current_ = std::min(current_, ceiling);
      }
      break;
    }
  }

  current_ = std::clamp(current_, config_.min_rate, config_.max_rate);
  last_change_ = now;
  return current_;
}

}  // namespace rave::cc
