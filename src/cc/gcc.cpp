#include "cc/gcc.h"

#include <algorithm>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace rave::cc {

AckedBitrateEstimator::AckedBitrateEstimator(TimeDelta window)
    : window_(window) {}

void AckedBitrateEstimator::OnAckedPacket(Timestamp arrival, DataSize size) {
  acked_.emplace_back(arrival, size);
  total_ += size;
  while (!acked_.empty() && arrival - acked_.front().first > window_) {
    total_ -= acked_.front().second;
    acked_.pop_front();
  }
}

DataRate AckedBitrateEstimator::rate() const {
  if (acked_.size() < 2) return DataRate::Zero();
  const TimeDelta span = acked_.back().first - acked_.front().first;
  if (span < TimeDelta::Millis(100)) return DataRate::Zero();
  return total_ / span;
}

LossBasedControl::LossBasedControl() : LossBasedControl(Config{}) {}

LossBasedControl::LossBasedControl(const Config& config)
    : config_(config), current_(config.initial_rate) {}

void LossBasedControl::OnPacketResults(
    const std::vector<transport::PacketResult>& results, Timestamp now) {
  for (const transport::PacketResult& r : results) {
    ++window_sent_;
    if (!r.arrival) ++window_lost_;
  }
  if (window_start_.IsMinusInfinity()) {
    window_start_ = now;
    return;
  }
  if (now - window_start_ < config_.update_interval) return;

  const double loss =
      window_sent_ > 0
          ? static_cast<double>(window_lost_) / static_cast<double>(window_sent_)
          : 0.0;
  last_window_loss_ = loss;
  if (loss > config_.high_loss) {
    current_ = current_ * (1.0 - 0.5 * loss);
  } else if (loss < config_.low_loss) {
    current_ = current_ * 1.05;
  }
  current_ = std::clamp(current_, config_.min_rate, config_.max_rate);
  window_start_ = now;
  window_sent_ = 0;
  window_lost_ = 0;
}

namespace {
// The top-level initial rate wins over the sub-controller defaults so a
// caller setting only `initial_rate` gets consistent behaviour.
GccEstimator::Config Normalize(GccEstimator::Config c) {
  c.aimd.initial_rate = c.initial_rate;
  c.loss.initial_rate = c.initial_rate;
  return c;
}
}  // namespace

GccEstimator::GccEstimator() : GccEstimator(Config{}) {}

GccEstimator::GccEstimator(const Config& config)
    : config_(Normalize(config)),
      trendline_(config_.trendline),
      aimd_(config_.aimd),
      loss_(config_.loss) {}

void GccEstimator::OnPacketResults(
    const std::vector<transport::PacketResult>& results, Timestamp now) {
  if (results.empty()) return;

  BandwidthUsage usage = trendline_.state();
  for (const transport::PacketResult& r : results) {
    if (!r.arrival) continue;
    acked_.OnAckedPacket(*r.arrival, r.size);
    rtt_ = now - r.send_time;  // includes queueing, as in webrtc
    if (auto delta = inter_arrival_.OnPacket(r.send_time, *r.arrival)) {
      usage = trendline_.OnDelta(*delta);
    }
  }

  loss_.OnPacketResults(results, now);
  aimd_.Update(usage, acked_.rate(), rtt(), now);

  RAVE_TRACE_COUNTER(kBweTargetKbps, now, target().kbps());
  RAVE_TRACE_COUNTER(kTrendlineState, now,
                     static_cast<double>(trendline_.state()));
  RAVE_TRACE_COUNTER(kLossRate, now, loss_rate());
  if (obs::MetricsRegistry* reg = obs::CurrentMetrics()) {
    feedback_updates_metric_.Get(*reg)->Add();
    if (usage == BandwidthUsage::kOverusing) {
      overuse_signals_metric_.Get(*reg)->Add();
    }
  }
}

DataRate GccEstimator::target() const {
  return std::min(aimd_.target(), loss_.target());
}

}  // namespace rave::cc
