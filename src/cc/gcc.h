// Send-side Google-Congestion-Control-style estimator: acknowledged-bitrate
// measurement + trendline delay gradient + AIMD, combined with the classic
// loss-based controller (cut on >10% loss, grow on <2%). The final target is
// the minimum of the delay-based and loss-based rates.
#pragma once

#include <deque>

#include "cc/aimd.h"
#include "cc/bwe.h"
#include "cc/inter_arrival.h"
#include "cc/trendline.h"
#include "obs/metrics_registry.h"
#include "util/stats.h"

namespace rave::cc {

/// Sliding-window throughput measurement over acked packets.
class AckedBitrateEstimator {
 public:
  explicit AckedBitrateEstimator(TimeDelta window = TimeDelta::Millis(500));

  void OnAckedPacket(Timestamp arrival, DataSize size);
  /// Throughput over the window ending at the newest ack; Zero until the
  /// window has at least ~100 ms of data.
  DataRate rate() const;

 private:
  TimeDelta window_;
  std::deque<std::pair<Timestamp, DataSize>> acked_;
  DataSize total_ = DataSize::Zero();
};

/// Classic GCC loss-based controller.
class LossBasedControl {
 public:
  struct Config {
    DataRate initial_rate = DataRate::KilobitsPerSec(1500);
    DataRate min_rate = DataRate::KilobitsPerSec(50);
    DataRate max_rate = DataRate::MegabitsPerSecF(20.0);
    double high_loss = 0.10;
    double low_loss = 0.02;
    /// Evaluation period; losses are aggregated over it.
    TimeDelta update_interval = TimeDelta::Millis(1000);
  };

  LossBasedControl();
  explicit LossBasedControl(const Config& config);

  void OnPacketResults(const std::vector<transport::PacketResult>& results,
                       Timestamp now);

  DataRate target() const { return current_; }
  /// Loss fraction of the last completed window.
  double loss_rate() const { return last_window_loss_; }

 private:
  Config config_;
  DataRate current_;
  Timestamp window_start_ = Timestamp::MinusInfinity();
  int64_t window_sent_ = 0;
  int64_t window_lost_ = 0;
  double last_window_loss_ = 0.0;
};

/// Full send-side estimator.
class GccEstimator : public BandwidthEstimator {
 public:
  struct Config {
    DataRate initial_rate = DataRate::KilobitsPerSec(1500);
    AimdRateControl::Config aimd;
    LossBasedControl::Config loss;
    TrendlineEstimator::Config trendline;
  };

  GccEstimator();
  explicit GccEstimator(const Config& config);

  void OnPacketResults(const std::vector<transport::PacketResult>& results,
                       Timestamp now) override;

  DataRate target() const override;
  double loss_rate() const override { return loss_.loss_rate(); }
  TimeDelta rtt() const override { return rtt_.has_value() ? *rtt_ : TimeDelta::Millis(100); }
  DataRate acked_rate() const override { return acked_.rate(); }
  std::string name() const override { return "gcc"; }

  /// Last congestion signal (the adaptive controller reads this to detect
  /// drops faster than the rate alone reveals).
  BandwidthUsage usage() const { return trendline_.state(); }
  /// True if the most recent update performed a multiplicative decrease.
  bool decreased_on_last_update() const {
    return aimd_.last_update_decreased();
  }

 private:
  Config config_;
  InterArrival inter_arrival_;
  TrendlineEstimator trendline_;
  AimdRateControl aimd_;
  LossBasedControl loss_;
  AckedBitrateEstimator acked_;
  std::optional<TimeDelta> rtt_;
  obs::MetricHandle<obs::Counter> feedback_updates_metric_{
      "cc.feedback_updates"};
  obs::MetricHandle<obs::Counter> overuse_signals_metric_{
      "cc.overuse_signals"};
};

}  // namespace rave::cc
