// Encoder front-end: turns RawFrames into EncodedFrames under the direction
// of a pluggable RateControl, emulating the x264 encode loop — frame-type
// decision (keyframe policy), quantizer from rate control, actual size from
// the R-D model, and bounded re-encode retries when a hard size cap is
// violated (x264's VBV retry loop).
#pragma once

#include <cstdint>
#include <memory>

#include "codec/frame_staging.h"
#include "codec/rate_control.h"
#include "codec/rd_model.h"
#include "obs/metrics_registry.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"
#include "video/frame.h"

namespace rave::codec {

/// The compressed output for one captured frame.
struct EncodedFrame {
  int64_t frame_id = 0;
  Timestamp capture_time = Timestamp::Zero();
  Timestamp encode_time = Timestamp::Zero();
  FrameType type = FrameType::kDelta;
  bool skipped = false;
  double qp = 0.0;
  DataSize size = DataSize::Zero();
  /// SSIM proxy in (0,1]; 0 when skipped.
  double ssim = 0.0;
  /// PSNR proxy in dB; 0 when skipped.
  double psnr = 0.0;
  video::Resolution resolution;
  /// Number of re-encode passes the cap forced (0 = first pass fit).
  int reencodes = 0;
  /// Content complexity of the source frame (copied through for metrics;
  /// freeze penalties scale with temporal complexity).
  double spatial_complexity = 0.0;
  double temporal_complexity = 0.0;
};

struct EncoderConfig {
  double fps = 30.0;
  /// 0 disables periodic keyframes (RTC default: keyframes only on scene
  /// change or explicit request).
  int keyframe_interval_frames = 0;
  /// Treat scene changes as keyframes.
  bool keyframe_on_scene_change = true;
  /// Minimum spacing between keyframes produced in response to
  /// RequestKeyFrame (PLI); prevents keyframe storms under loss
  /// (webrtc kMinKeyFrameSendInterval). Scene-change keyframes are exempt.
  TimeDelta min_keyframe_interval = TimeDelta::Millis(300);
  /// Maximum re-encode attempts when a hard cap is exceeded.
  int max_reencodes = 3;
  /// Accept sizes up to cap * (1 + tolerance) without re-encoding.
  double cap_tolerance = 0.05;
  RdModelConfig rd;
  uint64_t seed = 7;
};

/// Single-stream encoder. Owns its rate control.
class Encoder {
 public:
  Encoder(const EncoderConfig& config, std::unique_ptr<RateControl> rc);

  /// Forwards a new target bitrate to the rate control (the app-level
  /// `x264_encoder_reconfig` path).
  void SetTargetRate(DataRate target);

  /// Encodes (or skips) one frame at simulation time `now`. Equivalent to
  /// BeginFrame + ComputeStepScalar + FinishFrame.
  EncodedFrame EncodeFrame(const video::RawFrame& frame, Timestamp now);

  /// Staged-execution seam for the frame-boundary rendezvous
  /// (codec/frame_staging.h). BeginFrame decides the frame type and plans —
  /// unless `defer_abr_plan` and the rate control is an AbrRateControl, in
  /// which case the plan (and update) are left to the hub's batched lanes.
  /// The step's math (qp/qscale/size/ssim/psnr) then comes from either
  /// ComputeStepScalar or the hub's Flush; FinishFrame applies the re-encode
  /// retry loop (never taken on deferred lanes: ABR guidance carries no hard
  /// cap), bookkeeping, and the rate-control update, and emits the frame.
  /// BeginFrame → ComputeStepScalar → FinishFrame is bit-identical to
  /// EncodeFrame, including the rng draw order.
  void BeginFrame(const video::RawFrame& frame, Timestamp now,
                  bool defer_abr_plan, FrameControlStep* step);
  void ComputeStepScalar(FrameControlStep& step);
  EncodedFrame FinishFrame(FrameControlStep& step);

  /// Forces the next frame to be a keyframe (e.g. PLI from the receiver).
  void RequestKeyFrame() { keyframe_requested_ = true; }

  RateControl& rate_control() { return *rc_; }
  const RateControl& rate_control() const { return *rc_; }
  const RdModel& rd_model() const { return rd_; }
  const EncoderConfig& config() const { return config_; }

  int64_t frames_encoded() const { return frames_encoded_; }

 private:
  FrameType DecideType(const video::RawFrame& frame, Timestamp now);

  EncoderConfig config_;
  RdModel rd_;
  std::unique_ptr<RateControl> rc_;
  bool keyframe_requested_ = true;  // first frame is always a keyframe
  int64_t frames_since_key_ = 0;
  int64_t frames_encoded_ = 0;
  Timestamp last_keyframe_time_ = Timestamp::MinusInfinity();
  obs::MetricHandle<obs::Counter> frames_skipped_metric_{
      "encoder.frames_skipped"};
  obs::MetricHandle<obs::Counter> frames_encoded_metric_{
      "encoder.frames_encoded"};
  obs::MetricHandle<obs::Counter> keyframes_metric_{"encoder.keyframes"};
  obs::MetricHandle<obs::Counter> reencodes_metric_{"encoder.reencodes"};
  obs::MetricHandle<obs::QuantileSketch> qp_metric_{"encoder.qp"};
};

}  // namespace rave::codec
