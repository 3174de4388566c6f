#include "codec/encoder.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics_registry.h"
#include "obs/stage_timer.h"
#include "simd/vmath.h"
#include "obs/trace.h"

namespace rave::codec {

Encoder::Encoder(const EncoderConfig& config, std::unique_ptr<RateControl> rc)
    : config_(config), rd_(config.rd, Rng(config.seed)), rc_(std::move(rc)) {
  assert(rc_);
}

void Encoder::SetTargetRate(DataRate target) { rc_->SetTargetRate(target); }

FrameType Encoder::DecideType(const video::RawFrame& frame, Timestamp now) {
  if (keyframe_requested_) {
    // PLI responses are rate-limited to avoid keyframe storms under loss;
    // the request stays pending until the interval allows it.
    if (last_keyframe_time_.IsMinusInfinity() ||
        now - last_keyframe_time_ >= config_.min_keyframe_interval) {
      return FrameType::kKey;
    }
  }
  if (config_.keyframe_on_scene_change && frame.scene_change) {
    return FrameType::kKey;
  }
  if (config_.keyframe_interval_frames > 0 &&
      frames_since_key_ >= config_.keyframe_interval_frames) {
    return FrameType::kKey;
  }
  return FrameType::kDelta;
}

EncodedFrame Encoder::EncodeFrame(const video::RawFrame& frame,
                                  Timestamp now) {
  FrameControlStep step;
  BeginFrame(frame, now, /*defer_abr_plan=*/false, &step);
  if (!step.guidance.skip) ComputeStepScalar(step);
  return FinishFrame(step);
}

void Encoder::BeginFrame(const video::RawFrame& frame, Timestamp now,
                         bool defer_abr_plan, FrameControlStep* step) {
  // Full reset: the session reuses one step object across frames.
  *step = FrameControlStep{};
  step->frame = frame;
  step->now = now;
  step->type = DecideType(frame, now);
  const double pixels = static_cast<double>(frame.resolution.pixels());
  step->cplx_term = step->type == FrameType::kKey
                        ? pixels * frame.spatial_complexity
                        : pixels * frame.temporal_complexity;
  step->rd = &rd_;
  if (defer_abr_plan) {
    step->abr = rc_->AsAbr();
    step->plan_deferred = step->abr != nullptr;
  }
  if (!step->plan_deferred) {
    const obs::StageTimer::Scope timer(obs::StageTimer::kControl);
    step->guidance = rc_->PlanFrame(frame, step->type, now);
  }
}

void Encoder::ComputeStepScalar(FrameControlStep& step) {
  const obs::StageTimer::Scope timer(obs::StageTimer::kRd);
  step.qp = std::clamp(step.guidance.qp, kMinQp, kMaxQp);
  step.qscale = QpToQscale(step.qp);
  step.size_bits = rd_.ActualBits(step.type, step.frame, step.qscale).bits();
  step.ssim = rd_.Ssim(step.frame, step.qscale);
  step.psnr = rd_.Psnr(step.frame, step.qp);
  step.math_done = true;
}

EncodedFrame Encoder::FinishFrame(FrameControlStep& step) {
  const video::RawFrame& frame = step.frame;
  const Timestamp now = step.now;
  const FrameType type = step.type;

  EncodedFrame out;
  out.frame_id = frame.frame_id;
  out.capture_time = frame.capture_time;
  out.encode_time = now;
  out.type = type;
  out.resolution = frame.resolution;
  out.spatial_complexity = frame.spatial_complexity;
  out.temporal_complexity = frame.temporal_complexity;

  if (step.guidance.skip) {
    out.skipped = true;
    if (obs::MetricsRegistry* reg = obs::CurrentMetrics()) {
      frames_skipped_metric_.Get(*reg)->Add();
    }
    FrameOutcome outcome;
    outcome.frame_id = frame.frame_id;
    outcome.type = type;
    outcome.skipped = true;
    outcome.capture_time = frame.capture_time;
    outcome.complexity_term = step.cplx_term;
    const obs::StageTimer::Scope timer(obs::StageTimer::kControl);
    rc_->OnFrameEncoded(outcome, now);
    ++frames_encoded_;
    return out;
  }

  assert(step.math_done);
  double qp = step.qp;
  double qscale = step.qscale;
  DataSize size = DataSize::Bits(step.size_bits);

  // Hard-cap enforcement: re-encode at a higher QP until the frame fits or
  // the retry budget is spent (x264's VBV loop with row-level re-quant).
  // Deferred (batched-ABR) lanes never enter: their cap is +infinity.
  int reencodes = 0;
  if (step.guidance.max_size.IsFinite()) {
    const obs::StageTimer::Scope timer(obs::StageTimer::kRd);
    const double cap = static_cast<double>(step.guidance.max_size.bits());
    while (static_cast<double>(size.bits()) >
               cap * (1.0 + config_.cap_tolerance) &&
           reencodes < config_.max_reencodes && qp < kMaxQp) {
      // Scale qscale by the observed overshoot, inverted through the
      // type-appropriate exponent, with a safety factor.
      const double gamma =
          type == FrameType::kKey ? config_.rd.gamma_i : config_.rd.gamma_p;
      const double overshoot = static_cast<double>(size.bits()) / cap;
      qscale *= simd::PowS(overshoot * 1.1, 1.0 / gamma);
      qscale = std::clamp(qscale, QpToQscale(kMinQp), QpToQscale(kMaxQp));
      qp = QscaleToQp(qscale);
      size = rd_.ActualBits(type, frame, qscale);
      ++reencodes;
    }
  }

  out.qp = qp;
  out.size = size;
  if (reencodes == 0) {
    // First pass fit: the staged (or scalar pre-computed) quality values are
    // exactly Ssim/Psnr of the final qscale/qp.
    out.ssim = step.ssim;
    out.psnr = step.psnr;
  } else {
    out.ssim = rd_.Ssim(frame, qscale);
    out.psnr = rd_.Psnr(frame, qp);
  }
  out.reencodes = reencodes;
  // Re-publish the final values (the retry loop may have moved them); the
  // staging hub's deferred update reads them from the step.
  step.qp = qp;
  step.qscale = qscale;
  step.size_bits = size.bits();

  if (type == FrameType::kKey) {
    frames_since_key_ = 0;
    keyframe_requested_ = false;
    last_keyframe_time_ = now;
  } else {
    ++frames_since_key_;
  }

  RAVE_TRACE_COUNTER(kEncoderQp, now, qp);
  RAVE_TRACE_COUNTER(kEncoderFrameKbits, now,
                     static_cast<double>(size.bits()) / 1000.0);
  if (type == FrameType::kKey) {
    RAVE_TRACE_INSTANT(kEncoderKeyframe, now, "keyframe");
  }
  if (obs::MetricsRegistry* reg = obs::CurrentMetrics()) {
    frames_encoded_metric_.Get(*reg)->Add();
    if (type == FrameType::kKey) keyframes_metric_.Get(*reg)->Add();
    if (reencodes > 0) {
      reencodes_metric_.Get(*reg)->Add(static_cast<uint64_t>(reencodes));
    }
    qp_metric_.Get(*reg)->Record(qp);
  }

  FrameOutcome outcome;
  outcome.frame_id = frame.frame_id;
  outcome.type = type;
  outcome.skipped = false;
  outcome.qp = qp;
  outcome.qscale = qscale;
  outcome.size = size;
  outcome.complexity_term = step.cplx_term;
  outcome.capture_time = frame.capture_time;
  outcome.reencodes = reencodes;
  if (!step.plan_deferred) {
    // Deferred lanes already ran their batched update in the hub's Flush.
    const obs::StageTimer::Scope timer(obs::StageTimer::kControl);
    rc_->OnFrameEncoded(outcome, now);
  }

  ++frames_encoded_;
  return out;
}

}  // namespace rave::codec
