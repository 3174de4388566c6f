#include "fault/fault_scheduler.h"

#include <cassert>
#include <utility>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace rave::fault {
namespace {

// Static labels for trace instants (ToString(FaultKind) returns an owning
// std::string, which the recorder must not keep a pointer into).
[[maybe_unused]] const char* ApplyLabel(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkOutage:
      return "apply:link_outage";
    case FaultKind::kFeedbackBlackhole:
      return "apply:feedback_blackhole";
    case FaultKind::kDelaySpike:
      return "apply:delay_spike";
    case FaultKind::kDuplication:
      return "apply:duplication";
    case FaultKind::kReorder:
      return "apply:reorder";
    case FaultKind::kHandover:
      return "apply:handover";
    case FaultKind::kRenegotiate:
      return "apply:renegotiate";
  }
  return "apply:unknown";
}

[[maybe_unused]] const char* RevertLabel(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkOutage:
      return "revert:link_outage";
    case FaultKind::kFeedbackBlackhole:
      return "revert:feedback_blackhole";
    case FaultKind::kDelaySpike:
      return "revert:delay_spike";
    case FaultKind::kDuplication:
      return "revert:duplication";
    case FaultKind::kReorder:
      return "revert:reorder";
    case FaultKind::kHandover:
      return "revert:handover";
    case FaultKind::kRenegotiate:
      return "revert:renegotiate";
  }
  return "revert:unknown";
}

}  // namespace

FaultScheduler::FaultScheduler(EventLoop& loop, FaultPlan plan,
                               net::Link* link, net::DelayPipe* pipe)
    : loop_(loop), plan_(std::move(plan)), link_(link), pipe_(pipe) {
  assert(link_ != nullptr);
  // Capture the event INDEX, not the event: FaultEvent carries an optional
  // LossModel and would not fit the event loop's inline closure storage.
  for (size_t i = 0; i < plan_.events().size(); ++i) {
    const FaultEvent& event = plan_.events()[i];
    loop_.ScheduleAt(event.start, [this, i] { Apply(plan_.events()[i]); });
    loop_.ScheduleAt(event.start + event.duration,
                     [this, i] { Revert(plan_.events()[i]); });
  }
}

void FaultScheduler::Apply(const FaultEvent& event) {
  ++stats_.faults_applied;
  RAVE_TRACE_INSTANT(kFaultInjection, loop_.now(), ApplyLabel(event.kind));
  if (obs::MetricsRegistry* reg = obs::CurrentMetrics()) {
    applied_metric_.Get(*reg)->Add();
  }
  switch (event.kind) {
    case FaultKind::kLinkOutage:
      link_->SetOutage(true);
      break;
    case FaultKind::kFeedbackBlackhole:
      if (pipe_) pipe_->SetBlackhole(true);
      break;
    case FaultKind::kDelaySpike:
      link_->SetExtraPropagation(event.delay);
      if (pipe_) pipe_->SetExtraDelay(event.delay);
      break;
    case FaultKind::kDuplication:
      link_->SetDuplication(event.magnitude);
      break;
    case FaultKind::kReorder:
      link_->SetReordering(event.magnitude, event.delay);
      break;
    case FaultKind::kHandover:
      // One event-loop action: the new cell's capacity, propagation, and
      // loss model land together, then the radio goes silent for the gap
      // (forward outage + feedback blackhole, reverse delay moves too).
      link_->Handover(event.rate, event.propagation, event.loss);
      link_->SetOutage(true);
      if (pipe_) {
        pipe_->SetBaseDelay(event.propagation);
        pipe_->SetBlackhole(true);
      }
      break;
    case FaultKind::kRenegotiate:
      link_->SetRateOverride(event.rate);
      break;
  }
}

void FaultScheduler::Revert(const FaultEvent& event) {
  ++stats_.faults_reverted;
  RAVE_TRACE_INSTANT(kFaultInjection, loop_.now(), RevertLabel(event.kind));
  switch (event.kind) {
    case FaultKind::kLinkOutage:
      link_->SetOutage(false);
      break;
    case FaultKind::kFeedbackBlackhole:
      if (pipe_) pipe_->SetBlackhole(false);
      break;
    case FaultKind::kDelaySpike:
      link_->SetExtraPropagation(TimeDelta::Zero());
      if (pipe_) pipe_->SetExtraDelay(TimeDelta::Zero());
      break;
    case FaultKind::kDuplication:
      link_->SetDuplication(0.0);
      break;
    case FaultKind::kReorder:
      link_->SetReordering(0.0, TimeDelta::Zero());
      break;
    case FaultKind::kHandover:
      // Only the radio-silence gap ends; the new cell's rate, propagation,
      // and loss model persist (they are properties of the cell, not the
      // window).
      link_->SetOutage(false);
      if (pipe_) pipe_->SetBlackhole(false);
      break;
    case FaultKind::kRenegotiate:
      link_->SetRateOverride(std::nullopt);
      break;
  }
}

}  // namespace rave::fault
