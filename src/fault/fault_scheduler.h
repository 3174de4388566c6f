// Applies a `FaultPlan` to a live forward link + reverse pipe pair.
//
// The scheduler registers one apply and one revert callback per fault window
// on the session's EventLoop at construction; everything after that is
// ordinary deterministic event execution (the link's own seeded fault RNG
// drives duplication/reordering decisions), so fault-injected sessions are
// byte-identical across `--jobs` counts and across reruns.
#pragma once

#include <cstdint>

#include "fault/fault_plan.h"
#include "net/link.h"
#include "obs/metrics_registry.h"
#include "sim/event_loop.h"

namespace rave::fault {

/// Counters for tests and the fig10 harness.
struct FaultStats {
  int64_t faults_applied = 0;
  int64_t faults_reverted = 0;
};

class FaultScheduler {
 public:
  /// `pipe` may be null when the scenario has no reverse path; feedback
  /// faults are then ignored. `link` must outlive the scheduler.
  FaultScheduler(EventLoop& loop, FaultPlan plan, net::Link* link,
                 net::DelayPipe* pipe);

  FaultScheduler(const FaultScheduler&) = delete;
  FaultScheduler& operator=(const FaultScheduler&) = delete;

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  /// True while any fault window is currently applied.
  bool any_active() const { return stats_.faults_applied > stats_.faults_reverted; }

 private:
  void Apply(const FaultEvent& event);
  void Revert(const FaultEvent& event);

  EventLoop& loop_;
  FaultPlan plan_;
  net::Link* link_;
  net::DelayPipe* pipe_;
  FaultStats stats_;
  obs::MetricHandle<obs::Counter> applied_metric_{"fault.applied"};
};

}  // namespace rave::fault
