// Session tracing: a per-session recorder that captures control-plane
// timelines (encoder QP, VBV fill, BWE estimate, queue depths, breaker
// state, fault injections) and exports them as Chrome `trace_event` JSON,
// openable in Perfetto / chrome://tracing.
//
// Integration model: subsystems call the RAVE_TRACE_* macros with an
// explicit simulation timestamp. The macros consult a thread-local
// `TraceRecorder*` (installed with `TraceScope` around `Session::Run`), so
// tracing is
//   - zero-cost when compiled out (-DRAVE_TRACING_DISABLED: the macros
//     expand to nothing and evaluate no arguments),
//   - one thread-local load + predicted branch when compiled in but not
//     enabled (the default: no recorder installed, nothing allocates, the
//     hot-path allocation budgets hold unchanged),
//   - one bounds-checked append into a pre-reserved vector when recording.
//
// Tracks are a fixed enum, not strings, so the recording path never hashes
// or compares names; the name table lives in the JSON writer only.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/time.h"

namespace rave::obs {

/// Every trace track, grouped by subsystem. One counter track renders as
/// one timeline row in Perfetto; instant tracks mark discrete transitions.
enum class Track : uint8_t {
  // encoder
  kEncoderQp = 0,       ///< QP of each encoded frame
  kEncoderFrameKbits,   ///< size of each encoded frame
  kEncoderKeyframe,     ///< instant: keyframe emitted
  // codec rate control
  kVbvFill,             ///< VBV fullness in [0,1]
  kAbrRateRatio,        ///< ABR overflow-compensation ratio (x264 `overflow`)
  // congestion control
  kBweTargetKbps,       ///< estimator target
  kTrendlineState,      ///< 0 normal / 1 overusing / 2 underusing
  kLossRate,            ///< loss fraction reported by the estimator
  // transport / network
  kPacerQueueMs,        ///< pacer queue drain time
  kLinkQueueMs,         ///< bottleneck queue delay
  // control plane
  kBreakerState,        ///< 0 closed / 1 open / 2 paused / 3 recovering
  kFrameBudgetKbits,    ///< adaptive controller's per-frame bit budget
  kFaultInjection,      ///< instant: fault applied / reverted
  // session
  kCapacityKbps,        ///< ground-truth link capacity
  kCount,
};

inline constexpr size_t kTrackCount = static_cast<size_t>(Track::kCount);

/// Track name as it appears in the trace ("encoder/qp", "cc/bwe_kbps", ...).
const char* TrackName(Track track);
/// Subsystem group ("encoder", "cc", ...); one Perfetto thread row each.
const char* TrackSubsystem(Track track);

/// One recorded event. `label` (instants only) must point at a string with
/// static storage duration — the recorder stores the pointer, not a copy,
/// so the hot path never allocates.
struct TraceEvent {
  int64_t at_us = 0;
  double value = 0.0;
  const char* label = nullptr;
  Track track = Track::kCount;
  bool instant = false;
};

/// Collects events for one session. Not thread-safe: one recorder belongs
/// to exactly one session running on one thread (install with TraceScope).
class TraceRecorder {
 public:
  struct Options {
    /// Maximum counter samples per second *per track*; <= 0 records every
    /// sample. Instant events are never sampled away.
    double sample_hz = 0.0;
    /// Event capacity reserved up front.
    size_t reserve = 1 << 15;
  };

  TraceRecorder() : TraceRecorder(Options{}) {}
  explicit TraceRecorder(Options options);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Records a counter sample (subject to per-track sampling).
  void Counter(Track track, Timestamp at, double value);
  /// Records an instant event; `label` must have static storage duration.
  void Instant(Track track, Timestamp at, const char* label);

  const std::vector<TraceEvent>& events() const { return events_; }
  const Options& options() const { return options_; }

  /// Writes Chrome trace_event JSON: `{"traceEvents": [...]}` with one
  /// event object per line (so ReadTraceJson below can parse it back),
  /// counter events as "ph":"C" and instants as "ph":"i", plus process/
  /// thread metadata naming each subsystem row. Counter values print as
  /// printf "%.10g" would. The document is built in one buffer and handed
  /// to `os` in a single write.
  void WriteJson(std::ostream& os) const;
  /// WriteJson to `path`; false (with the file removed) on I/O failure.
  bool WriteJsonFile(const std::string& path) const;

 private:
  Options options_;
  int64_t min_interval_us_ = 0;
  std::array<int64_t, kTrackCount> next_allowed_us_;
  std::vector<TraceEvent> events_;
};

/// Parses a `--trace-out=<path>[:sample_hz]` spec. Returns false (outputs
/// untouched) when the sample rate suffix is present but malformed.
bool ParseTraceSpec(const std::string& spec, std::string* path,
                    TraceRecorder::Options* options);

/// One event parsed back out of the JSON WriteJson emits.
struct ParsedTraceEvent {
  std::string name;
  std::string phase;  ///< "C", "i" or "M"
  std::string arg;    ///< process/thread name ("M") or label ("i")
  int64_t ts_us = 0;
  double value = 0.0;
};

/// Minimal reader for WriteJson output (one event per line). Reads the rest
/// of `is` in one sized read, then walks its lines in place. A line is an
/// event when it has a "name" and a "ph" key; other lines are skipped. A
/// "ts"/"value" reads as the number its text starts with, parsed by
/// std::from_chars (so no leading '+' or whitespace), and as 0 when absent,
/// not a number or out of range. Appends to `out`; false when `is` contains
/// no events.
bool ReadTraceJson(std::istream& is, std::vector<ParsedTraceEvent>* out);

/// The recorder installed on this thread, or nullptr (tracing disabled).
TraceRecorder* CurrentTrace();

/// Installs `recorder` as this thread's recorder for the scope's lifetime;
/// restores the previous one (scopes nest) on destruction.
class TraceScope {
 public:
  explicit TraceScope(TraceRecorder* recorder);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* previous_;
};

}  // namespace rave::obs

// Instrumentation macros. `at` is an explicit simulation Timestamp; `track`
// is the bare Track enumerator name (kEncoderQp, ...). With
// RAVE_TRACING_DISABLED defined the macros expand to nothing and their
// arguments are not evaluated.
#ifndef RAVE_TRACING_DISABLED
#define RAVE_TRACE_COUNTER(track, at, value)                                  \
  do {                                                                        \
    if (::rave::obs::TraceRecorder* rave_trace_rec_ =                         \
            ::rave::obs::CurrentTrace()) {                                    \
      rave_trace_rec_->Counter(::rave::obs::Track::track, (at), (value));     \
    }                                                                         \
  } while (0)
#define RAVE_TRACE_INSTANT(track, at, label)                                  \
  do {                                                                        \
    if (::rave::obs::TraceRecorder* rave_trace_rec_ =                         \
            ::rave::obs::CurrentTrace()) {                                    \
      rave_trace_rec_->Instant(::rave::obs::Track::track, (at), (label));     \
    }                                                                         \
  } while (0)
#else
#define RAVE_TRACE_COUNTER(track, at, value) \
  do {                                       \
  } while (0)
#define RAVE_TRACE_INSTANT(track, at, label) \
  do {                                       \
  } while (0)
#endif
