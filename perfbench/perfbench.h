// Shared pieces of the repository benchmark: clocks, the span log, the
// metric list every run prints, and the workload / probe entry points that
// main.cpp strings together. See README.md for what each metric means.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "rtc/session.h"
#include "runner/result_cache.h"
#include "runner/session_key.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
/// User + system CPU time of the whole process.
double ProcessCpuSeconds();
/// Lowers the process's peak-RSS mark to its current resident set.
void ResetPeakRss();
/// Peak resident set size since the last ResetPeakRss (VmHWM).
double PeakRssMb();

// --- spans -----------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark's side of the
/// call. `id` groups the spans of one session (or one suite entry point);
/// `parent` is the index of the enclosing span, -1 at the top.
struct Span {
  const char* layer;
  const char* name;
  uint64_t id;
  int64_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

/// Process-wide, main-thread-only span log. Disabled (every call a no-op)
/// unless switched on: untraced runs and passes record nothing. Spans stay
/// in memory until WriteJsonl at the end of the run.
class SpanLog {
 public:
  void Reserve(size_t spans) { spans_.reserve(spans); }
  void set_enabled(bool on) { enabled_ = on; }
  /// Opens a span under the innermost open one; id 0 inherits the parent's.
  int64_t Open(const char* layer, const char* name, uint64_t id);
  void Close(int64_t index);
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  int64_t current_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

SpanLog& Spans();

class SpanScope {
 public:
  SpanScope(const char* layer, const char* name, uint64_t id = 0)
      : index_(Spans().Open(layer, name, id)) {}
  ~SpanScope() { Spans().Close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int64_t index_;
};

// --- metrics and correctness ---------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Operations attempted and failed (an operation is one session or one
/// suite entry-point call; it fails on a non-zero exit or on output bytes
/// that differ from the reference).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> values, double q);

/// Digest of a byte string.
rave::runner::SessionKey Digest(const std::string& bytes);

// --- sweep workload --------------------------------------------------------

inline constexpr rave::rtc::Scheme kSweepSchemes[] = {
    rave::rtc::Scheme::kX264Abr, rave::rtc::Scheme::kAdaptive,
    rave::rtc::Scheme::kSalsify};
inline constexpr int kSweepSchemeCount = 3;

struct SweepPlan {
  std::vector<rave::rtc::SessionConfig> configs;
  /// Index into kSweepSchemes per config.
  std::vector<int> scheme_index;
  double sim_seconds = 0.0;
};

/// {x264-abr, rave-adaptive, salsify} x drop severity {0.3, 0.5, 0.7} x
/// every content class x `seeds_per_cell` seeds derived from `seed`; the
/// drop is at t = 10 s.
SweepPlan MakeSweepPlan(uint64_t seed, int seeds_per_cell, double duration_s);

/// What one session of a sweep pass leaves behind once its result is freed:
/// the deterministic counts the reconciliation multiplies, plus host costs.
struct SessionSample {
  int scheme = 0;
  rave::runner::SessionKey digest;
  uint64_t events = 0;
  int64_t packets_delivered = 0;
  int64_t packets_to_link = 0;
  int64_t tail_drops = 0;
  uint64_t feedback_updates = 0;
  uint64_t frames_encoded = 0;
  uint64_t reencodes = 0;
  int64_t frames_captured = 0;
  double wall_s = 0.0;
  uint64_t allocs = 0;
};

struct PassTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Runs every config serially through rtc::RunSession. The pass's wall and
/// CPU time sum the session calls only; each result's digest and counts are
/// taken, and the result freed, outside them.
std::vector<SessionSample> RunSweepPass(const SweepPlan& plan, PassTime* time);

// --- suite workloads -------------------------------------------------------

struct SuiteOptions {
  int jobs = 2;
  /// Session duration override passed to every entry point (0 = defaults).
  double duration_s = 0.0;
};

struct EntryOutcome {
  int exit_code = 0;
  rave::runner::SessionKey digest;
  double ms = 0.0;
  uint64_t computes = 0;
};

struct SuitePass {
  PassTime time;
  std::vector<EntryOutcome> entries;
  rave::runner::ResultCache::Stats cache;
  /// Sum of per-session simulation wall time the runner reported.
  double session_busy_s = 0.0;
};

/// Calls every AllBenches() entry point in order against one ResultCache
/// on `cache_dir` (empty = in-memory tier only), capturing stdout and the
/// files each entry declares.
SuitePass RunSuitePass(const std::string& cache_dir, const SuiteOptions& options);

/// Every session stored in a filled cache directory, read back through a
/// fresh ResultCache.
struct CacheScan {
  size_t sessions = 0;
  double sim_seconds = 0.0;
  double lookup_s = 0.0;
  double mean_blob_kb = 0.0;
  /// Up to `keep` decoded results, for the codec probes.
  std::vector<rave::rtc::SessionResult> sample;
};
CacheScan ScanCacheDir(const std::string& dir, size_t keep);

// --- host-speed reference ----------------------------------------------------

/// A fixed slice of benchmark-owned work, run about every kSliceEveryS
/// through every set-up and pass so that their times can be stated at a
/// fixed host speed (reference.cpp; README.md, "Host-speed reference").
inline constexpr double kSliceEveryS = 0.25;
class ReferenceMeter {
 public:
  /// Threads each slice keeps busy at once: the workload's own count. Runs
  /// one slice and discards it, so no recorded slice pays for cold code.
  void set_threads(int threads);
  /// Runs one slice on every thread and records its wall and CPU time.
  void Slice();
  /// Runs a slice if none has run for kSliceEveryS: called between the
  /// calls a pass makes, so slices sample the host all through a pass.
  void MaybeSlice();
  /// Slices run so far: a mark for the functions below.
  size_t slices() const { return wall_s_.size(); }
  /// Wall and CPU seconds of all slices run since `mark`.
  double WallSince(size_t mark) const;
  double CpuSince(size_t mark) const;
  /// Median wall seconds of one slice run since `mark`.
  double MedianSliceSince(size_t mark) const;

 private:
  std::vector<std::vector<uint64_t>> tables_;  // one per thread
  uint64_t checksum_ = 0;
  Clock::time_point last_end_{};
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
};
ReferenceMeter& Meter();

// --- layer probes ------------------------------------------------------------

struct ProbeInputs {
  /// Packets each feedback report carries, from the sweep's counts.
  int packets_per_report = 10;
  /// Decoded session results (codec, merge, and registry-name inputs).
  const std::vector<rave::rtc::SessionResult>* sample = nullptr;
  /// A filled cache directory for the store probe.
  std::string cache_dir;
};

/// Unit costs measured by timing direct calls into each layer's public
/// functions. Keys are the metric names in README.md.
struct UnitCosts {
  double ns_per_event = 0.0;
  double link_ns_per_packet = 0.0;
  double pipeline_ns_per_packet = 0.0;
  double pipeline_events_per_packet = 0.0;
  double feedback_ns_per_report = 0.0;
  double cc_ns_per_feedback = 0.0;
  double encode_ns_per_frame[kSweepSchemeCount] = {0.0, 0.0, 0.0};
  /// Per OnNetworkUpdate call; 0 for x264-abr, which takes no observations.
  double network_update_ns[kSweepSchemeCount] = {0.0, 0.0, 0.0};
  double capture_ns_per_frame = 0.0;
  double record_ns_per_frame = 0.0;
  double registry_lookup_ns = 0.0;
  double sketch_merge_us = 0.0;
  double encode_us_per_blob = 0.0;
  double decode_us_per_blob = 0.0;
  double store_ms_per_blob = 0.0;
};
UnitCosts RunProbes(const ProbeInputs& inputs, uint64_t seed);

}  // namespace perfbench
