// Per-session metrics registry: counters, gauges, and fixed-bucket
// histograms that subsystems register into by name. A registry belongs to
// one session (install with MetricsScope, mirror of obs::TraceScope); at
// the end of a run it is snapshotted into the SessionResult, serialized
// through the result-cache blob, and merged across sessions by run_suite
// into BENCH_suite.json.
//
// Naming convention (enforced by review, not code): `<subsystem>.<metric>`
// lower_snake within segments — "encoder.frames", "cc.overuse_decreases",
// "frame.latency_ms". Metrics whose values depend on wall-clock time (and
// therefore differ run-to-run) must use the `wall.` prefix; determinism
// gates exclude that prefix by name.
//
// Distribution metrics are QuantileSketches (obs/sketch.h): fixed-layout
// log-bucket histograms with exact count/min/max and a fixed-point sum,
// whose merge is commutative/associative and bit-identical under any shard
// order — the property the suite-wide "sketches" aggregation and the
// cross-run regression sentinel rely on. The older fixed-bound Histogram
// (inclusive upper bounds + overflow bucket, linear-interpolated
// percentiles) is kept for callers that want hand-picked bucket layouts,
// but registry call sites have been upgraded to sketches.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "obs/sketch.h"

namespace rave {
class ByteReader;
class ByteWriter;
}  // namespace rave

namespace rave::obs {

/// A monotonically increasing integer.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// A last-write-wins double.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bucket bounds in
/// ascending order; values above the last bound land in an overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Record(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bucket_counts().size() == bounds().size() + 1 (last is overflow).
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  /// Value at quantile q in [0,1], linearly interpolated inside the bucket;
  /// clamped to [min(), max()]. 0 when empty.
  double Percentile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// `count` upper bounds spaced geometrically from `lo` to `hi` (both > 0).
std::vector<double> ExponentialBounds(double lo, double hi, size_t count);
/// `count` upper bounds spaced evenly from `lo + step` to `hi`.
std::vector<double> LinearBounds(double lo, double hi, size_t count);

enum class MetricKind : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
  kSketch = 3
};

/// Serializable copy of one metric at snapshot time.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  double gauge = 0.0;
  // Histogram payload (kind == kHistogram only).
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  // Sketch payload (kind == kSketch only); the generic count/sum/min/max
  // fields above stay at their defaults — read the sketch's accessors.
  QuantileSketch sketch;

  /// Percentile over the snapshotted distribution (histogram buckets or
  /// the sketch, by kind).
  double Percentile(double q) const;

  bool operator==(const MetricSnapshot&) const = default;
};

/// All metrics of one session, sorted by name (deterministic ordering).
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  const MetricSnapshot* Find(const std::string& name) const;
  /// Merges `other` in: counters/histogram buckets add, gauges become
  /// averaged via (sum,count) — used by suite aggregation where a gauge
  /// across sessions reads as the mean. Bucket layouts must match for
  /// histograms with the same name; mismatches are skipped.
  void Merge(const RegistrySnapshot& other);

  void Encode(ByteWriter& w) const;
  static RegistrySnapshot Decode(ByteReader& r);

  bool operator==(const RegistrySnapshot&) const = default;
};

/// Owns the live metrics of one session. Returned pointers are stable
/// (entries are held by unique_ptr, so later registrations never invalidate
/// earlier ones). Only the *first* Get for a name allocates; repeat lookups
/// are a transparent string_view hash-map find with zero allocations, so
/// per-frame call sites stay inside the hot-path allocation budgets.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-unique, never 0 and never reused, so a MetricHandle can tell a
  /// new registry from the one it bound to even at a recycled address.
  uint64_t serial() const { return serial_; }

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `make_bounds` (e.g. `[] { return ExponentialBounds(1, 1e4, 10); }`) is
  /// invoked only when the histogram does not exist yet; later calls with
  /// the same name return the existing histogram and never build bounds.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> (*make_bounds)());
  /// Mergeable log-bucket quantile sketch (obs/sketch.h) — the default
  /// choice for distribution metrics; no bounds to pick, and suite-wide
  /// merges stay bit-identical under any shard order.
  QuantileSketch* GetSketch(std::string_view name);

  RegistrySnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<QuantileSketch> sketch;
  };
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  Entry* FindOrNull(std::string_view name, MetricKind kind);
  Entry* AddEntry(std::string_view name, MetricKind kind);

  uint64_t serial_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, Entry*, SvHash, std::equal_to<>> by_name_;
};

/// A Counter or QuantileSketch looked up by name once per registry, for
/// call sites on per-frame and per-report paths. Get does the string-hashed
/// lookup the first time it sees a registry and returns the cached pointer
/// after that. Binding waits for first use, so the registry gains the entry
/// exactly when a direct GetCounter/GetSketch call would have created it.
template <typename Metric>
class MetricHandle {
  static_assert(std::is_same_v<Metric, Counter> ||
                std::is_same_v<Metric, QuantileSketch>);

 public:
  /// `name` must outlive the handle (call sites pass string literals).
  explicit MetricHandle(std::string_view name) : name_(name) {}

  Metric* Get(MetricsRegistry& registry) {
    if (registry.serial() != serial_) {
      serial_ = registry.serial();
      if constexpr (std::is_same_v<Metric, Counter>) {
        metric_ = registry.GetCounter(name_);
      } else {
        metric_ = registry.GetSketch(name_);
      }
    }
    return metric_;
  }

 private:
  std::string_view name_;
  uint64_t serial_ = 0;
  Metric* metric_ = nullptr;
};

/// Process-wide roll-up of host-side session measurements (wall clock,
/// allocation counts). These are intentionally NOT part of SessionResult:
/// the result blob must be bit-identical across reruns of the same config,
/// and wall time never is. Thread-safe; sessions on any thread record here
/// and run_suite snapshots the totals into BENCH_suite.json's "runtime"
/// section (excluded from determinism comparisons).
class RuntimeStats {
 public:
  static RuntimeStats& Instance();

  /// Called once per Session::Run with host-side measurements of that run;
  /// `events` is the event count in SessionResult.
  void RecordSession(double wall_ms, uint64_t events, uint64_t allocs,
                     uint64_t frames);

  /// Snapshot under the same MetricSnapshot schema as session registries:
  /// `wall.session_ms` / `wall.event_dispatch_ns` sketches plus
  /// `alloc.per_event` / `alloc.per_frame` gauges and raw totals.
  RegistrySnapshot Snapshot() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  QuantileSketch session_wall_ms_;
  QuantileSketch dispatch_ns_;
  uint64_t sessions_ = 0;
  uint64_t events_ = 0;
  uint64_t allocs_ = 0;
  uint64_t frames_ = 0;
};

/// The registry installed on this thread, or nullptr.
MetricsRegistry* CurrentMetrics();

/// Installs `registry` for the scope's lifetime; nests like TraceScope.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry* registry);
  ~MetricsScope();

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace rave::obs
