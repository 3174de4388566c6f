// Per-session metrics registry: counters and quantile sketches that
// subsystems register into by name. A registry belongs to one session
// (install with MetricsScope, mirror of obs::TraceScope); at the end of a
// run it is snapshotted into the SessionResult, serialized through the
// result-cache blob, and merged across sessions by run_suite into
// BENCH_suite.json.
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
// cross-run regression sentinel rely on.
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

/// Serialized as one byte. 1 and 2 belonged to the retired gauge and
/// fixed-bound histogram kinds; RegistrySnapshot::Decode rejects them.
enum class MetricKind : uint8_t { kCounter = 0, kSketch = 3 };

/// Serializable copy of one metric at snapshot time.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// Payload of kind == kCounter.
  uint64_t counter = 0;
  /// Payload of kind == kSketch.
  QuantileSketch sketch;
  /// Always 0; left over from the retired histogram kind. Read the
  /// sketch's sum() instead.
  double sum = 0.0;

  bool operator==(const MetricSnapshot&) const = default;
};

/// All metrics of one session, sorted by name (deterministic ordering).
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  const MetricSnapshot* Find(const std::string& name) const;
  /// Merges `other` in (suite aggregation): counters add, sketches merge.
  /// A metric with no entry of the same name and kind yet is appended.
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
  /// Mergeable log-bucket quantile sketch (obs/sketch.h); suite-wide
  /// merges stay bit-identical under any shard order.
  QuantileSketch* GetSketch(std::string_view name);

  RegistrySnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
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
  /// `wall.session_ms` / `wall.event_dispatch_ns` sketches plus the
  /// `alloc.total`, `wall.sessions`, `wall.events` and `wall.frames`
  /// counters (divide for allocations per event or per frame).
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
