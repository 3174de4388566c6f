#include "obs/metrics_registry.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/byteio.h"

namespace rave::obs {
namespace {

thread_local MetricsRegistry* g_current_metrics = nullptr;

// Shared percentile math over bucketized data: inclusive upper bounds plus
// an overflow bucket, linear interpolation inside the winning bucket.
double BucketPercentile(const std::vector<double>& bounds,
                        const std::vector<uint64_t>& counts, uint64_t count,
                        double min, double max, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The extreme quantiles are tracked exactly; no bucket math needed.
  if (q == 0.0) return min;
  if (q == 1.0) return max;
  // Rank of the target sample, 1-based; q=0 -> first, q=1 -> last.
  const double rank = q * static_cast<double>(count - 1) + 1.0;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    const double bucket_first = static_cast<double>(cumulative) + 1.0;
    cumulative += in_bucket;
    if (rank > static_cast<double>(cumulative)) continue;
    const double lower =
        i == 0 ? min : (i < bounds.size() ? bounds[i - 1] : bounds.back());
    const double upper = i < bounds.size() ? bounds[i] : max;
    const double lo = std::max(lower, min);
    const double hi = std::min(upper, max);
    if (in_bucket == 1 || hi <= lo) return std::clamp(hi, min, max);
    const double frac =
        (rank - bucket_first) / static_cast<double>(in_bucket - 1);
    return std::clamp(lo + frac * (hi - lo), min, max);
  }
  return max;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Record(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<size_t>(it - bounds_.begin())]++;
}

double Histogram::Percentile(double q) const {
  return BucketPercentile(bounds_, counts_, count_, min_, max_, q);
}

std::vector<double> ExponentialBounds(double lo, double hi, size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  if (count == 0 || lo <= 0.0 || hi <= lo) return bounds;
  const double ratio =
      count == 1 ? 1.0 : std::pow(hi / lo, 1.0 / static_cast<double>(count - 1));
  double b = lo;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(i + 1 == count ? hi : b);
    b *= ratio;
  }
  return bounds;
}

std::vector<double> LinearBounds(double lo, double hi, size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  if (count == 0 || hi <= lo) return bounds;
  const double step = (hi - lo) / static_cast<double>(count);
  for (size_t i = 1; i <= count; ++i) {
    bounds.push_back(i == count ? hi : lo + step * static_cast<double>(i));
  }
  return bounds;
}

double MetricSnapshot::Percentile(double q) const {
  if (kind == MetricKind::kSketch) return sketch.Quantile(q);
  return BucketPercentile(bounds, bucket_counts, count, min, max, q);
}

const MetricSnapshot* RegistrySnapshot::Find(const std::string& name) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RegistrySnapshot::Merge(const RegistrySnapshot& other) {
  for (const MetricSnapshot& theirs : other.metrics) {
    MetricSnapshot* mine = nullptr;
    for (MetricSnapshot& m : metrics) {
      if (m.name == theirs.name && m.kind == theirs.kind) {
        mine = &m;
        break;
      }
    }
    if (mine == nullptr) {
      metrics.push_back(theirs);
      // Gauges carry (sum, count) through `gauge` + `count` so repeated
      // merges average correctly; normalize the first copy.
      MetricSnapshot& added = metrics.back();
      if (added.kind == MetricKind::kGauge && added.count == 0) {
        added.count = 1;
      }
      continue;
    }
    switch (theirs.kind) {
      case MetricKind::kCounter:
        mine->counter += theirs.counter;
        break;
      case MetricKind::kGauge: {
        const uint64_t their_n = theirs.count == 0 ? 1 : theirs.count;
        const uint64_t my_n = mine->count == 0 ? 1 : mine->count;
        mine->gauge = (mine->gauge * static_cast<double>(my_n) +
                       theirs.gauge * static_cast<double>(their_n)) /
                      static_cast<double>(my_n + their_n);
        mine->count = my_n + their_n;
        break;
      }
      case MetricKind::kHistogram: {
        if (mine->bounds != theirs.bounds) break;  // incompatible layout
        for (size_t i = 0; i < mine->bucket_counts.size() &&
                           i < theirs.bucket_counts.size();
             ++i) {
          mine->bucket_counts[i] += theirs.bucket_counts[i];
        }
        if (theirs.count > 0) {
          if (mine->count == 0) {
            mine->min = theirs.min;
            mine->max = theirs.max;
          } else {
            mine->min = std::min(mine->min, theirs.min);
            mine->max = std::max(mine->max, theirs.max);
          }
        }
        mine->count += theirs.count;
        mine->sum += theirs.sum;
        break;
      }
      case MetricKind::kSketch:
        mine->sketch.Merge(theirs.sketch);
        break;
    }
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
}

void RegistrySnapshot::Encode(ByteWriter& w) const {
  w.U64(metrics.size());
  for (const MetricSnapshot& m : metrics) {
    w.Str(m.name);
    w.U8(static_cast<uint8_t>(m.kind));
    w.U64(m.counter);
    w.F64(m.gauge);
    w.U64(m.bounds.size());
    for (double b : m.bounds) w.F64(b);
    w.U64(m.bucket_counts.size());
    for (uint64_t c : m.bucket_counts) w.U64(c);
    w.U64(m.count);
    w.F64(m.sum);
    w.F64(m.min);
    w.F64(m.max);
    if (m.kind == MetricKind::kSketch) m.sketch.Encode(w);
  }
}

RegistrySnapshot RegistrySnapshot::Decode(ByteReader& r) {
  RegistrySnapshot snap;
  const uint64_t n = r.U64();
  if (!r.ok()) return snap;
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    MetricSnapshot m;
    m.name = r.Str();
    const uint8_t kind_byte = r.U8();
    if (kind_byte > static_cast<uint8_t>(MetricKind::kSketch)) {
      // An unknown kind desynchronizes the stream (the sketch payload is
      // conditional on it); fail closed instead of misparsing.
      r.Invalidate();
      return snap;
    }
    m.kind = static_cast<MetricKind>(kind_byte);
    m.counter = r.U64();
    m.gauge = r.F64();
    const uint64_t nb = r.U64();
    for (uint64_t j = 0; j < nb && r.ok(); ++j) m.bounds.push_back(r.F64());
    const uint64_t nc = r.U64();
    for (uint64_t j = 0; j < nc && r.ok(); ++j) {
      m.bucket_counts.push_back(r.U64());
    }
    m.count = r.U64();
    m.sum = r.F64();
    m.min = r.F64();
    m.max = r.F64();
    if (m.kind == MetricKind::kSketch) m.sketch = QuantileSketch::Decode(r);
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

MetricsRegistry::MetricsRegistry() {
  static std::atomic<uint64_t> next_serial{1};
  serial_ = next_serial.fetch_add(1);
}

MetricsRegistry::Entry* MetricsRegistry::FindOrNull(std::string_view name,
                                                    MetricKind kind) {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return it->second->kind == kind ? it->second : nullptr;
}

MetricsRegistry::Entry* MetricsRegistry::AddEntry(std::string_view name,
                                                  MetricKind kind) {
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->kind = kind;
  Entry* out = entry.get();
  by_name_.emplace(out->name, out);
  entries_.push_back(std::move(entry));
  return out;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  if (Entry* e = FindOrNull(name, MetricKind::kCounter)) {
    return e->counter.get();
  }
  Entry* e = AddEntry(name, MetricKind::kCounter);
  e->counter = std::make_unique<Counter>();
  return e->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  if (Entry* e = FindOrNull(name, MetricKind::kGauge)) return e->gauge.get();
  Entry* e = AddEntry(name, MetricKind::kGauge);
  e->gauge = std::make_unique<Gauge>();
  return e->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> (*make_bounds)()) {
  if (Entry* e = FindOrNull(name, MetricKind::kHistogram)) {
    return e->histogram.get();
  }
  Entry* e = AddEntry(name, MetricKind::kHistogram);
  e->histogram = std::make_unique<Histogram>(make_bounds());
  return e->histogram.get();
}

QuantileSketch* MetricsRegistry::GetSketch(std::string_view name) {
  if (Entry* e = FindOrNull(name, MetricKind::kSketch)) return e->sketch.get();
  Entry* e = AddEntry(name, MetricKind::kSketch);
  e->sketch = std::make_unique<QuantileSketch>();
  return e->sketch.get();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  snap.metrics.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricSnapshot m;
    m.name = entry->name;
    m.kind = entry->kind;
    switch (entry->kind) {
      case MetricKind::kCounter:
        m.counter = entry->counter->value();
        break;
      case MetricKind::kGauge:
        m.gauge = entry->gauge->value();
        m.count = 1;  // gauge merge weight
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry->histogram;
        m.bounds = h.bounds();
        m.bucket_counts = h.bucket_counts();
        m.count = h.count();
        m.sum = h.sum();
        m.min = h.min();
        m.max = h.max();
        break;
      }
      case MetricKind::kSketch:
        m.sketch = *entry->sketch;
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

RuntimeStats& RuntimeStats::Instance() {
  static RuntimeStats stats;
  return stats;
}

void RuntimeStats::RecordSession(double wall_ms, uint64_t events,
                                 uint64_t allocs, uint64_t frames) {
  const std::lock_guard<std::mutex> lock(mu_);
  session_wall_ms_.Record(wall_ms);
  if (events > 0) {
    dispatch_ns_.Record(wall_ms * 1e6 / static_cast<double>(events));
  }
  ++sessions_;
  events_ += events;
  allocs_ += allocs;
  frames_ += frames;
}

RegistrySnapshot RuntimeStats::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  auto sketch = [](const char* name, const QuantileSketch& s) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kSketch;
    m.sketch = s;
    return m;
  };
  auto counter = [](const char* name, uint64_t v) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kCounter;
    m.counter = v;
    return m;
  };
  auto gauge = [](const char* name, double v) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kGauge;
    m.gauge = v;
    m.count = 1;
    return m;
  };
  snap.metrics.push_back(counter("alloc.total", allocs_));
  if (events_ > 0) {
    snap.metrics.push_back(
        gauge("alloc.per_event",
              static_cast<double>(allocs_) / static_cast<double>(events_)));
  }
  if (frames_ > 0) {
    snap.metrics.push_back(
        gauge("alloc.per_frame",
              static_cast<double>(allocs_) / static_cast<double>(frames_)));
  }
  snap.metrics.push_back(counter("wall.sessions", sessions_));
  snap.metrics.push_back(counter("wall.events", events_));
  snap.metrics.push_back(sketch("wall.event_dispatch_ns", dispatch_ns_));
  snap.metrics.push_back(sketch("wall.session_ms", session_wall_ms_));
  return snap;
}

void RuntimeStats::Reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  session_wall_ms_ = QuantileSketch{};
  dispatch_ns_ = QuantileSketch{};
  sessions_ = 0;
  events_ = 0;
  allocs_ = 0;
  frames_ = 0;
}

MetricsRegistry* CurrentMetrics() { return g_current_metrics; }

MetricsScope::MetricsScope(MetricsRegistry* registry)
    : previous_(g_current_metrics) {
  g_current_metrics = registry;
}

MetricsScope::~MetricsScope() { g_current_metrics = previous_; }

}  // namespace rave::obs
