#include "obs/metrics_registry.h"

#include <algorithm>
#include <atomic>

#include "util/byteio.h"

namespace rave::obs {
namespace {

thread_local MetricsRegistry* g_current_metrics = nullptr;

}  // namespace

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
      continue;
    }
    switch (theirs.kind) {
      case MetricKind::kCounter:
        mine->counter += theirs.counter;
        break;
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

// Each metric record keeps seven 8-byte slots of the retired gauge and
// histogram kinds (gauge value, bounds and bucket lengths, count, sum, min,
// max) between the counter and the sketch payload. Counters and sketches
// always wrote them as zeros; they still do, so blob bytes, kBlobVersion
// and the golden digests are unchanged.
constexpr int kRetiredSlots = 7;

void RegistrySnapshot::Encode(ByteWriter& w) const {
  w.U64(metrics.size());
  for (const MetricSnapshot& m : metrics) {
    w.Str(m.name);
    w.U8(static_cast<uint8_t>(m.kind));
    w.U64(m.counter);
    for (int i = 0; i < kRetiredSlots; ++i) w.U64(0);
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
    m.counter = r.U64();
    uint64_t retired = 0;
    for (int j = 0; j < kRetiredSlots; ++j) retired |= r.U64();
    // A retired or unknown kind, or a non-zero retired slot, is not a blob
    // this build wrote; fail closed instead of misreading it.
    const bool known_kind =
        kind_byte == static_cast<uint8_t>(MetricKind::kCounter) ||
        kind_byte == static_cast<uint8_t>(MetricKind::kSketch);
    if (!known_kind || retired != 0) r.Invalidate();
    if (!r.ok()) return snap;
    m.kind = static_cast<MetricKind>(kind_byte);
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
  snap.metrics.push_back(counter("alloc.total", allocs_));
  snap.metrics.push_back(counter("wall.sessions", sessions_));
  snap.metrics.push_back(counter("wall.events", events_));
  snap.metrics.push_back(counter("wall.frames", frames_));
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
