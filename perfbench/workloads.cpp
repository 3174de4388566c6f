// Workload passes (the serial session sweep and one in-process suite run)
// plus the clocks, span log and digest helpers they share.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <optional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.h"
#include "obs/metrics_registry.h"
#include "perfbench.h"
#include "registry.h"
#include "util/alloc_probe.h"

namespace perfbench {

namespace fs = std::filesystem;
using rave::runner::ResultCache;
using rave::runner::SessionKey;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void ResetPeakRss() {
  // Hand freed heap back to the kernel first, so the new mark starts from
  // what is still in use rather than from what set-up once touched.
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS mark");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // VmHWM is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- spans -----------------------------------------------------------------

int64_t SpanLog::Open(const char* layer, const char* name, uint64_t id) {
  if (!enabled_) return -1;
  if (id == 0 && current_ >= 0) id = spans_[static_cast<size_t>(current_)].id;
  const int64_t start =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
  spans_.push_back(Span{layer, name, id, current_, start, start});
  current_ = static_cast<int64_t>(spans_.size()) - 1;
  return current_;
}

void SpanLog::Close(int64_t index) {
  // A span opened while recording is closed even if recording stopped since.
  if (index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
  current_ = span.parent;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"layer\": \"" << s.layer << "\", \"name\": \"" << s.name
        << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

// --- statistics and digests --------------------------------------------------

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5 && values.size() % 2 == 0) {
    const size_t mid = values.size() / 2;
    return 0.5 * (values[mid - 1] + values[mid]);
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

SessionKey Digest(const std::string& bytes) {
  return rave::runner::HashBytes(reinterpret_cast<const uint8_t*>(bytes.data()),
                                 bytes.size(), 0x70657266);
}

// --- sweep -------------------------------------------------------------------

SweepPlan MakeSweepPlan(uint64_t seed, int seeds_per_cell, double duration_s) {
  static constexpr double kSeverities[] = {0.3, 0.5, 0.7};
  SweepPlan plan;
  const auto duration = rave::TimeDelta::SecondsF(duration_s);
  for (double severity : kSeverities) {
    const rave::Interned<rave::net::CapacityTrace> trace =
        rave::bench::DropTrace(severity);
    for (rave::video::ContentClass content : rave::video::kAllContentClasses) {
      for (int s = 0; s < seeds_per_cell; ++s) {
        for (int k = 0; k < kSweepSchemeCount; ++k) {
          const uint64_t session_seed =
              seed * 1000003ULL + static_cast<uint64_t>(s) + 1;
          plan.configs.push_back(rave::bench::DefaultConfig(
              kSweepSchemes[k], trace, content, duration, session_seed));
          plan.scheme_index.push_back(k);
          plan.sim_seconds += duration_s;
        }
      }
    }
  }
  return plan;
}

namespace {

uint64_t CounterValue(const rave::obs::RegistrySnapshot& snapshot,
                      const char* name) {
  const rave::obs::MetricSnapshot* m = snapshot.Find(name);
  return m != nullptr && m->kind == rave::obs::MetricKind::kCounter ? m->counter
                                                                    : 0;
}

}  // namespace

std::vector<SessionSample> RunSweepPass(const SweepPlan& plan, PassTime* time) {
  std::vector<SessionSample> samples(plan.configs.size());
  *time = PassTime{};
  const SpanScope pass_span("perfbench", "sweep.pass");
  for (size_t i = 0; i < samples.size(); ++i) {
    SessionSample& s = samples[i];
    std::optional<rave::rtc::SessionResult> result;
    {
      const SpanScope span("rtc", "RunSession", i + 1);
      const rave::AllocScope allocs;
      const double cpu_start = ProcessCpuSeconds();
      const Clock::time_point start = Clock::now();
      result = rave::rtc::RunSession(plan.configs[i]);
      s.wall_s = SecondsSince(start);
      time->cpu_s += ProcessCpuSeconds() - cpu_start;
      s.allocs = allocs.allocs();
    }
    time->wall_s += s.wall_s;
    Meter().MaybeSlice();
    const rave::rtc::SessionResult& r = *result;
    {
      const SpanScope span("runner", "EncodeResult", i + 1);
      const std::vector<uint8_t> payload = ResultCache::EncodeResult(r);
      s.digest = rave::runner::HashBytes(payload.data(), payload.size(), 0);
    }
    s.scheme = plan.scheme_index[i];
    s.events = r.events_executed;
    s.packets_delivered = r.link_stats.packets_delivered;
    s.tail_drops = r.link_stats.packets_dropped;
    s.packets_to_link = r.link_stats.packets_delivered +
                        r.link_stats.packets_dropped +
                        r.link_stats.packets_lost_random;
    s.feedback_updates = CounterValue(r.metrics, "cc.feedback_updates");
    s.frames_encoded = CounterValue(r.metrics, "encoder.frames_encoded");
    s.reencodes = CounterValue(r.metrics, "encoder.reencodes");
    s.frames_captured = r.summary.frames_captured;
  }
  return samples;
}

// --- suite -------------------------------------------------------------------

namespace {

/// stdout of the entry followed by every output file it declares.
std::string CollectOutputs(const rave::bench::BenchEntry& entry,
                           const std::string& captured) {
  std::string bytes = captured;
  if (entry.outputs == nullptr || std::string(entry.outputs) == "-") return bytes;
  std::istringstream files(entry.outputs);
  std::string file;
  while (files >> file) {
    std::ifstream in(file, std::ios::binary);
    bytes += '\0';
    bytes += file;
    bytes += '\0';
    if (in) bytes.append(std::istreambuf_iterator<char>(in), {});
  }
  return bytes;
}

}  // namespace

SuitePass RunSuitePass(const std::string& cache_dir,
                       const SuiteOptions& options) {
  namespace bench = rave::bench;
  ResultCache::Options cache_options;
  cache_options.dir = cache_dir;
  ResultCache cache(cache_options);
  bench::SetSuiteCache(&cache);
  bench::ResetSuiteMetrics();
  rave::obs::RuntimeStats::Instance().Reset();

  std::vector<std::string> base_args = {
      "perfbench", "--jobs=" + std::to_string(options.jobs)};
  if (options.duration_s > 0.0) {
    std::ostringstream d;
    d << "--duration=" << options.duration_s;
    base_args.push_back(d.str());
  }

  SuitePass pass;
  const SpanScope pass_span("perfbench", "suite.pass");
  const size_t ref_mark = Meter().slices();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  uint64_t entry_id = 0;
  for (const bench::BenchEntry& entry : bench::AllBenches()) {
    const SpanScope span("bench", entry.name, ++entry_id);
    std::vector<std::string> args = base_args;
    args[0] += std::string("/") + entry.name;
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());

    EntryOutcome outcome;
    const uint64_t computes_before = cache.stats().computes;
    bench::ResetBenchMetrics();
    std::ostringstream captured;
    std::streambuf* real_cout = std::cout.rdbuf(captured.rdbuf());
    const Clock::time_point entry_start = Clock::now();
    try {
      outcome.exit_code = entry.entry(static_cast<int>(argv.size()), argv.data());
    } catch (const std::exception& e) {
      std::cerr << "perfbench: entry " << entry.name << " threw: " << e.what()
                << '\n';
      outcome.exit_code = 1;
    }
    outcome.ms = SecondsSince(entry_start) * 1e3;
    std::cout.rdbuf(real_cout);
    outcome.computes = cache.stats().computes - computes_before;
    outcome.digest = Digest(CollectOutputs(entry, captured.str()));
    pass.entries.push_back(outcome);
    Meter().MaybeSlice();
  }
  // The pass's own time leaves out the reference slices.
  pass.time.wall_s = SecondsSince(start) - Meter().WallSince(ref_mark);
  pass.time.cpu_s = ProcessCpuSeconds() - cpu_start - Meter().CpuSince(ref_mark);
  pass.cache = cache.stats();
  const rave::obs::RegistrySnapshot runtime =
      rave::obs::RuntimeStats::Instance().Snapshot();
  if (const rave::obs::MetricSnapshot* m = runtime.Find("wall.session_ms")) {
    pass.session_busy_s =
        (m->kind == rave::obs::MetricKind::kSketch ? m->sketch.sum() : m->sum) /
        1e3;
  }
  bench::SetSuiteCache(nullptr);
  return pass;
}

namespace {

/// Parses a `<32 hex>.rrc` blob filename back into its key.
bool KeyFromBlobName(const std::string& name, SessionKey* key) {
  if (name.size() != 36 || name.substr(32) != ".rrc") return false;
  uint64_t words[2] = {0, 0};
  for (int i = 0; i < 32; ++i) {
    const char c = name[static_cast<size_t>(i)];
    uint64_t v = 0;
    if (c >= '0' && c <= '9') {
      v = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    words[i / 16] = (words[i / 16] << 4) | v;
  }
  key->hi = words[0];
  key->lo = words[1];
  return true;
}

/// Simulated seconds a result covers: its last timeseries sample or frame.
double SimSeconds(const rave::rtc::SessionResult& r) {
  double s = 0.0;
  if (!r.timeseries.empty()) s = r.timeseries.back().at.seconds();
  if (!r.frames.empty()) s = std::max(s, r.frames.back().capture_time.seconds());
  return s;
}

}  // namespace

CacheScan ScanCacheDir(const std::string& dir, size_t keep) {
  CacheScan scan;
  std::vector<std::pair<std::string, uint64_t>> blobs;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) {
      blobs.emplace_back(e.path().filename().string(), e.file_size());
    }
  }
  std::sort(blobs.begin(), blobs.end());
  std::vector<SessionKey> keys;
  uint64_t total_bytes = 0;
  for (const auto& [name, size] : blobs) {
    SessionKey key;
    if (!KeyFromBlobName(name, &key)) continue;
    keys.push_back(key);
    total_bytes += size;
  }
  ResultCache::Options options;
  options.dir = dir;
  ResultCache cache(options);
  const SpanScope span("runner", "Lookup.scan");
  const Clock::time_point start = Clock::now();
  for (const SessionKey& key : keys) {
    std::optional<rave::rtc::SessionResult> r = cache.Lookup(key);
    if (!r) continue;
    ++scan.sessions;
    scan.sim_seconds += SimSeconds(*r);
    if (scan.sample.size() < keep) scan.sample.push_back(std::move(*r));
  }
  scan.lookup_s = SecondsSince(start);
  if (!keys.empty()) {
    scan.mean_blob_kb = static_cast<double>(total_bytes) / 1024.0 /
                        static_cast<double>(keys.size());
  }
  return scan;
}

}  // namespace perfbench
