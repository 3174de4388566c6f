// Table 4: controller overhead microbenchmarks (google-benchmark) plus
// simulator throughput. The paper's premise is that per-frame adaptation is
// cheap enough to run in the encode path; these benchmarks measure the
// per-frame decision cost of each rate control, the R-D model, the
// estimator's per-feedback cost, and the event-loop schedule/cancel path.
//
// After the microbenchmarks a throughput section measures end-to-end
// simulation speed — wall clock, sessions/sec and events/sec, serial vs
// parallel (`--jobs`) — cross-checks that the parallel results are
// bit-identical to the serial ones, and records the numbers in
// BENCH_runner.json so future PRs have a perf trajectory to compare
// against.
//
// A hot-path section then measures the event loop's schedule/cancel/fire
// throughput with manual timing and — when the build carries the
// RAVE_ALLOC_PROBE option — the steady-state allocation counts per
// event-loop cycle and per encoded frame, recorded in BENCH_hotpath.json.
//
// A lockstep batch sweep follows: the same session matrix and the distilled
// per-frame control loop (runner/control_loop.h) each run at batch=1 vs
// batch=B on one core, equality-checked, reporting sim-seconds simulated
// per wall-second — the number the SoA/simd batching is meant to move.
//
// Flags: --jobs=N (parallel worker count, default hardware concurrency),
//        --runner-sessions=N (matrix size, default 64),
//        --runner-duration=S (simulated seconds per session, default 30),
//        --batch=B (lockstep batch size for the sweep, default 16),
//        --simd=scalar|avx2|auto (force the kernel dispatch level),
//        --json=PATH (default BENCH_runner.json; "-" disables),
//        --hotpath-json=PATH (default BENCH_hotpath.json; "-" disables),
//        --smoke (skip the google-benchmark loop, shrink the matrix),
//        plus any --benchmark_* flag google-benchmark accepts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "cc/gcc.h"
#include "codec/abr_rate_control.h"
#include "codec/cbr_rate_control.h"
#include "codec/encoder.h"
#include "common.h"
#include "core/adaptive_rate_control.h"
#include "obs/metrics_registry.h"
#include "obs/sketch.h"
#include "obs/stage_timer.h"
#include "rtc/session.h"
#include "runner/control_loop.h"
#include "runner/parallel_runner.h"
#include "sim/event_loop.h"
#include "simd/dispatch.h"
#include "util/alloc_probe.h"
#include "util/byteio.h"
#include "util/flags.h"
#include "util/table.h"
#include "video/video_source.h"

namespace rave {
namespace {

video::RawFrame MakeFrame() {
  video::RawFrame f;
  f.spatial_complexity = 1.0;
  f.temporal_complexity = 0.5;
  return f;
}

void BM_RdModelActualBits(benchmark::State& state) {
  codec::RdModel model({}, Rng(1));
  const video::RawFrame frame = MakeFrame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.ActualBits(codec::FrameType::kDelta, frame, 5.0));
  }
}
BENCHMARK(BM_RdModelActualBits);

template <typename Rc>
std::unique_ptr<codec::RateControl> MakeRc();

template <>
std::unique_ptr<codec::RateControl> MakeRc<codec::AbrRateControl>() {
  return std::make_unique<codec::AbrRateControl>(codec::AbrConfig{});
}
template <>
std::unique_ptr<codec::RateControl> MakeRc<codec::CbrRateControl>() {
  return std::make_unique<codec::CbrRateControl>(codec::CbrConfig{});
}
template <>
std::unique_ptr<codec::RateControl> MakeRc<core::AdaptiveRateControl>() {
  return std::make_unique<core::AdaptiveRateControl>(core::AdaptiveConfig{});
}

template <typename Rc>
void BM_PerFrameDecision(benchmark::State& state) {
  auto rc = MakeRc<Rc>();
  const video::RawFrame frame = MakeFrame();
  Timestamp now = Timestamp::Zero();
  codec::FrameOutcome outcome;
  outcome.type = codec::FrameType::kDelta;
  outcome.qp = 28.0;
  outcome.qscale = codec::QpToQscale(28.0);
  outcome.size = DataSize::Bits(50'000);
  outcome.complexity_term = 1280.0 * 720.0 * 0.5;
  for (auto _ : state) {
    now += TimeDelta::Millis(33);
    const codec::FrameGuidance g =
        rc->PlanFrame(frame, codec::FrameType::kDelta, now);
    benchmark::DoNotOptimize(g);
    rc->OnFrameEncoded(outcome, now);
  }
}
BENCHMARK(BM_PerFrameDecision<codec::AbrRateControl>)
    ->Name("BM_PerFrameDecision/x264-abr");
BENCHMARK(BM_PerFrameDecision<codec::CbrRateControl>)
    ->Name("BM_PerFrameDecision/x264-cbr");
BENCHMARK(BM_PerFrameDecision<core::AdaptiveRateControl>)
    ->Name("BM_PerFrameDecision/rave-adaptive");

void BM_AdaptiveNetworkUpdate(benchmark::State& state) {
  core::AdaptiveRateControl rc(core::AdaptiveConfig{});
  core::NetworkObservation obs;
  obs.target = DataRate::KilobitsPerSec(1200);
  obs.acked_rate = DataRate::KilobitsPerSec(1100);
  obs.rtt = TimeDelta::Millis(50);
  obs.pacer_queue = DataSize::Bits(40'000);
  obs.in_flight = DataSize::Bits(80'000);
  for (auto _ : state) {
    obs.at += TimeDelta::Millis(50);
    rc.OnNetworkUpdate(obs);
    benchmark::DoNotOptimize(rc.network_state());
  }
}
BENCHMARK(BM_AdaptiveNetworkUpdate);

void BM_GccPerFeedback(benchmark::State& state) {
  cc::GccEstimator gcc;
  int64_t seq = 0;
  Timestamp now = Timestamp::Zero();
  for (auto _ : state) {
    std::vector<transport::PacketResult> results;
    results.reserve(8);
    for (int i = 0; i < 8; ++i) {
      transport::PacketResult r;
      r.seq = seq++;
      r.size = DataSize::Bits(9'600);
      r.send_time = now + TimeDelta::Millis(6 * i);
      r.arrival = r.send_time + TimeDelta::Millis(30);
      results.push_back(r);
    }
    now += TimeDelta::Millis(50);
    gcc.OnPacketResults(results, now);
    benchmark::DoNotOptimize(gcc.target());
  }
}
BENCHMARK(BM_GccPerFeedback);

void BM_FullEncodeLoop(benchmark::State& state) {
  codec::EncoderConfig config;
  codec::Encoder encoder(
      config, std::make_unique<core::AdaptiveRateControl>(
                  core::AdaptiveConfig{}));
  video::VideoSource source({});
  Timestamp now = Timestamp::Zero();
  for (auto _ : state) {
    now += TimeDelta::Millis(33);
    benchmark::DoNotOptimize(
        encoder.EncodeFrame(source.CaptureFrame(now), now));
  }
}
BENCHMARK(BM_FullEncodeLoop);

// Event-loop hot paths: schedule/run churn (the per-packet pattern) and the
// cancel-heavy pattern (retransmission timers armed and disarmed without
// ever firing). Before the O(1) tombstone lookup the second benchmark was
// quadratic in the pending-event count.
void BM_EventLoopScheduleRun(benchmark::State& state) {
  const int64_t batch = state.range(0);
  EventLoop loop;
  loop.Reserve(static_cast<size_t>(batch));
  int64_t sink = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < batch; ++i) {
      loop.Schedule(TimeDelta::Micros(i % 97), [&sink] { ++sink; });
    }
    loop.RunAll();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(256)->Arg(4096);

void BM_EventLoopScheduleCancel(benchmark::State& state) {
  const int64_t batch = state.range(0);
  EventLoop loop;
  loop.Reserve(static_cast<size_t>(batch));
  std::vector<EventHandle> handles;
  handles.reserve(static_cast<size_t>(batch));
  int64_t sink = 0;
  for (auto _ : state) {
    handles.clear();
    for (int64_t i = 0; i < batch; ++i) {
      handles.push_back(
          loop.Schedule(TimeDelta::Micros(100 + i % 97), [&sink] { ++sink; }));
    }
    // Cancel every other event, then drain: half run, half are tombstones
    // the pop path must skip.
    for (size_t i = 0; i < handles.size(); i += 2) loop.Cancel(handles[i]);
    loop.RunAll();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventLoopScheduleCancel)->Arg(256)->Arg(4096);

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- hot-path section -------------------------------------------------

struct HotpathStats {
  double schedule_run_events_per_s = 0;
  double schedule_cancel_events_per_s = 0;
  double allocs_per_event = 0;
  double allocs_per_frame = 0;
  bool alloc_probe = false;
};

/// Manual (non-google-benchmark) timing of the event-loop hot paths plus the
/// steady-state allocation rates the zero-allocation design promises. The
/// allocation figures use a long-minus-short delta so construction and
/// warm-up costs cancel; they read 0 when the build lacks RAVE_ALLOC_PROBE.
HotpathStats MeasureHotpath(bool smoke) {
  HotpathStats stats;
  stats.alloc_probe = AllocProbeEnabled();
  const int64_t batch = 4096;
  const int rounds = smoke ? 50 : 500;

  {
    EventLoop loop;
    loop.Reserve(static_cast<size_t>(batch));
    int64_t sink = 0;
    auto cycle = [&] {
      for (int64_t i = 0; i < batch; ++i) {
        loop.Schedule(TimeDelta::Micros(i % 97), [&sink] { ++sink; });
      }
      loop.RunAll();
    };
    cycle();  // warm-up
    const auto start = std::chrono::steady_clock::now();
    AllocScope scope;
    for (int r = 0; r < rounds; ++r) cycle();
    const double events = static_cast<double>(rounds) * batch;
    stats.schedule_run_events_per_s = events / WallSeconds(start);
    stats.allocs_per_event = static_cast<double>(scope.allocs()) / events;
  }
  {
    EventLoop loop;
    loop.Reserve(static_cast<size_t>(batch));
    std::vector<EventHandle> handles;
    handles.reserve(static_cast<size_t>(batch));
    int64_t sink = 0;
    auto cycle = [&] {
      handles.clear();
      for (int64_t i = 0; i < batch; ++i) {
        handles.push_back(loop.Schedule(TimeDelta::Micros(100 + i % 97),
                                        [&sink] { ++sink; }));
      }
      for (size_t i = 0; i < handles.size(); i += 2) loop.Cancel(handles[i]);
      loop.RunAll();
    };
    cycle();  // warm-up
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) cycle();
    stats.schedule_cancel_events_per_s =
        static_cast<double>(rounds) * batch / WallSeconds(start);
  }
  if (stats.alloc_probe) {
    auto session_allocs = [](double seconds) {
      rtc::SessionConfig config;
      config.duration = TimeDelta::SecondsF(seconds);
      AllocScope scope;
      const rtc::SessionResult result = rtc::RunSession(config);
      return std::pair<uint64_t, size_t>(scope.allocs(), result.frames.size());
    };
    const auto [short_allocs, short_frames] =
        session_allocs(smoke ? 3.0 : 5.0);
    const auto [long_allocs, long_frames] = session_allocs(smoke ? 6.0 : 10.0);
    if (long_allocs > short_allocs && long_frames > short_frames) {
      stats.allocs_per_frame = static_cast<double>(long_allocs - short_allocs) /
                               static_cast<double>(long_frames - short_frames);
    }
  }
  return stats;
}

// --- sketch-vs-vector aggregation -------------------------------------

struct AggregationStats {
  /// Sessions folded into the cross-session aggregate per second.
  double sketch_sessions_per_s = 0;
  double vector_sessions_per_s = 0;
  /// Bytes each path retains per session to answer percentile queries.
  double sketch_bytes_per_session = 0;
  double vector_bytes_per_session = 0;
  double samples_per_session = 0;
};

/// Cross-session latency aggregation, both candidate paths: merging the
/// per-session quantile sketches (what the suite does now — O(sketch)
/// memory) vs retaining every per-frame latency vector and selecting exact
/// order statistics (the old path — O(total frames) memory). Each round
/// aggregates the same simulated sessions and answers the p50/p95/p99
/// ladder, so the throughput numbers compare like for like.
AggregationStats MeasureAggregation(bool smoke) {
  AggregationStats stats;
  const int sessions = 8;
  const double severities[] = {0.3, 0.5, 0.7};
  std::vector<rtc::SessionResult> results;
  results.reserve(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    results.push_back(rtc::RunSession(bench::DefaultConfig(
        rtc::Scheme::kAdaptive,
        bench::DropTrace(severities[static_cast<size_t>(i) % 3]),
        video::ContentClass::kTalkingHead,
        TimeDelta::SecondsF(smoke ? 6.0 : 15.0),
        static_cast<uint64_t>(i) + 1)));
  }

  std::vector<const obs::QuantileSketch*> sketches;
  std::vector<std::vector<double>> vectors;
  uint64_t total_samples = 0;
  uint64_t sketch_bytes = 0;
  for (const rtc::SessionResult& r : results) {
    const obs::QuantileSketch* s = bench::LatencySketch(r);
    if (s == nullptr) continue;
    sketches.push_back(s);
    vectors.push_back(bench::FrameLatenciesMs(r));
    total_samples += vectors.back().size();
    ByteWriter w;
    s->Encode(w);
    sketch_bytes += w.bytes().size();
  }
  if (sketches.empty()) return stats;
  stats.samples_per_session =
      static_cast<double>(total_samples) / static_cast<double>(sketches.size());
  stats.sketch_bytes_per_session =
      static_cast<double>(sketch_bytes) / static_cast<double>(sketches.size());
  stats.vector_bytes_per_session =
      stats.samples_per_session * static_cast<double>(sizeof(double));

  const int rounds = smoke ? 200 : 2000;
  const double quantiles[] = {0.50, 0.95, 0.99};
  double sink = 0;
  {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      obs::QuantileSketch merged;
      for (const obs::QuantileSketch* s : sketches) merged.Merge(*s);
      for (double q : quantiles) sink += merged.Quantile(q);
    }
    stats.sketch_sessions_per_s = static_cast<double>(rounds) *
                                  static_cast<double>(sketches.size()) /
                                  WallSeconds(start);
  }
  {
    std::vector<double> all;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
      all.clear();
      all.reserve(static_cast<size_t>(total_samples));
      for (const std::vector<double>& v : vectors) {
        all.insert(all.end(), v.begin(), v.end());
      }
      for (double q : quantiles) {
        const size_t k = std::min(
            all.size() - 1,
            static_cast<size_t>(q * static_cast<double>(all.size() - 1)));
        std::nth_element(all.begin(),
                         all.begin() + static_cast<std::ptrdiff_t>(k),
                         all.end());
        sink += all[k];
      }
    }
    stats.vector_sessions_per_s = static_cast<double>(rounds) *
                                  static_cast<double>(vectors.size()) /
                                  WallSeconds(start);
  }
  benchmark::DoNotOptimize(sink);
  return stats;
}

void RunHotpathSection(bool smoke, const std::string& json_path) {
  const HotpathStats stats = MeasureHotpath(smoke);
  const AggregationStats agg = MeasureAggregation(smoke);

  std::cout << "\nEvent-loop hot path (manual timing, batch=4096"
            << (stats.alloc_probe ? ", alloc probe on" : ", alloc probe OFF")
            << ")\n\n";
  Table table({"metric", "value"});
  table.AddRow()
      .Cell("schedule+fire (M events/s)")
      .Cell(stats.schedule_run_events_per_s / 1e6, 2);
  table.AddRow()
      .Cell("schedule+cancel+fire (M events/s)")
      .Cell(stats.schedule_cancel_events_per_s / 1e6, 2);
  table.AddRow()
      .Cell("allocations/event, steady state")
      .Cell(stats.allocs_per_event, 4);
  table.AddRow()
      .Cell("allocations/frame, steady state")
      .Cell(stats.allocs_per_frame, 2);
  table.Print(std::cout);

  std::cout << "\nCross-session latency aggregation ("
            << agg.samples_per_session << " samples/session): sketch merge "
               "vs exact vectors\n\n";
  Table agg_table({"path", "sessions/s", "bytes/session"});
  agg_table.AddRow()
      .Cell("sketch merge + quantile ladder")
      .Cell(agg.sketch_sessions_per_s, 0)
      .Cell(agg.sketch_bytes_per_session, 0);
  agg_table.AddRow()
      .Cell("vector concat + nth_element")
      .Cell(agg.vector_sessions_per_s, 0)
      .Cell(agg.vector_bytes_per_session, 0);
  agg_table.Print(std::cout);

  if (json_path != "-") {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"alloc_probe\": " << (stats.alloc_probe ? "true" : "false")
         << ",\n"
         << "  \"schedule_run_events_per_s\": "
         << stats.schedule_run_events_per_s << ",\n"
         << "  \"schedule_cancel_events_per_s\": "
         << stats.schedule_cancel_events_per_s << ",\n"
         << "  \"allocs_per_event\": " << stats.allocs_per_event << ",\n"
         << "  \"allocs_per_frame\": " << stats.allocs_per_frame << ",\n"
         << "  \"sketch_agg_sessions_per_s\": " << agg.sketch_sessions_per_s
         << ",\n"
         << "  \"vector_agg_sessions_per_s\": " << agg.vector_sessions_per_s
         << ",\n"
         << "  \"sketch_bytes_per_session\": " << agg.sketch_bytes_per_session
         << ",\n"
         << "  \"vector_bytes_per_session\": " << agg.vector_bytes_per_session
         << ",\n"
         << "  \"agg_samples_per_session\": " << agg.samples_per_session
         << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
}

// --- throughput section -----------------------------------------------

/// Deterministic session matrix for the throughput measurement: cycles
/// schemes x severities x seeds so the mix resembles a real sweep.
std::vector<rtc::SessionConfig> ThroughputMatrix(int sessions,
                                                 TimeDelta duration) {
  const rtc::Scheme schemes[] = {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive,
                                 rtc::Scheme::kSalsify};
  const double severities[] = {0.3, 0.5, 0.7};
  std::vector<rtc::SessionConfig> configs;
  configs.reserve(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    configs.push_back(bench::DefaultConfig(
        schemes[static_cast<size_t>(i) % std::size(schemes)],
        bench::DropTrace(severities[static_cast<size_t>(i) % std::size(severities)]),
        video::ContentClass::kTalkingHead, duration,
        /*seed=*/static_cast<uint64_t>(i) + 1));
  }
  return configs;
}

bool SameResults(const std::vector<rtc::SessionResult>& a,
                 const std::vector<rtc::SessionResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].scheme_name != b[i].scheme_name ||
        a[i].frames.size() != b[i].frames.size() ||
        a[i].events_executed != b[i].events_executed ||
        a[i].summary.latency_mean_ms != b[i].summary.latency_mean_ms ||
        a[i].summary.encoded_ssim_mean != b[i].summary.encoded_ssim_mean ||
        a[i].link_stats.packets_delivered != b[i].link_stats.packets_delivered) {
      return false;
    }
  }
  return true;
}

// --- lockstep batch sweep ---------------------------------------------

/// The per-frame control-loop hot path (see runner/control_loop.h) over the
/// fig2-style matrix: the drop-trace suite x every content class. This is
/// the distilled math the SoA/simd batching targets — rate control, R-D
/// model, trendline — without the event-loop/transport machinery around it.
runner::ControlLoopConfig ControlSweepConfig(TimeDelta duration) {
  runner::ControlLoopConfig config;
  config.duration = duration;
  uint64_t seed = 0;
  for (const auto& [name, trace] : bench::TraceSuite(duration)) {
    for (video::ContentClass content : video::kAllContentClasses) {
      config.lanes.push_back({content, ++seed, trace});
    }
  }
  return config;
}

struct ControlSweep {
  size_t lanes = 0;
  double sim_seconds = 0;
  double scalar_wall_s = 0;
  double batched_wall_s = 0;
  bool identical = false;
};

ControlSweep MeasureControlSweep(TimeDelta duration, int batch) {
  ControlSweep sweep;
  const runner::ControlLoopConfig config = ControlSweepConfig(duration);
  sweep.lanes = config.lanes.size();
  sweep.sim_seconds = static_cast<double>(sweep.lanes) * duration.seconds();

  auto scalar_start = std::chrono::steady_clock::now();
  const auto scalar = runner::RunControlLoop(config, /*batch=*/1);
  sweep.scalar_wall_s = WallSeconds(scalar_start);

  auto batched_start = std::chrono::steady_clock::now();
  const auto batched = runner::RunControlLoop(config, batch);
  sweep.batched_wall_s = WallSeconds(batched_start);

  sweep.identical = scalar == batched;
  return sweep;
}

// --- per-stage breakdown ----------------------------------------------

/// Wall-clock attribution of a jobs=1 run of `configs` to the hot-path
/// stages (obs/stage_timer.h): rate control, R-D math, trendline estimator,
/// and the transport split per hop (pacer, link, feedback+NACK, assembler);
/// the remainder is event-loop machinery and everything else. Runs as a
/// dedicated instrumented pass so the Scope overhead never pollutes the
/// speedup numbers.
struct StageBreakdown {
  double wall_s = 0;
  double control_s = 0;
  double rd_s = 0;
  double trendline_s = 0;
  double pacer_s = 0;
  double link_s = 0;
  double feedback_nack_s = 0;
  double assembler_s = 0;
  /// The former monolithic transport bucket, kept for trajectory continuity.
  double transport_s() const {
    return pacer_s + link_s + feedback_nack_s + assembler_s;
  }
  double other_s() const {
    return std::max(0.0,
                    wall_s - control_s - rd_s - trendline_s - transport_s());
  }
};

StageBreakdown MeasureStageBreakdown(
    const std::vector<rtc::SessionConfig>& configs, int batch) {
  obs::StageTimer::Enable(true);
  obs::StageTimer::Reset();
  const auto start = std::chrono::steady_clock::now();
  runner::RunSessions(configs, /*jobs=*/1, /*cache=*/nullptr, batch);
  StageBreakdown b;
  b.wall_s = WallSeconds(start);
  b.control_s = obs::StageTimer::Seconds(obs::StageTimer::kControl);
  b.rd_s = obs::StageTimer::Seconds(obs::StageTimer::kRd);
  b.trendline_s = obs::StageTimer::Seconds(obs::StageTimer::kTrendline);
  b.pacer_s = obs::StageTimer::Seconds(obs::StageTimer::kPacer);
  b.link_s = obs::StageTimer::Seconds(obs::StageTimer::kLink);
  b.feedback_nack_s = obs::StageTimer::Seconds(obs::StageTimer::kFeedbackNack);
  b.assembler_s = obs::StageTimer::Seconds(obs::StageTimer::kAssembler);
  obs::StageTimer::Enable(false);
  return b;
}

void PrintBreakdownRow(Table& table, const char* stage, double serial_s,
                       double serial_wall, double batched_s,
                       double batched_wall) {
  table.AddRow()
      .Cell(stage)
      .Cell(serial_s, 3)
      .Cell(100.0 * serial_s / serial_wall, 1)
      .Cell(batched_s, 3)
      .Cell(100.0 * batched_s / batched_wall, 1);
}

int RunThroughputSection(int sessions, TimeDelta duration, int jobs,
                         int batch, const std::string& json_path) {
  const auto configs = ThroughputMatrix(sessions, duration);

  const auto serial_start = std::chrono::steady_clock::now();
  const auto serial = runner::RunSessions(configs, /*jobs=*/1);
  const double serial_s = WallSeconds(serial_start);

  const int parallel_jobs = jobs > 0 ? jobs : runner::DefaultJobs();
  const auto parallel_start = std::chrono::steady_clock::now();
  const auto parallel = runner::RunSessions(configs, parallel_jobs);
  const double parallel_s = WallSeconds(parallel_start);

  // Lockstep batched full sessions on one core, against the serial run.
  const auto batched_start = std::chrono::steady_clock::now();
  const auto batched =
      runner::RunSessions(configs, /*jobs=*/1, /*cache=*/nullptr, batch);
  const double batched_s = WallSeconds(batched_start);
  const bool batch_identical = SameResults(serial, batched);

  const ControlSweep control = MeasureControlSweep(duration, batch);

  // Instrumented passes (separate from the timed runs above): where does a
  // serial session's wall time go, and how does the batched path shift it?
  const StageBreakdown stage_serial = MeasureStageBreakdown(configs, 1);
  const StageBreakdown stage_batched = MeasureStageBreakdown(configs, batch);

  const uint64_t events = std::accumulate(
      serial.begin(), serial.end(), uint64_t{0},
      [](uint64_t sum, const rtc::SessionResult& r) {
        return sum + r.events_executed;
      });

  const bool identical = SameResults(serial, parallel);
  const double serial_sps = sessions / serial_s;
  const double parallel_sps = sessions / parallel_s;

  std::cout << "\nSimulator throughput (" << sessions << " sessions x "
            << duration.seconds() << " s simulated, jobs=" << parallel_jobs
            << ")\n\n";
  Table table({"mode", "wall(s)", "sessions/s", "events/s", "speedup"});
  table.AddRow()
      .Cell("serial")
      .Cell(serial_s, 3)
      .Cell(serial_sps, 1)
      .Cell(static_cast<double>(events) / serial_s, 0)
      .Cell(1.0, 2);
  table.AddRow()
      .Cell("parallel")
      .Cell(parallel_s, 3)
      .Cell(parallel_sps, 1)
      .Cell(static_cast<double>(events) / parallel_s, 0)
      .Cell(serial_s / parallel_s, 2);
  table.Print(std::cout);
  std::cout << "parallel results bit-identical to serial: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";

  // Batch sweep: sim-seconds simulated per wall-second on ONE core, the
  // number the SoA/simd batching moves. Full sessions batch the whole
  // event-driven pipeline; the control-loop rows isolate the per-frame math
  // the kernels vectorize.
  const double session_sim_s = static_cast<double>(sessions) * duration.seconds();
  std::cout << "\nLockstep batch sweep (batch=" << batch << ", jobs=1, simd="
            << simd::ToString(simd::ActiveLevel()) << ")\n\n";
  Table sweep_table({"workload", "wall(s)", "sim-s/s per core", "speedup"});
  sweep_table.AddRow()
      .Cell("sessions batch=1")
      .Cell(serial_s, 3)
      .Cell(session_sim_s / serial_s, 0)
      .Cell(1.0, 2);
  sweep_table.AddRow()
      .Cell("sessions batch=" + std::to_string(batch))
      .Cell(batched_s, 3)
      .Cell(session_sim_s / batched_s, 0)
      .Cell(serial_s / batched_s, 2);
  sweep_table.AddRow()
      .Cell("control-loop batch=1")
      .Cell(control.scalar_wall_s, 3)
      .Cell(control.sim_seconds / control.scalar_wall_s, 0)
      .Cell(1.0, 2);
  sweep_table.AddRow()
      .Cell("control-loop batch=" + std::to_string(batch))
      .Cell(control.batched_wall_s, 3)
      .Cell(control.sim_seconds / control.batched_wall_s, 0)
      .Cell(control.scalar_wall_s / control.batched_wall_s, 2);
  sweep_table.Print(std::cout);
  std::cout << "batched session results bit-identical to serial: "
            << (batch_identical ? "yes" : "NO — DETERMINISM VIOLATION")
            << "\n"
            << "batched control-loop trajectories bit-identical to scalar: "
            << (control.identical ? "yes" : "NO — DETERMINISM VIOLATION")
            << "\n";

  // Per-stage attribution (instrumented pass; walls here include the Scope
  // overhead and are not comparable to the speedup rows above).
  std::cout << "\nPer-stage wall attribution (jobs=1, instrumented pass)\n\n";
  Table stage_table({"stage", "batch=1 (s)", "%",
                     "batch=" + std::to_string(batch) + " (s)", "%"});
  PrintBreakdownRow(stage_table, "rate control", stage_serial.control_s,
                    stage_serial.wall_s, stage_batched.control_s,
                    stage_batched.wall_s);
  PrintBreakdownRow(stage_table, "R-D math", stage_serial.rd_s,
                    stage_serial.wall_s, stage_batched.rd_s,
                    stage_batched.wall_s);
  PrintBreakdownRow(stage_table, "trendline/GCC", stage_serial.trendline_s,
                    stage_serial.wall_s, stage_batched.trendline_s,
                    stage_batched.wall_s);
  PrintBreakdownRow(stage_table, "pacer+send", stage_serial.pacer_s,
                    stage_serial.wall_s, stage_batched.pacer_s,
                    stage_batched.wall_s);
  PrintBreakdownRow(stage_table, "link", stage_serial.link_s,
                    stage_serial.wall_s, stage_batched.link_s,
                    stage_batched.wall_s);
  PrintBreakdownRow(stage_table, "feedback+nack", stage_serial.feedback_nack_s,
                    stage_serial.wall_s, stage_batched.feedback_nack_s,
                    stage_batched.wall_s);
  PrintBreakdownRow(stage_table, "assembler", stage_serial.assembler_s,
                    stage_serial.wall_s, stage_batched.assembler_s,
                    stage_batched.wall_s);
  PrintBreakdownRow(stage_table, "event loop + other", stage_serial.other_s(),
                    stage_serial.wall_s, stage_batched.other_s(),
                    stage_batched.wall_s);
  stage_table.Print(std::cout);

  if (json_path != "-") {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"sessions\": " << sessions << ",\n"
         << "  \"session_duration_s\": " << duration.seconds() << ",\n"
         << "  \"jobs\": " << parallel_jobs << ",\n"
         << "  \"serial_wall_s\": " << serial_s << ",\n"
         << "  \"parallel_wall_s\": " << parallel_s << ",\n"
         << "  \"serial_sessions_per_s\": " << serial_sps << ",\n"
         << "  \"parallel_sessions_per_s\": " << parallel_sps << ",\n"
         << "  \"speedup\": " << serial_s / parallel_s << ",\n"
         << "  \"events_executed\": " << events << ",\n"
         << "  \"serial_events_per_s\": "
         << static_cast<double>(events) / serial_s << ",\n"
         << "  \"parallel_identical\": " << (identical ? "true" : "false")
         << ",\n"
         << "  \"batch\": " << batch << ",\n"
         << "  \"simd\": \"" << simd::ToString(simd::ActiveLevel()) << "\",\n"
         << "  \"session_batched_wall_s\": " << batched_s << ",\n"
         << "  \"session_sim_s_per_s_batch1\": " << session_sim_s / serial_s
         << ",\n"
         << "  \"session_sim_s_per_s_batched\": " << session_sim_s / batched_s
         << ",\n"
         << "  \"session_batch_speedup\": " << serial_s / batched_s << ",\n"
         << "  \"session_batch_identical\": "
         << (batch_identical ? "true" : "false") << ",\n"
         << "  \"control_lanes\": " << control.lanes << ",\n"
         << "  \"control_sim_s_per_s_batch1\": "
         << control.sim_seconds / control.scalar_wall_s << ",\n"
         << "  \"control_sim_s_per_s_batched\": "
         << control.sim_seconds / control.batched_wall_s << ",\n"
         << "  \"control_batch_speedup\": "
         << control.scalar_wall_s / control.batched_wall_s << ",\n"
         << "  \"control_batch_identical\": "
         << (control.identical ? "true" : "false") << ",\n"
         << "  \"stage_serial_wall_s\": " << stage_serial.wall_s << ",\n"
         << "  \"stage_serial_control_s\": " << stage_serial.control_s << ",\n"
         << "  \"stage_serial_rd_s\": " << stage_serial.rd_s << ",\n"
         << "  \"stage_serial_trendline_s\": " << stage_serial.trendline_s
         << ",\n"
         << "  \"stage_serial_pacer_s\": " << stage_serial.pacer_s << ",\n"
         << "  \"stage_serial_link_s\": " << stage_serial.link_s << ",\n"
         << "  \"stage_serial_feedback_nack_s\": "
         << stage_serial.feedback_nack_s << ",\n"
         << "  \"stage_serial_assembler_s\": " << stage_serial.assembler_s
         << ",\n"
         << "  \"stage_serial_transport_s\": " << stage_serial.transport_s()
         << ",\n"
         << "  \"stage_serial_other_s\": " << stage_serial.other_s() << ",\n"
         << "  \"stage_batched_wall_s\": " << stage_batched.wall_s << ",\n"
         << "  \"stage_batched_control_s\": " << stage_batched.control_s
         << ",\n"
         << "  \"stage_batched_rd_s\": " << stage_batched.rd_s << ",\n"
         << "  \"stage_batched_trendline_s\": " << stage_batched.trendline_s
         << ",\n"
         << "  \"stage_batched_pacer_s\": " << stage_batched.pacer_s << ",\n"
         << "  \"stage_batched_link_s\": " << stage_batched.link_s << ",\n"
         << "  \"stage_batched_feedback_nack_s\": "
         << stage_batched.feedback_nack_s << ",\n"
         << "  \"stage_batched_assembler_s\": " << stage_batched.assembler_s
         << ",\n"
         << "  \"stage_batched_transport_s\": " << stage_batched.transport_s()
         << ",\n"
         << "  \"stage_batched_other_s\": " << stage_batched.other_s()
         << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return identical && batch_identical && control.identical ? 0 : 1;
}

}  // namespace
}  // namespace rave

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  try {
    const rave::Flags flags(argc - 1, argv + 1);
    for (const std::string& key :
         flags.UnknownKeys({"jobs", "runner-sessions", "runner-duration",
                            "json", "hotpath-json", "smoke", "batch",
                            "simd"})) {
      std::cerr << "error: unknown flag --" << key
                << "\nsee the header of bench/tab4_microbench.cpp\n";
      return 2;
    }
    const bool smoke = flags.GetBool("smoke", false);
    const int jobs = static_cast<int>(flags.GetInt("jobs", 0));
    const int sessions =
        static_cast<int>(flags.GetInt("runner-sessions", smoke ? 8 : 64));
    const rave::TimeDelta duration = rave::TimeDelta::SecondsF(
        flags.GetDouble("runner-duration", smoke ? 12.0 : 30.0));
    const int batch = static_cast<int>(flags.GetInt("batch", 16));
    const std::string simd_level = flags.GetString("simd", "");
    if (!simd_level.empty()) {
      rave::simd::Level level;
      if (!rave::simd::ParseLevel(simd_level.c_str(), &level)) {
        std::cerr << "error: bad --simd '" << simd_level
                  << "' (want scalar|avx2|auto|off)\n";
        return 2;
      }
      rave::simd::SetLevel(level);
    }
    const std::string json_path =
        flags.GetString("json", "BENCH_runner.json");
    const std::string hotpath_json_path =
        flags.GetString("hotpath-json", "BENCH_hotpath.json");

    if (!smoke) benchmark::RunSpecifiedBenchmarks();
    rave::RunHotpathSection(smoke, hotpath_json_path);
    return rave::RunThroughputSection(sessions, duration, jobs, batch,
                                      json_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
