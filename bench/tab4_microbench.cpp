// Table 4: controller overhead microbenchmarks (google-benchmark). The
// paper's premise is that per-frame adaptation is cheap enough to run in
// the encode path; these benchmarks measure the per-frame decision cost of
// each rate control, the R-D model, the estimator's per-feedback cost, and
// the event-loop schedule/cancel path.
//
// An allocation section follows: with the RAVE_ALLOC_PROBE build option it
// counts steady-state allocations per event-loop event and per encoded
// frame, and records them in BENCH_hotpath.json.
// Simulator throughput and per-layer wall attribution are perfbench's job
// (perfbench/README.md).
//
// Flags: --hotpath-json=PATH (default BENCH_hotpath.json; "-" disables),
//        --smoke (skip the google-benchmark loop, shorten the allocation
//        sessions),
//        plus any --benchmark_* flag google-benchmark accepts.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cc/gcc.h"
#include "codec/abr_rate_control.h"
#include "codec/cbr_rate_control.h"
#include "codec/encoder.h"
#include "core/adaptive_rate_control.h"
#include "rtc/session.h"
#include "sim/event_loop.h"
#include "util/alloc_probe.h"
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

// --- allocation section -----------------------------------------------

struct AllocStats {
  double allocs_per_event = 0;
  double allocs_per_frame = 0;
  bool alloc_probe = false;
};

/// Steady-state allocation rates the zero-allocation design promises: per
/// event over schedule+fire cycles of the BM_EventLoopScheduleRun/4096
/// pattern, and per frame as a long-minus-short session delta so
/// construction and warm-up costs cancel. Both read 0 when the build lacks
/// RAVE_ALLOC_PROBE.
AllocStats MeasureAllocs(bool smoke) {
  AllocStats stats;
  stats.alloc_probe = AllocProbeEnabled();
  if (!stats.alloc_probe) return stats;

  const int64_t batch = 4096;
  const int rounds = smoke ? 50 : 500;
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
  {
    AllocScope scope;
    for (int r = 0; r < rounds; ++r) cycle();
    stats.allocs_per_event = static_cast<double>(scope.allocs()) /
                             (static_cast<double>(rounds) * batch);
  }
  benchmark::DoNotOptimize(sink);

  auto session_allocs = [](double seconds) {
    rtc::SessionConfig config;
    config.duration = TimeDelta::SecondsF(seconds);
    AllocScope scope;
    const rtc::SessionResult result = rtc::RunSession(config);
    return std::pair<uint64_t, size_t>(scope.allocs(), result.frames.size());
  };
  const auto [short_allocs, short_frames] = session_allocs(smoke ? 3.0 : 5.0);
  const auto [long_allocs, long_frames] = session_allocs(smoke ? 6.0 : 10.0);
  if (long_allocs > short_allocs && long_frames > short_frames) {
    stats.allocs_per_frame = static_cast<double>(long_allocs - short_allocs) /
                             static_cast<double>(long_frames - short_frames);
  }
  return stats;
}

void RunAllocSection(bool smoke, const std::string& json_path) {
  const AllocStats stats = MeasureAllocs(smoke);

  std::cout << "\nHot-path allocations (batch=4096"
            << (stats.alloc_probe ? ", alloc probe on" : ", alloc probe OFF")
            << ")\n\n";
  Table table({"metric", "value"});
  table.AddRow()
      .Cell("allocations/event, steady state")
      .Cell(stats.allocs_per_event, 4);
  table.AddRow()
      .Cell("allocations/frame, steady state")
      .Cell(stats.allocs_per_frame, 2);
  table.Print(std::cout);

  if (json_path != "-") {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"alloc_probe\": " << (stats.alloc_probe ? "true" : "false")
         << ",\n"
         << "  \"allocs_per_event\": " << stats.allocs_per_event << ",\n"
         << "  \"allocs_per_frame\": " << stats.allocs_per_frame << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
}

}  // namespace
}  // namespace rave

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  try {
    const rave::Flags flags(argc - 1, argv + 1);
    for (const std::string& key : flags.UnknownKeys({"hotpath-json", "smoke"})) {
      std::cerr << "error: unknown flag --" << key
                << "\nsee the header of bench/tab4_microbench.cpp\n";
      return 2;
    }
    const bool smoke = flags.GetBool("smoke", false);
    const std::string hotpath_json_path =
        flags.GetString("hotpath-json", "BENCH_hotpath.json");

    if (!smoke) benchmark::RunSpecifiedBenchmarks();
    rave::RunAllocSection(smoke, hotpath_json_path);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
