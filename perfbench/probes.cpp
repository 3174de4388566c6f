// Layer probes: each one drives a single layer through its public functions
// with session-shaped inputs and divides the wall time by the work done.
// Calls that are cheap relative to a clock read are timed in batches; the
// encoder and rate-control calls, which alternate in one loop, are timed
// per call with the cost of an empty clock pair subtracted.
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cc/gcc.h"
#include "codec/abr_rate_control.h"
#include "codec/encoder.h"
#include "core/adaptive_rate_control.h"
#include "core/salsify_rate_control.h"
#include "metrics/session_metrics.h"
#include "net/link.h"
#include "obs/metrics_registry.h"
#include "perfbench.h"
#include "sim/event_loop.h"
#include "transport/feedback.h"
#include "transport/frame_assembler.h"
#include "transport/pacer.h"
#include "transport/packetizer.h"
#include "video/video_source.h"

namespace perfbench {

namespace {

using rave::DataRate;
using rave::DataSize;
using rave::EventLoop;
using rave::TimeDelta;
using rave::Timestamp;

/// Keeps a probe's result observable so the optimizer cannot drop the work.
volatile double g_sink = 0.0;

constexpr int64_t kPacketBytes = 1268;  // 1200 payload + 68 header
const DataRate kLinkRate = DataRate::KilobitsPerSec(2500);

int64_t ElapsedNs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Mean cost of an empty start/stop clock pair, subtracted from per-call
/// timings.
double ClockPairNs() {
  constexpr int kPairs = 200000;
  int64_t total = 0;
  for (int i = 0; i < kPairs; ++i) {
    const Clock::time_point a = Clock::now();
    total += ElapsedNs(a);
  }
  return static_cast<double>(total) / kPairs;
}

/// A timer that re-arms itself at a fixed period, like the pacer, link,
/// frame, feedback and timeseries timers of a session.
struct Ticker {
  EventLoop* loop = nullptr;
  int64_t period_us = 0;
  void Fire() {
    loop->Schedule(TimeDelta::Micros(period_us), [this] { Fire(); });
  }
};

double ProbeEventLoop() {
  const SpanScope span("probe", "sim.EventLoop");
  // Packet-scale gaps dominate, with frame, propagation, feedback and
  // timeseries cadences mixed in; 256 timers keep as many events pending
  // as a saturated session does.
  static constexpr int64_t kPeriodsUs[] = {420,   650,   980,   1270,  4100,
                                           25000, 33333, 50000, 100000};
  constexpr size_t kTickers = 256;
  constexpr uint64_t kEvents = 4'000'000;
  EventLoop loop;
  loop.Reserve(1024);
  std::vector<Ticker> tickers(kTickers);
  for (size_t i = 0; i < kTickers; ++i) {
    Ticker& t = tickers[i];
    t.loop = &loop;
    t.period_us = kPeriodsUs[i % std::size(kPeriodsUs)];
    loop.Schedule(TimeDelta::Micros(static_cast<int64_t>(i * 37) % t.period_us),
                  [&t] { t.Fire(); });
  }
  const Clock::time_point start = Clock::now();
  Timestamp until = Timestamp::Zero();
  while (loop.events_executed() < kEvents) {
    until = until + TimeDelta::Seconds(1);
    loop.RunUntil(until);
  }
  return static_cast<double>(ElapsedNs(start)) /
         static_cast<double>(loop.events_executed());
}

rave::net::Packet MediaPacket(int64_t seq) {
  rave::net::Packet p;
  p.seq = seq;
  p.media_seq = seq;
  p.size = DataSize::Bytes(kPacketBytes);
  return p;
}

/// Link::Send plus the serialization and delivery events it causes, for
/// frame-sized bursts of seven packets every 33 ms (2.1 Mbit/s into
/// 2.5 Mbit/s, so bursts queue briefly).
double ProbeLink() {
  const SpanScope span("probe", "net.Link");
  constexpr int64_t kPackets = 700'000;
  EventLoop loop;
  loop.Reserve(1024);
  rave::net::Link::Config config;
  config.trace = rave::net::CapacityTrace::Constant(kLinkRate);
  int64_t delivered = 0;
  rave::net::Link link(loop, config,
                       [&delivered](const rave::net::Packet&, Timestamp) {
                         ++delivered;
                       });
  int64_t seq = 0;
  rave::RepeatingTask source(loop, TimeDelta::Micros(33333), [&link, &seq] {
    for (int k = 0; k < 7; ++k) link.Send(MediaPacket(seq++));
  });
  source.StartWithDelay(TimeDelta::Zero());
  const Clock::time_point start = Clock::now();
  Timestamp until = Timestamp::Zero();
  while (delivered < kPackets) {
    until = until + TimeDelta::Seconds(10);
    loop.RunUntil(until);
  }
  return static_cast<double>(ElapsedNs(start)) / static_cast<double>(delivered);
}

/// Packetizer -> Pacer -> Link -> FrameAssembler on one loop: a 30 fps
/// stream of ~1.8 Mbit/s delta frames with a keyframe every 10 s, paced at
/// the link rate. Returns ns per delivered packet and the loop events each
/// packet costs.
void ProbePipeline(UnitCosts* costs) {
  const SpanScope span("probe", "transport.pipeline");
  constexpr int64_t kPackets = 500'000;
  EventLoop loop;
  loop.Reserve(1024);
  int64_t completed = 0;
  int64_t delivered = 0;
  rave::transport::FrameAssembler assembler(
      loop, rave::transport::FrameAssembler::Config{},
      [&completed](const rave::transport::CompleteFrame&) { ++completed; },
      [](int64_t) {});
  rave::net::Link::Config config;
  config.trace = rave::net::CapacityTrace::Constant(kLinkRate);
  rave::net::Link link(
      loop, config,
      [&assembler, &delivered](const rave::net::Packet& p, Timestamp at) {
        ++delivered;
        assembler.OnPacketReceived(p, at);
      });
  int64_t transport_seq = 0;
  rave::transport::Pacer pacer(
      loop, rave::transport::Pacer::Config{.initial_rate = kLinkRate},
      [&link, &transport_seq](rave::net::Packet&& p) {
        p.seq = transport_seq++;
        link.Send(std::move(p));
      });
  rave::transport::Packetizer packetizer;
  std::vector<rave::net::Packet> scratch;
  scratch.reserve(64);
  int64_t frame_id = 0;
  rave::RepeatingTask frames(
      loop, TimeDelta::Micros(33333),
      [&loop, &packetizer, &pacer, &scratch, &frame_id] {
        rave::codec::EncodedFrame f;
        f.frame_id = frame_id;
        f.capture_time = loop.now();
        f.encode_time = loop.now();
        const bool key = frame_id % 300 == 0;
        f.type = key ? rave::codec::FrameType::kKey
                     : rave::codec::FrameType::kDelta;
        f.size = DataSize::Bytes(key ? 30000 : 6500 + (frame_id * 7919) % 2000);
        ++frame_id;
        packetizer.Packetize(f, scratch);
        pacer.Enqueue(scratch);
      });
  frames.StartWithDelay(TimeDelta::Zero());
  const Clock::time_point start = Clock::now();
  Timestamp until = Timestamp::Zero();
  while (delivered < kPackets) {
    until = until + TimeDelta::Seconds(10);
    loop.RunUntil(until);
  }
  const double packets = static_cast<double>(delivered);
  costs->pipeline_ns_per_packet = static_cast<double>(ElapsedNs(start)) / packets;
  costs->pipeline_events_per_packet =
      static_cast<double>(loop.events_executed()) / packets;
  g_sink = g_sink + static_cast<double>(completed);
}

/// One feedback round: the sender records `per_report` sent packets, the
/// receiver records their arrivals and flushes a report, and the sender
/// joins it against its history.
double ProbeFeedback(int per_report) {
  const SpanScope span("probe", "transport.feedback");
  constexpr int kReports = 60000;
  EventLoop loop;
  rave::transport::SentPacketHistory history;
  std::vector<rave::transport::PacketResult> out;
  out.reserve(64);
  rave::transport::FeedbackReport report;
  rave::transport::FeedbackGenerator generator(
      loop, TimeDelta::Millis(50),
      [&report](rave::transport::FeedbackReport&& r) { report = std::move(r); });
  const int64_t gap_us = 50000 / per_report;
  int64_t seq = 0;
  size_t joined = 0;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < kReports; ++r) {
    for (int k = 0; k < per_report; ++k, ++seq) {
      rave::net::Packet p = MediaPacket(seq);
      p.send_time = Timestamp::Micros(seq * gap_us);
      history.OnPacketSent(p);
      generator.OnPacketReceived(p, p.send_time + TimeDelta::Millis(30));
    }
    generator.Flush();
    history.OnFeedback(report, Timestamp::Micros(seq * gap_us + 55000), out);
    joined += out.size();
    generator.Recycle(std::move(report.packets));
  }
  g_sink = g_sink + static_cast<double>(joined);
  return static_cast<double>(ElapsedNs(start)) / kReports;
}

/// GccEstimator::OnPacketResults with `per_report` results per call; the
/// one-way delay follows a 2 s sawtooth so the trendline has a gradient to
/// fit, and one packet in 200 is reported lost.
double ProbeGcc(int per_report) {
  const SpanScope span("probe", "cc.GccEstimator");
  constexpr int kReports = 40000;
  const int64_t gap_us = 50000 / per_report;
  std::vector<std::vector<rave::transport::PacketResult>> reports(kReports);
  std::vector<Timestamp> now(kReports);
  int64_t seq = 0;
  for (int r = 0; r < kReports; ++r) {
    for (int k = 0; k < per_report; ++k, ++seq) {
      rave::transport::PacketResult pr;
      pr.seq = seq;
      pr.size = DataSize::Bytes(kPacketBytes);
      pr.send_time = Timestamp::Micros(seq * gap_us);
      const int64_t queue_us = (seq * gap_us) % 2'000'000 / 100;
      if (seq % 200 != 199) {
        pr.arrival = pr.send_time + TimeDelta::Micros(25000 + queue_us);
      }
      reports[static_cast<size_t>(r)].push_back(pr);
    }
    now[static_cast<size_t>(r)] = Timestamp::Micros(seq * gap_us + 75000);
  }
  rave::cc::GccEstimator::Config config;
  config.initial_rate = DataRate::KilobitsPerSec(2100);
  rave::cc::GccEstimator gcc(config);
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < kReports; ++r) {
    gcc.OnPacketResults(reports[static_cast<size_t>(r)],
                        now[static_cast<size_t>(r)]);
  }
  const double ns = static_cast<double>(ElapsedNs(start)) / kReports;
  g_sink = g_sink + gcc.target().kbps();
  return ns;
}

/// The observation a network-aware controller sees at `at` in a sweep
/// session: 2.1 Mbit/s until the drop at t = 10 s, 1.25 Mbit/s after, with
/// a queueing transient and an overuse signal in the second after the drop.
rave::core::NetworkObservation SweepObservation(Timestamp at) {
  rave::core::NetworkObservation obs;
  obs.at = at;
  const bool dropped = at >= Timestamp::Seconds(10);
  const bool transient = dropped && at < Timestamp::Seconds(12);
  obs.target = DataRate::KilobitsPerSec(dropped ? 1250 : 2100);
  obs.acked_rate = obs.target;
  obs.rtt = TimeDelta::Millis(transient ? 180 : 55);
  obs.usage = transient && at < Timestamp::Seconds(11)
                  ? rave::cc::BandwidthUsage::kOverusing
                  : rave::cc::BandwidthUsage::kNormal;
  obs.overuse_decrease = transient && at < Timestamp::Millis(10100);
  obs.pacer_queue = DataSize::Bytes(transient ? 40000 : 2000);
  obs.in_flight = DataSize::Bytes(transient ? 60000 : 15000);
  return obs;
}

std::unique_ptr<rave::codec::RateControl> MakeRateControl(
    int scheme, rave::core::NetworkAwareRateControl** network_rc) {
  const DataRate initial = DataRate::KilobitsPerSec(2100);
  *network_rc = nullptr;
  switch (kSweepSchemes[scheme]) {
    case rave::rtc::Scheme::kAdaptive: {
      rave::core::AdaptiveConfig c;
      c.initial_target = initial;
      auto rc = std::make_unique<rave::core::AdaptiveRateControl>(c);
      *network_rc = rc.get();
      return rc;
    }
    case rave::rtc::Scheme::kSalsify: {
      rave::core::SalsifyConfig c;
      c.initial_target = initial;
      auto rc = std::make_unique<rave::core::SalsifyRateControl>(c);
      *network_rc = rc.get();
      return rc;
    }
    default: {
      rave::codec::AbrConfig c;
      c.initial_target = initial;
      return std::make_unique<rave::codec::AbrRateControl>(c);
    }
  }
}

/// Encoder::EncodeFrame for each sweep scheme over 60 s of every content
/// class, with the scheme's rate-control inputs at session cadence:
/// OnNetworkUpdate before every frame for the network-aware schemes (timed
/// separately), SetTargetRate every 50 ms for x264-abr (untimed).
void ProbeEncoders(uint64_t seed, double clock_pair_ns, UnitCosts* costs) {
  constexpr int kFrames = 1800;
  constexpr int kRounds = 4;
  std::vector<std::vector<rave::video::RawFrame>> clips;
  for (rave::video::ContentClass content : rave::video::kAllContentClasses) {
    rave::video::VideoSourceConfig source_config;
    source_config.content = content;
    source_config.seed = seed;
    rave::video::VideoSource source(source_config);
    std::vector<rave::video::RawFrame> clip;
    for (int i = 0; i < kFrames; ++i) {
      clip.push_back(source.CaptureFrame(
          Timestamp::Zero() + source.frame_interval() * static_cast<int64_t>(i)));
    }
    clips.push_back(std::move(clip));
  }
  static constexpr const char* kSpanNames[] = {
      "codec.Encoder.x264-abr", "codec.Encoder.rave-adaptive",
      "codec.Encoder.salsify"};
  for (int scheme = 0; scheme < kSweepSchemeCount; ++scheme) {
    const SpanScope span("probe", kSpanNames[scheme]);
    int64_t encode_ns = 0;
    int64_t update_ns = 0;
    int64_t frames = 0;
    int64_t updates = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const std::vector<rave::video::RawFrame>& clip : clips) {
        rave::core::NetworkAwareRateControl* network_rc = nullptr;
        rave::codec::EncoderConfig encoder_config;
        encoder_config.seed = seed ^ 0x9E3779B97F4A7C15ULL;
        rave::codec::Encoder encoder(encoder_config,
                                     MakeRateControl(scheme, &network_rc));
        Timestamp next_target = Timestamp::Zero();
        for (const rave::video::RawFrame& frame : clip) {
          const Timestamp now = frame.capture_time;
          if (network_rc != nullptr) {
            const rave::core::NetworkObservation obs = SweepObservation(now);
            const Clock::time_point t0 = Clock::now();
            network_rc->OnNetworkUpdate(obs);
            update_ns += ElapsedNs(t0);
            ++updates;
          } else {
            while (next_target <= now) {
              encoder.SetTargetRate(SweepObservation(next_target).target);
              next_target = next_target + TimeDelta::Millis(50);
            }
          }
          const Clock::time_point t1 = Clock::now();
          const rave::codec::EncodedFrame out = encoder.EncodeFrame(frame, now);
          encode_ns += ElapsedNs(t1);
          ++frames;
          g_sink = g_sink + out.qp;
        }
      }
    }
    costs->encode_ns_per_frame[scheme] =
        static_cast<double>(encode_ns) / static_cast<double>(frames) -
        clock_pair_ns;
    if (updates > 0) {
      costs->network_update_ns[scheme] =
          static_cast<double>(update_ns) / static_cast<double>(updates) -
          clock_pair_ns;
    }
  }
}

double ProbeCapture(uint64_t seed) {
  const SpanScope span("probe", "video.CaptureFrame");
  constexpr int kFramesPerClass = 150'000;
  int64_t frames = 0;
  double sum = 0.0;
  const Clock::time_point start = Clock::now();
  for (rave::video::ContentClass content : rave::video::kAllContentClasses) {
    rave::video::VideoSourceConfig config;
    config.content = content;
    config.seed = seed;
    rave::video::VideoSource source(config);
    for (int i = 0; i < kFramesPerClass; ++i, ++frames) {
      sum += source.CaptureFrame(Timestamp::Zero() + source.frame_interval() * static_cast<int64_t>(i))
                 .temporal_complexity;
    }
  }
  const double ns = static_cast<double>(ElapsedNs(start)) /
                    static_cast<double>(frames);
  g_sink = g_sink + sum;
  return ns;
}

/// SessionMetrics' per-frame calls (captured, encoded, completed, rendered)
/// over 60 s sessions sized the way Session reserves them.
double ProbeRecord() {
  const SpanScope span("probe", "metrics.SessionMetrics");
  constexpr int kSessions = 150;
  constexpr int kFrames = 1800;
  int64_t frames = 0;
  const Clock::time_point start = Clock::now();
  for (int s = 0; s < kSessions; ++s) {
    rave::metrics::SessionMetrics metrics;
    metrics.Reserve(kFrames + 4, 604);
    for (int i = 0; i < kFrames; ++i, ++frames) {
      const Timestamp at = Timestamp::Micros(int64_t{33333} * i);
      metrics.OnFrameCaptured(i, at);
      rave::metrics::FrameRecord record;
      record.frame_id = i;
      record.capture_time = at;
      record.qp = 30.0 + i % 7;
      record.size = DataSize::Bytes(7000 + i % 900);
      record.ssim = 0.95;
      record.psnr = 38.0;
      metrics.OnFrameEncoded(record);
      metrics.OnFrameCompleted(i, at + TimeDelta::Millis(40 + i % 30));
      metrics.OnFrameRendered(i, at + TimeDelta::Millis(80), i % 50 == 0);
    }
    g_sink = g_sink + static_cast<double>(metrics.frames().size());
  }
  return static_cast<double>(ElapsedNs(start)) / static_cast<double>(frames);
}

/// GetCounter/GetSketch by name on a registry holding the metric names a
/// session registers, cycling through the three per-frame lookups.
double ProbeRegistry(const std::vector<rave::rtc::SessionResult>& sample) {
  const SpanScope span("probe", "obs.MetricsRegistry");
  constexpr int kLookups = 1'500'000;
  rave::obs::MetricsRegistry registry;
  if (!sample.empty()) {
    for (const rave::obs::MetricSnapshot& m : sample.front().metrics.metrics) {
      if (m.kind == rave::obs::MetricKind::kCounter) registry.GetCounter(m.name);
      if (m.kind == rave::obs::MetricKind::kSketch) registry.GetSketch(m.name);
    }
  }
  uint64_t touched = 0;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kLookups; i += 3) {
    registry.GetCounter("encoder.frames_encoded")->Add();
    touched += registry.GetSketch("encoder.qp")->count();
    registry.GetCounter("cc.feedback_updates")->Add();
  }
  const double ns = static_cast<double>(ElapsedNs(start)) / kLookups;
  g_sink = g_sink + static_cast<double>(touched);
  return ns;
}

/// RegistrySnapshot::Merge of whole session snapshots (sketches included),
/// as RunMatrix folds every result into the suite aggregate.
double ProbeSketchMerge(const std::vector<rave::rtc::SessionResult>& sample) {
  const SpanScope span("probe", "obs.RegistrySnapshot.Merge");
  constexpr int kMerges = 4000;
  rave::obs::RegistrySnapshot aggregate;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kMerges; ++i) {
    aggregate.Merge(sample[static_cast<size_t>(i) % sample.size()].metrics);
  }
  const double us = static_cast<double>(ElapsedNs(start)) * 1e-3 / kMerges;
  g_sink = g_sink + static_cast<double>(aggregate.metrics.size());
  return us;
}

void ProbeBlobCodec(const std::vector<rave::rtc::SessionResult>& sample,
                    UnitCosts* costs) {
  constexpr size_t kBlobs = 400;
  std::vector<std::vector<uint8_t>> payloads(sample.size());
  {
    const SpanScope span("probe", "runner.EncodeResult");
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < kBlobs; ++i) {
      payloads[i % sample.size()] =
          rave::runner::ResultCache::EncodeResult(sample[i % sample.size()]);
    }
    costs->encode_us_per_blob =
        static_cast<double>(ElapsedNs(start)) * 1e-3 / kBlobs;
  }
  {
    const SpanScope span("probe", "runner.DecodeResult");
    rave::rtc::SessionResult decoded;
    size_t ok = 0;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < kBlobs; ++i) {
      ok += rave::runner::ResultCache::DecodeResult(payloads[i % payloads.size()],
                                                    &decoded);
    }
    costs->decode_us_per_blob =
        static_cast<double>(ElapsedNs(start)) * 1e-3 / kBlobs;
    g_sink = g_sink + static_cast<double>(ok);
  }
}

/// ResultCache::Put of fresh keys into a directory that already holds the
/// suite's blobs; the probe's own blobs are removed afterwards.
double ProbeStore(const std::vector<rave::rtc::SessionResult>& sample,
                  const std::string& dir, uint64_t seed) {
  const SpanScope span("probe", "runner.ResultCache.Put");
  constexpr int kPuts = 24;
  rave::runner::ResultCache::Options options;
  options.dir = dir;
  rave::runner::ResultCache cache(options);
  std::vector<rave::runner::SessionKey> keys;
  for (int i = 0; i < kPuts; ++i) {
    const std::string tag = "perfbench-store-" + std::to_string(seed) + "-" +
                            std::to_string(i);
    keys.push_back(Digest(tag));
  }
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < kPuts; ++i) {
    cache.Put(keys[static_cast<size_t>(i)],
              sample[static_cast<size_t>(i) % sample.size()], 1000);
  }
  const double ms = static_cast<double>(ElapsedNs(start)) * 1e-6 / kPuts;
  for (const rave::runner::SessionKey& key : keys) {
    std::error_code ec;
    std::filesystem::remove(dir + "/" + key.ToHex() + ".rrc", ec);
  }
  return ms;
}

}  // namespace

UnitCosts RunProbes(const ProbeInputs& inputs, uint64_t seed) {
  const SpanScope span("perfbench", "probes");
  UnitCosts costs;
  const double clock_pair_ns = ClockPairNs();
  const int per_report = inputs.packets_per_report > 0 ? inputs.packets_per_report : 1;
  costs.ns_per_event = ProbeEventLoop();
  costs.link_ns_per_packet = ProbeLink();
  ProbePipeline(&costs);
  costs.feedback_ns_per_report = ProbeFeedback(per_report);
  costs.cc_ns_per_feedback = ProbeGcc(per_report);
  ProbeEncoders(seed, clock_pair_ns, &costs);
  costs.capture_ns_per_frame = ProbeCapture(seed);
  costs.record_ns_per_frame = ProbeRecord();
  const std::vector<rave::rtc::SessionResult>& sample = *inputs.sample;
  costs.registry_lookup_ns = ProbeRegistry(sample);
  if (!sample.empty()) {
    costs.sketch_merge_us = ProbeSketchMerge(sample);
    ProbeBlobCodec(sample, &costs);
    costs.store_ms_per_blob = ProbeStore(sample, inputs.cache_dir, seed);
  }
  return costs;
}

}  // namespace perfbench
