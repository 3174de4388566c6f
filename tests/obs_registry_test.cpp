// Metrics-registry unit tests: registry lookup semantics (pointer
// stability, sorted snapshots), snapshot merging, the serialization round
// trip through both the raw byte codec and a full result-cache blob, the
// fail-closed decode of retired metric kinds, and RuntimeStats under
// concurrent recording.
#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "runner/result_cache.h"
#include "rtc/session.h"
#include "util/byteio.h"

namespace rave::obs {
namespace {

TEST(MetricsRegistryTest, RepeatLookupsReturnTheSamePointer) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("a.count");
  c->Add(3);
  EXPECT_EQ(registry.GetCounter("a.count"), c);
  EXPECT_EQ(registry.GetCounter("a.count")->value(), 3u);

  QuantileSketch* s = registry.GetSketch("a.sketch");
  s->Record(1.5);
  EXPECT_EQ(registry.GetSketch("a.sketch"), s);
  EXPECT_EQ(registry.GetSketch("a.sketch")->count(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("z.last")->Add();
  registry.GetSketch("m.middle")->Record(2.0);
  registry.GetCounter("a.first")->Add(5);
  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a.first");
  EXPECT_EQ(snap.metrics[1].name, "m.middle");
  EXPECT_EQ(snap.metrics[2].name, "z.last");
  EXPECT_EQ(snap.Find("a.first")->counter, 5u);
  EXPECT_EQ(snap.Find("m.middle")->kind, MetricKind::kSketch);
  EXPECT_EQ(snap.Find("missing"), nullptr);
}

TEST(RegistrySnapshotTest, MergeAddsCountersAndMergesSketches) {
  MetricsRegistry a;
  a.GetCounter("n")->Add(2);
  for (double v : {0.5, 3.0, 40.0}) a.GetSketch("s")->Record(v);
  MetricsRegistry b;
  b.GetCounter("n")->Add(3);
  for (double v : {1.25, 900.0}) b.GetSketch("s")->Record(v);
  b.GetCounter("only_b")->Add(7);

  RegistrySnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.Find("n")->counter, 5u);
  EXPECT_EQ(merged.Find("only_b")->counter, 7u);

  // The merged sketch is bit-identical to merging the sketches directly and
  // to one sketch that saw every sample.
  QuantileSketch direct = *a.GetSketch("s");
  direct.Merge(*b.GetSketch("s"));
  QuantileSketch all;
  for (double v : {0.5, 3.0, 40.0, 1.25, 900.0}) all.Record(v);
  const MetricSnapshot* s = merged.Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->sketch, direct);
  EXPECT_EQ(s->sketch, all);
  EXPECT_EQ(s->sketch.count(), 5u);
}

TEST(RegistrySnapshotTest, ByteCodecRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(42);
  for (double v : {0.5, 3.0, 250.0}) registry.GetSketch("s")->Record(v);
  const RegistrySnapshot snap = registry.Snapshot();

  ByteWriter w;
  snap.Encode(w);
  const std::vector<uint8_t> bytes = w.Take();
  ByteReader r(bytes.data(), bytes.size());
  const RegistrySnapshot decoded = RegistrySnapshot::Decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded, snap);
}

// One counter record in the snapshot wire layout, built by hand: name, kind
// byte, counter, then the seven 8-byte slots of the retired gauge and
// histogram kinds. `slot` (0-6) is set to `slot_value`; -1 leaves all zero.
std::vector<uint8_t> HandBuiltSnapshot(uint8_t kind_byte, int slot = -1,
                                       uint64_t slot_value = 0) {
  ByteWriter w;
  w.U64(1);
  w.Str("c");
  w.U8(kind_byte);
  w.U64(42);
  for (int i = 0; i < 7; ++i) w.U64(i == slot ? slot_value : 0);
  return w.Take();
}

TEST(RegistrySnapshotTest, HandBuiltCounterMatchesEncode) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(42);
  ByteWriter w;
  registry.Snapshot().Encode(w);
  EXPECT_EQ(w.bytes(), HandBuiltSnapshot(0));

  const std::vector<uint8_t> bytes = HandBuiltSnapshot(0);
  ByteReader r(bytes.data(), bytes.size());
  const RegistrySnapshot decoded = RegistrySnapshot::Decode(r);
  EXPECT_TRUE(r.ok());
  ASSERT_NE(decoded.Find("c"), nullptr);
  EXPECT_EQ(decoded.Find("c")->counter, 42u);
}

TEST(RegistrySnapshotTest, RetiredKindsFailClosed) {
  for (uint8_t kind_byte : {uint8_t{1}, uint8_t{2}, uint8_t{4}}) {
    const std::vector<uint8_t> bytes = HandBuiltSnapshot(kind_byte);
    ByteReader r(bytes.data(), bytes.size());
    RegistrySnapshot::Decode(r);
    EXPECT_FALSE(r.ok()) << "kind byte " << int{kind_byte};
  }
}

TEST(RegistrySnapshotTest, NonZeroRetiredSlotFailsClosed) {
  for (int slot = 0; slot < 7; ++slot) {
    const std::vector<uint8_t> bytes = HandBuiltSnapshot(0, slot, 1);
    ByteReader r(bytes.data(), bytes.size());
    RegistrySnapshot::Decode(r);
    EXPECT_FALSE(r.ok()) << "slot " << slot;
  }
  // A negative zero is a non-zero bit pattern, not a zero slot.
  const std::vector<uint8_t> bytes =
      HandBuiltSnapshot(0, /*slot=*/6, uint64_t{1} << 63);
  ByteReader r(bytes.data(), bytes.size());
  RegistrySnapshot::Decode(r);
  EXPECT_FALSE(r.ok());
}

TEST(RegistrySnapshotTest, ResultBlobWithRetiredKindIsRejected) {
  rtc::SessionResult result;
  result.scheme_name = "x";
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(42);
  result.metrics = registry.Snapshot();
  const std::vector<uint8_t> blob = runner::ResultCache::EncodeResult(result);
  rtc::SessionResult decoded;
  ASSERT_TRUE(runner::ResultCache::DecodeResult(blob, &decoded));

  // The snapshot ends the blob: its one counter record closes with the kind
  // byte, the counter and the seven retired slots.
  const size_t kind_at = blob.size() - 8 * 8 - 1;
  ASSERT_EQ(blob[kind_at], 0);
  for (uint8_t kind_byte : {uint8_t{1}, uint8_t{2}}) {
    std::vector<uint8_t> doctored = blob;
    doctored[kind_at] = kind_byte;
    EXPECT_FALSE(runner::ResultCache::DecodeResult(doctored, &decoded))
        << "kind byte " << int{kind_byte};
  }
  std::vector<uint8_t> doctored = blob;
  doctored.back() = 1;  // top byte of the last retired slot
  EXPECT_FALSE(runner::ResultCache::DecodeResult(doctored, &decoded));
}

TEST(RegistrySnapshotTest, SurvivesAResultCacheBlobRoundTrip) {
  rtc::SessionConfig config = bench::DefaultConfig(
      rtc::Scheme::kAdaptive, bench::DropTrace(0.5),
      video::ContentClass::kTalkingHead, TimeDelta::Seconds(12), /*seed=*/7);
  const rtc::SessionResult result = rtc::RunSession(config);
  ASSERT_FALSE(result.metrics.metrics.empty());
  EXPECT_NE(result.metrics.Find("encoder.frames_encoded"), nullptr);
  EXPECT_NE(result.metrics.Find("frame.latency_ms"), nullptr);
  EXPECT_NE(result.metrics.Find("session.events"), nullptr);

  const std::vector<uint8_t> blob = runner::ResultCache::EncodeResult(result);
  rtc::SessionResult decoded;
  ASSERT_TRUE(runner::ResultCache::DecodeResult(blob, &decoded));
  EXPECT_EQ(decoded.metrics, result.metrics);
}

// Four threads record sessions while a fifth snapshots; the totals must
// come out exact. Under TSan (tsan_check) this is the RuntimeStats race
// check.
TEST(RuntimeStatsTest, ConcurrentRecordAndSnapshotKeepExactTotals) {
  RuntimeStats& stats = RuntimeStats::Instance();
  stats.Reset();
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 500;
  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&stats, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        stats.RecordSession(/*wall_ms=*/1.0 + t, /*events=*/1000,
                            /*allocs=*/3, /*frames=*/30);
      }
    });
  }
  std::thread reader([&stats] {
    for (int i = 0; i < 200; ++i) {
      const RegistrySnapshot snap = stats.Snapshot();
      const MetricSnapshot* sessions = snap.Find("wall.sessions");
      ASSERT_NE(sessions, nullptr);
      EXPECT_LE(sessions->counter, uint64_t{kThreads * kSessionsPerThread});
    }
  });
  for (std::thread& t : recorders) t.join();
  reader.join();

  const RegistrySnapshot snap = stats.Snapshot();
  constexpr uint64_t kSessions = kThreads * kSessionsPerThread;
  ASSERT_NE(snap.Find("wall.sessions"), nullptr);
  ASSERT_NE(snap.Find("wall.events"), nullptr);
  ASSERT_NE(snap.Find("wall.frames"), nullptr);
  ASSERT_NE(snap.Find("alloc.total"), nullptr);
  ASSERT_NE(snap.Find("wall.session_ms"), nullptr);
  EXPECT_EQ(snap.Find("wall.sessions")->counter, kSessions);
  EXPECT_EQ(snap.Find("wall.events")->counter, kSessions * 1000);
  EXPECT_EQ(snap.Find("wall.frames")->counter, kSessions * 30);
  EXPECT_EQ(snap.Find("alloc.total")->counter, kSessions * 3);
  EXPECT_EQ(snap.Find("wall.session_ms")->sketch.count(), kSessions);
  stats.Reset();
}

TEST(MetricsScopeTest, InstallsAndRestores) {
  EXPECT_EQ(CurrentMetrics(), nullptr);
  MetricsRegistry registry;
  {
    MetricsScope scope(&registry);
    EXPECT_EQ(CurrentMetrics(), &registry);
    MetricsRegistry inner;
    {
      MetricsScope nested(&inner);
      EXPECT_EQ(CurrentMetrics(), &inner);
    }
    EXPECT_EQ(CurrentMetrics(), &registry);
  }
  EXPECT_EQ(CurrentMetrics(), nullptr);
}

}  // namespace
}  // namespace rave::obs
