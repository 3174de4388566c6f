// QuantileSketch: accuracy against exact order statistics, merge
// determinism (bit-identity under any shard order or grouping), edge
// cases, codec round trips, and fail-closed decoding of corrupt bytes —
// including through the result-cache blob codec.
#include "obs/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "obs/metrics_registry.h"
#include "rtc/session.h"
#include "runner/result_cache.h"
#include "util/byteio.h"

namespace rave::obs {
namespace {

std::vector<uint8_t> EncodeBytes(const QuantileSketch& s) {
  ByteWriter w;
  s.Encode(w);
  return w.bytes();
}

QuantileSketch DecodeBytes(const std::vector<uint8_t>& bytes, bool* ok) {
  ByteReader r(bytes);
  QuantileSketch s = QuantileSketch::Decode(r);
  *ok = r.ok() && r.AtEnd();
  return s;
}

/// Exact quantile with the sketch's rank semantics: q=0 -> first sample,
/// q=1 -> last, linear interpolation between adjacent order statistics.
double ExactQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

TEST(QuantileSketchTest, EmptySketch) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.Quantile(0.5), 0.0);
  EXPECT_EQ(s, QuantileSketch{});
}

TEST(QuantileSketchTest, SingleSample) {
  QuantileSketch s;
  s.Record(123.456);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.min(), 123.456);
  EXPECT_EQ(s.max(), 123.456);
  EXPECT_NEAR(s.sum(), 123.456, 1e-5);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(s.Quantile(q), 123.456) << "q=" << q;
  }
}

TEST(QuantileSketchTest, NonFiniteSamplesIgnored) {
  QuantileSketch s;
  s.Record(std::nan(""));
  s.Record(std::numeric_limits<double>::infinity());
  s.Record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.count(), 0u);
  s.Record(10.0);
  s.Record(std::nan(""));
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.Quantile(0.5), 10.0);
}

TEST(QuantileSketchTest, ExtremeValuesLandInOverflowBucketsWithExactMinMax) {
  QuantileSketch s;
  s.Record(0.0);
  s.Record(-5.5);       // negative: underflow bucket, exact min
  s.Record(1e-30);      // below kMinValue: underflow bucket
  s.Record(1e300);      // above kMaxValue: overflow bucket, exact max
  s.Record(50.0);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_EQ(s.min(), -5.5);
  EXPECT_EQ(s.max(), 1e300);
  EXPECT_EQ(s.Quantile(0.0), -5.5);
  EXPECT_EQ(s.Quantile(1.0), 1e300);
  // Every quantile stays inside [min, max].
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double v = s.Quantile(q);
    EXPECT_GE(v, s.min()) << "q=" << q;
    EXPECT_LE(v, s.max()) << "q=" << q;
  }
}

TEST(QuantileSketchTest, RankErrorWithinDocumentedBound) {
  std::mt19937_64 rng(42);
  // Latency-shaped data: lognormal body plus a uniform heavy tail.
  std::lognormal_distribution<double> body(3.5, 0.8);
  std::uniform_real_distribution<double> tail(200.0, 2000.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<double> samples;
  QuantileSketch s;
  for (int i = 0; i < 50'000; ++i) {
    const double v = coin(rng) < 0.02 ? tail(rng) : body(rng);
    samples.push_back(v);
    s.Record(v);
  }
  EXPECT_EQ(s.count(), samples.size());
  for (double q : {0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99,
                   0.999}) {
    const double exact = ExactQuantile(samples, q);
    const double approx = s.Quantile(q);
    // The sketch answers from the log bucket holding the target rank; the
    // exact interpolated value can sit in an adjacent bucket, so allow two
    // bucket widths of relative error.
    const double bound = 2.0 * QuantileSketch::kRelativeError * exact;
    EXPECT_NEAR(approx, exact, bound) << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeBitIdenticalUnderAnyShardOrderAndGrouping) {
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(3.0, 1.2);
  constexpr int kShards = 8;
  std::vector<QuantileSketch> shards(kShards);
  for (int i = 0; i < kShards; ++i) {
    // Uneven shard sizes, including an empty shard.
    const int n = i == 3 ? 0 : 100 * (i + 1);
    for (int k = 0; k < n; ++k) shards[static_cast<size_t>(i)].Record(dist(rng));
  }

  // Reference: left fold in natural order.
  QuantileSketch reference;
  for (const QuantileSketch& s : shards) reference.Merge(s);
  const std::vector<uint8_t> reference_bytes = EncodeBytes(reference);

  // Every permutation order (sampled), right fold, and a pairwise tree must
  // produce the same bits.
  std::vector<size_t> order(kShards);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int perm = 0; perm < 20; ++perm) {
    std::shuffle(order.begin(), order.end(), rng);
    QuantileSketch merged;
    for (size_t i : order) merged.Merge(shards[i]);
    EXPECT_EQ(merged, reference) << "permutation " << perm;
    EXPECT_EQ(EncodeBytes(merged), reference_bytes) << "permutation " << perm;
  }
  {
    QuantileSketch merged;
    for (int i = kShards - 1; i >= 0; --i) {
      merged.Merge(shards[static_cast<size_t>(i)]);
    }
    EXPECT_EQ(EncodeBytes(merged), reference_bytes) << "right fold";
  }
  {
    // Pairwise tree: ((0+1)+(2+3)) + ((4+5)+(6+7)).
    std::vector<QuantileSketch> level = shards;
    while (level.size() > 1) {
      std::vector<QuantileSketch> next;
      for (size_t i = 0; i + 1 < level.size(); i += 2) {
        QuantileSketch pair = level[i];
        pair.Merge(level[i + 1]);
        next.push_back(pair);
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
    }
    EXPECT_EQ(EncodeBytes(level[0]), reference_bytes) << "pairwise tree";
  }

  // And the merged shards match recording every sample into one sketch.
  EXPECT_EQ(reference.count(), 100u * (1 + 2 + 3 + 5 + 6 + 7 + 8));
}

TEST(QuantileSketchTest, MergeIntoEmptyAndFromEmpty) {
  QuantileSketch a;
  a.Record(5.0);
  a.Record(7.0);
  QuantileSketch empty;
  QuantileSketch b = a;
  b.Merge(empty);  // no-op
  EXPECT_EQ(b, a);
  QuantileSketch c;
  c.Merge(a);  // copy
  EXPECT_EQ(c, a);
  EXPECT_EQ(EncodeBytes(c), EncodeBytes(a));
}

TEST(QuantileSketchTest, EncodeDecodeRoundTrip) {
  std::mt19937_64 rng(99);
  std::lognormal_distribution<double> dist(2.0, 1.5);
  QuantileSketch s;
  for (int i = 0; i < 5000; ++i) s.Record(dist(rng));
  s.Record(-3.0);
  s.Record(1e200);

  bool ok = false;
  const std::vector<uint8_t> bytes = EncodeBytes(s);
  const QuantileSketch back = DecodeBytes(bytes, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(back, s);
  EXPECT_EQ(EncodeBytes(back), bytes);

  // Empty sketch round trip.
  const std::vector<uint8_t> empty_bytes = EncodeBytes(QuantileSketch{});
  const QuantileSketch empty_back = DecodeBytes(empty_bytes, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(empty_back, QuantileSketch{});
}

TEST(QuantileSketchTest, TruncatedBytesFailClosed) {
  QuantileSketch s;
  for (int i = 1; i <= 100; ++i) s.Record(static_cast<double>(i));
  const std::vector<uint8_t> bytes = EncodeBytes(s);
  for (size_t cut : {size_t{0}, size_t{7}, size_t{20}, bytes.size() - 1}) {
    bool ok = true;
    (void)DecodeBytes(std::vector<uint8_t>(bytes.begin(),
                                           bytes.begin() +
                                               static_cast<std::ptrdiff_t>(cut)),
                      &ok);
    EXPECT_FALSE(ok) << "cut at " << cut;
  }
}

TEST(QuantileSketchTest, StructurallyInvalidBytesFailClosed) {
  QuantileSketch s;
  for (int i = 1; i <= 100; ++i) s.Record(static_cast<double>(i));
  const std::vector<uint8_t> bytes = EncodeBytes(s);

  // Bucket counts no longer sum to the total.
  std::vector<uint8_t> bad_count = bytes;
  bad_count[0] ^= 0x01;  // count_ low byte
  bool ok = true;
  (void)DecodeBytes(bad_count, &ok);
  EXPECT_FALSE(ok) << "count mismatch must invalidate the reader";

  // Out-of-range bucket index (the first pair's U32 index sits right after
  // count/sum/min/max/nonzero = 8+8+8+8+8+4 bytes).
  std::vector<uint8_t> bad_index = bytes;
  bad_index[44 + 3] = 0xff;
  ok = true;
  (void)DecodeBytes(bad_index, &ok);
  EXPECT_FALSE(ok) << "out-of-range bucket index must invalidate the reader";

  // Unordered min/max.
  std::vector<uint8_t> bad_minmax = bytes;
  std::swap_ranges(bad_minmax.begin() + 24, bad_minmax.begin() + 32,
                   bad_minmax.begin() + 32);  // swap min and max
  ok = true;
  (void)DecodeBytes(bad_minmax, &ok);
  EXPECT_FALSE(ok) << "min > max must invalidate the reader";
}

TEST(QuantileSketchTest, RegistrySketchMergesAndSurvivesSnapshotCodec) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetSketch("frame.latency_ms")->Record(10.0);
  a.GetSketch("frame.latency_ms")->Record(30.0);
  b.GetSketch("frame.latency_ms")->Record(20.0);

  RegistrySnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const MetricSnapshot* m = merged.Find("frame.latency_ms");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kSketch);
  EXPECT_EQ(m->sketch.count(), 3u);
  EXPECT_EQ(m->sketch.min(), 10.0);
  EXPECT_EQ(m->sketch.max(), 30.0);
  EXPECT_EQ(m->sketch.Quantile(0.0), 10.0);

  ByteWriter w;
  merged.Encode(w);
  ByteReader r(w.bytes());
  const RegistrySnapshot back = RegistrySnapshot::Decode(r);
  ASSERT_TRUE(r.ok() && r.AtEnd());
  const MetricSnapshot* back_m = back.Find("frame.latency_ms");
  ASSERT_NE(back_m, nullptr);
  EXPECT_EQ(back_m->sketch, m->sketch);
}

TEST(QuantileSketchTest, CorruptCacheBlobFailsDecodeInsteadOfCrashing) {
  rtc::SessionConfig config;
  config.duration = TimeDelta::Seconds(3);
  const rtc::SessionResult result = rtc::RunSession(config);
  ASSERT_NE(result.metrics.Find("frame.latency_ms"), nullptr);

  const std::vector<uint8_t> payload = runner::ResultCache::EncodeResult(result);
  rtc::SessionResult decoded;
  ASSERT_TRUE(runner::ResultCache::DecodeResult(payload, &decoded));
  const MetricSnapshot* m = decoded.metrics.Find("frame.latency_ms");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kSketch);
  EXPECT_GT(m->sketch.count(), 0u);

  // The registry snapshot (sketches included) sits at the payload tail.
  // Flipping bytes there must never crash, and structural damage must be
  // rejected so the cache recomputes. Some flips only perturb float values
  // and still decode; require that a healthy majority fail closed.
  const size_t tail_start = payload.size() - payload.size() / 8;
  int rejected = 0;
  int attempts = 0;
  for (size_t pos = tail_start; pos < payload.size(); pos += 13) {
    std::vector<uint8_t> corrupt = payload;
    corrupt[pos] ^= 0xa5;
    rtc::SessionResult out;
    if (!runner::ResultCache::DecodeResult(corrupt, &out)) ++rejected;
    ++attempts;
  }
  EXPECT_GT(attempts, 10);
  EXPECT_GT(rejected, 0) << "no tail corruption was ever detected";

  // Truncation anywhere in the sketch region always fails.
  std::vector<uint8_t> truncated(payload.begin(),
                                 payload.end() - 5);
  rtc::SessionResult out;
  EXPECT_FALSE(runner::ResultCache::DecodeResult(truncated, &out));
}

}  // namespace
}  // namespace rave::obs
