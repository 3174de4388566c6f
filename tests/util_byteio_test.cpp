// ByteWriter/ByteReader tests: the exact little-endian byte layout of every
// field type (cache blobs and session keys are hashed and persisted, so a
// moved byte is a format break), bit-exact round trips of edge values, and
// the fail-closed reader contract — a short or lying stream turns into
// `ok() == false` and zero values, never a read past the end or a huge
// allocation.
#include "util/byteio.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "util/alloc_probe.h"

namespace rave {
namespace {

using Bytes = std::vector<uint8_t>;

Bytes Written(const std::function<void(ByteWriter&)>& write) {
  ByteWriter w;
  write(w);
  return w.Take();
}

TEST(ByteWriterTest, GoldenLittleEndianLayout) {
  EXPECT_EQ(Written([](ByteWriter& w) { w.U8(0xab); }), (Bytes{0xab}));
  EXPECT_EQ(Written([](ByteWriter& w) { w.U32(0x01020304u); }),
            (Bytes{0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(Written([](ByteWriter& w) { w.U64(0x0102030405060708ull); }),
            (Bytes{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));
  EXPECT_EQ(Written([](ByteWriter& w) { w.I64(-2); }),
            (Bytes{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}));
  // 1.0 is 0x3ff0000000000000; -0.0 is the sign bit alone.
  EXPECT_EQ(Written([](ByteWriter& w) { w.F64(1.0); }),
            (Bytes{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f}));
  EXPECT_EQ(Written([](ByteWriter& w) { w.F64(-0.0); }),
            (Bytes{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80}));
  EXPECT_EQ(Written([](ByteWriter& w) {
              w.Bool(true);
              w.Bool(false);
            }),
            (Bytes{0x01, 0x00}));
  EXPECT_EQ(Written([](ByteWriter& w) { w.Str("hi"); }),
            (Bytes{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'h', 'i'}));
  // Fields pack back to back with no padding or alignment.
  EXPECT_EQ(Written([](ByteWriter& w) {
              w.U8(0x11);
              w.U32(0xa1b2c3d4u);
              w.U8(0x22);
              w.U64(0x8877665544332211ull);
            }),
            (Bytes{0x11, 0xd4, 0xc3, 0xb2, 0xa1, 0x22, 0x11, 0x22, 0x33, 0x44,
                   0x55, 0x66, 0x77, 0x88}));
}

TEST(ByteReaderTest, GoldenBytesDecode) {
  const Bytes bytes = {0xab, 0x04, 0x03, 0x02, 0x01, 0x08, 0x07, 0x06,
                       0x05, 0x04, 0x03, 0x02, 0x01, 0x01, 0x01, 0x00,
                       0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'x'};
  ByteReader r(bytes);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0x01020304u);
  EXPECT_EQ(r.U64(), 0x0102030405060708ull);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Str(), "x");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteReaderTest, EdgeValuesRoundTripBitExact) {
  const double nan_payload = std::bit_cast<double>(0x7ff4000000c0ffeeull);
  const std::vector<double> doubles = {
      -0.0, 0.0, nan_payload, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max()};
  ByteWriter w;
  for (double d : doubles) w.F64(d);
  w.I64(std::numeric_limits<int64_t>::min());
  w.I64(std::numeric_limits<int64_t>::max());
  w.U64(std::numeric_limits<uint64_t>::max());
  w.U32(std::numeric_limits<uint32_t>::max());
  w.Str(std::string("a\0b", 3));
  w.Str("");

  const Bytes bytes = w.Take();
  ByteReader r(bytes);
  for (double d : doubles) {
    EXPECT_EQ(std::bit_cast<uint64_t>(r.F64()), std::bit_cast<uint64_t>(d));
  }
  EXPECT_EQ(r.I64(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r.I64(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(r.U64(), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(r.U32(), std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(r.Str(), std::string("a\0b", 3));
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.AtEnd());
}

/// After a failed read every field type reads as zero, even when enough
/// bytes remain for it.
void ExpectDeadReader(ByteReader& r) {
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0u);
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_EQ(r.I64(), 0);
  EXPECT_EQ(std::bit_cast<uint64_t>(r.F64()), 0u);
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.AtEnd());
}

TEST(ByteReaderTest, EveryTruncationFailsClosed) {
  struct Field {
    const char* name;
    std::function<void(ByteWriter&)> write;
    std::function<bool(ByteReader&)> read_is_zero;
  };
  const std::vector<Field> fields = {
      {"U8", [](ByteWriter& w) { w.U8(0xff); },
       [](ByteReader& r) { return r.U8() == 0; }},
      {"U32", [](ByteWriter& w) { w.U32(0xffffffffu); },
       [](ByteReader& r) { return r.U32() == 0; }},
      {"U64", [](ByteWriter& w) { w.U64(~0ull); },
       [](ByteReader& r) { return r.U64() == 0; }},
      {"I64", [](ByteWriter& w) { w.I64(-1); },
       [](ByteReader& r) { return r.I64() == 0; }},
      {"F64", [](ByteWriter& w) { w.F64(-1.5); },
       [](ByteReader& r) { return std::bit_cast<uint64_t>(r.F64()) == 0; }},
      {"Bool", [](ByteWriter& w) { w.Bool(true); },
       [](ByteReader& r) { return !r.Bool(); }},
      {"Str", [](ByteWriter& w) { w.Str("payload"); },
       [](ByteReader& r) { return r.Str().empty(); }},
  };
  for (const Field& field : fields) {
    Bytes bytes = Written(field.write);
    // Trailing slack, so a dead reader has bytes it must still refuse.
    const size_t full = bytes.size();
    bytes.resize(full + 16, 0x5a);
    for (size_t cut = 0; cut < full; ++cut) {
      SCOPED_TRACE(std::string(field.name) + " cut at " + std::to_string(cut));
      ByteReader r(bytes.data(), cut);
      EXPECT_TRUE(field.read_is_zero(r));
      ExpectDeadReader(r);
    }
    ByteReader whole(bytes.data(), full);
    EXPECT_FALSE(field.read_is_zero(whole)) << field.name;
    EXPECT_TRUE(whole.AtEnd()) << field.name;
  }
}

TEST(ByteReaderTest, FailedReadPoisonsLaterReadsThatWouldFit) {
  // Four bytes: a U64 fails, and the U32 that would fit must not succeed.
  const Bytes bytes = {0x01, 0x02, 0x03, 0x04};
  ByteReader r(bytes);
  EXPECT_EQ(r.U64(), 0u);
  ExpectDeadReader(r);
  EXPECT_EQ(r.pos(), 0u);
}

TEST(ByteReaderTest, OversizedStringLengthFailsWithoutAllocating) {
  for (const uint64_t claimed :
       {uint64_t{4}, uint64_t{1} << 32, ~uint64_t{0} - 7, ~uint64_t{0}}) {
    SCOPED_TRACE(claimed);
    ByteWriter w;
    w.U64(claimed);
    w.U8('a');
    w.U8('b');
    w.U8('c');
    const Bytes bytes = w.Take();
    ByteReader r(bytes);
    const AllocScope allocs;
    const std::string s = r.Str();
    const uint64_t allocated = allocs.bytes();
    EXPECT_TRUE(s.empty());
    if (AllocProbeEnabled()) {
      EXPECT_EQ(allocated, 0u);
    }
    ExpectDeadReader(r);
  }
}

TEST(ByteReaderTest, AtEndSemantics) {
  const Bytes empty;
  ByteReader fresh(empty);
  EXPECT_TRUE(fresh.AtEnd());  // nothing to read is "at end"

  const Bytes bytes = {0x07, 0x08};
  ByteReader r(bytes);
  EXPECT_FALSE(r.AtEnd());
  EXPECT_EQ(r.U8(), 0x07);
  EXPECT_FALSE(r.AtEnd());
  EXPECT_EQ(r.U8(), 0x08);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
  // Reading past the end is a failure, and a failed reader is never at end.
  EXPECT_EQ(r.U8(), 0u);
  EXPECT_FALSE(r.AtEnd());

  ByteReader invalidated(bytes);
  invalidated.U8();
  invalidated.U8();
  invalidated.Invalidate();
  EXPECT_FALSE(invalidated.AtEnd());
  EXPECT_FALSE(invalidated.ok());
}

}  // namespace
}  // namespace rave
