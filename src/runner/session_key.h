// Content-addressed session identity.
//
// A SessionKey is a 128-bit hash of a canonical, endianness-stable
// serialization of every field of a SessionConfig — scheme, duration, seed,
// codec and congestion-control parameters, the full capacity-trace step
// list, cross-traffic, and the fault plan. Two configs that would produce
// byte-identical SessionResults hash to the same key; any semantic
// difference produces a different key. The result cache uses the key as the
// sole lookup handle, so correctness of the cache reduces to correctness of
// this serialization.
//
// The serialization is salted with `kSimFingerprint`. BUMP THE FINGERPRINT
// whenever simulation semantics change — a new default, a different event
// ordering, an RNG tweak, a bug fix that alters results — so stale cache
// entries (in memory or on disk) can never be served for the new behaviour.
// Adding a config field does not require a bump (the field changes the
// serialization by itself), but changing the meaning of an existing field
// does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "rtc/session.h"

namespace rave::runner {

/// Version salt for ComputeSessionKey. See file comment for the bump rule.
/// 2: SessionResult gained the obs metrics snapshot (blob layout change).
/// 3: Gilbert loss stepping moved from per-packet to sim-time cadence and
///    p=0/p=1 loss probabilities became exact (no RNG draw) — both change
///    results for existing Gilbert-loss configs without changing any field.
/// 4: Packet-train coalescing moved pacer sends, link completions, and
///    in-order arrivals into shared drain loops: sub-microsecond link
///    serializations now process inline and equal-microsecond ties resolve
///    in drain order instead of per-event seq order, shifting results for
///    some configs. (The drains outlived the coalescing itself: the later
///    removal of time stepping and its RAVE_NO_COALESCE knob kept every
///    result byte, so it needed no bump.)
inline constexpr uint64_t kSimFingerprint = 4;

/// 128-bit content hash of a SessionConfig.
struct SessionKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const SessionKey&, const SessionKey&) = default;

  /// 32 lowercase hex chars; used as the on-disk blob filename.
  std::string ToHex() const;
};

/// 128-bit hash of an arbitrary byte span (MurmurHash3 x64/128 finalization
/// structure). Exposed for the result cache's payload checksums.
SessionKey HashBytes(const uint8_t* data, size_t size, uint64_t seed);

/// Canonical key for a config (includes kSimFingerprint).
SessionKey ComputeSessionKey(const rtc::SessionConfig& config);

}  // namespace rave::runner

template <>
struct std::hash<rave::runner::SessionKey> {
  size_t operator()(const rave::runner::SessionKey& k) const noexcept {
    // The key is already a high-quality hash; fold the halves.
    return static_cast<size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ULL));
  }
};
