// Content-addressed session-result cache.
//
// Two tiers:
//  - In-process: a map from SessionKey to the finished result, with
//    in-flight deduplication — when several workers ask for the same key
//    concurrently, exactly one computes and the rest block on its future.
//  - On-disk (optional): versioned binary blobs under `Options::dir`, one
//    file per key (`<hex>.rrc`), written via temp-file + atomic rename so
//    concurrent writers (threads or separate processes sharing a cache
//    directory) never expose partial files.
//
// The disk tier is fail-safe by construction: a truncated, corrupted,
// version-mismatched, or fingerprint-mismatched blob (or anything at the
// blob path that is not a regular file) is treated as a miss —
// the session is recomputed and the blob overwritten. The cache can slow a
// run down (never) or lose entries (harmless); it cannot crash a run or
// serve stale results, because the key embeds kSimFingerprint and the blob
// carries a checksum over its payload.
//
// Lookups happen once per session, strictly off the per-event hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtc/session.h"
#include "runner/session_key.h"

namespace rave::runner {

/// On-disk blob layout version. BUMP whenever EncodeResult's payload layout
/// (or the header around it) changes, so older blobs are rejected as
/// corrupt and recomputed instead of misparsed.
/// 2: payload gained the obs::RegistrySnapshot tail after events_executed.
/// 3: registry distribution metrics became QuantileSketches — MetricSnapshot
///    carries a conditional sketch payload (kind == kSketch).
inline constexpr uint32_t kBlobVersion = 3;

class ResultCache {
 public:
  struct Options {
    /// On-disk store directory; empty = in-memory tier only.
    std::string dir;
    /// Disk-tier size cap. Each cache keeps a running byte total of the
    /// directory: one scan at its first store, then the size of every blob
    /// it writes. Once the total passes the cap, an exact sweep evicts the
    /// oldest blobs (by mtime) and resets the total. Blobs that other caches
    /// or processes write into the directory count at this cache's next
    /// sweep.
    uint64_t max_disk_bytes = 512ull * 1024 * 1024;
  };

  struct Stats {
    uint64_t memory_hits = 0;
    uint64_t disk_hits = 0;
    /// Sessions actually simulated (misses).
    uint64_t computes = 0;
    /// Blobs written to disk.
    uint64_t stores = 0;
    /// Disk entries rejected (bad magic/version/fingerprint/checksum/decode).
    uint64_t corrupt = 0;
    /// Blobs removed by the size-cap sweep.
    uint64_t evictions = 0;
    /// Simulation time skipped thanks to hits (from the blobs' recorded
    /// compute durations).
    uint64_t saved_compute_us = 0;
  };

  ResultCache() : ResultCache(Options()) {}
  explicit ResultCache(Options options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result for `key`, or runs `compute` (exactly once
  /// per key, even under concurrent callers) and caches what it returns.
  rtc::SessionResult GetOrCompute(
      const SessionKey& key,
      const std::function<rtc::SessionResult()>& compute);

  /// Probe-only lookup (memory, then disk); nullopt on miss. For callers
  /// that read or fill the cache outside GetOrCompute's one-closure-per-key
  /// model (tools that inspect a cache directory). Does not pin the key, so
  /// unlike GetOrCompute two concurrent missers may both compute: duplicate
  /// work at worst, never a wrong result.
  std::optional<rtc::SessionResult> Lookup(const SessionKey& key);

  /// Publishes a computed result into both tiers. `compute_us` is the wall
  /// time the computation cost (credited to saved_compute_us on later hits).
  void Put(const SessionKey& key, const rtc::SessionResult& result,
           uint64_t compute_us);

  Stats stats() const;

  const Options& options() const { return options_; }

  /// Reads RAVE_CACHE_DIR; nullopt when unset or empty.
  static std::optional<std::string> DirFromEnv();
  /// Reads RAVE_CACHE_MAX_MB; Options{} default when unset or malformed.
  static uint64_t MaxDiskBytesFromEnv();

  // --- blob codec, exposed for tests ---

  /// Payload encoding of a SessionResult (field-by-field, little-endian).
  static std::vector<uint8_t> EncodeResult(const rtc::SessionResult& result);
  /// Inverse of EncodeResult; false on any truncation/garbage.
  static bool DecodeResult(const uint8_t* payload, size_t size,
                           rtc::SessionResult* out);
  static bool DecodeResult(const std::vector<uint8_t>& payload,
                           rtc::SessionResult* out) {
    return DecodeResult(payload.data(), payload.size(), out);
  }

 private:
  struct Entry {
    rtc::SessionResult result;
    uint64_t compute_us = 0;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// Disk-tier blob path for a key.
  std::string BlobPath(const SessionKey& key) const;
  /// Loads and fully validates a blob; nullptr on miss or corruption.
  EntryPtr LoadBlob(const SessionKey& key);
  /// Writes a blob atomically (temp + rename) and adds its size to the
  /// running disk total; runs the eviction sweep once the total passes the
  /// cap (and at this cache's first store, to seed the total).
  void StoreBlob(const SessionKey& key, const Entry& entry);
  /// Exact sweep: lists and stats every blob, deletes the oldest until the
  /// directory fits the size cap, and returns the bytes left.
  uint64_t EvictOverCap();

  Options options_;

  mutable std::mutex mutex_;
  std::unordered_map<SessionKey, std::shared_future<EntryPtr>> inflight_;
  Stats stats_;

  /// Guards disk_bytes_ and serializes sweeps. Taken before mutex_, never
  /// while holding it.
  std::mutex disk_mutex_;
  /// Running byte total of the blob directory; nullopt until the first
  /// store scans it. Every blob this cache writes is added, overwrites
  /// twice, so apart from other caches' blobs the total is never below
  /// the directory's true size: the sweep can run early, never late.
  std::optional<uint64_t> disk_bytes_;
};

}  // namespace rave::runner
