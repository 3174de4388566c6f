// The host-speed reference: a fixed piece of work owned by the benchmark,
// timed next to every measured pass so the end-to-end times can be stated
// at a fixed host speed. See README.md, "Host-speed reference".
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

/// Words in each thread's table: 256 KiB, an L2-resident working set.
constexpr size_t kTableWords = 1 << 15;

/// The simulator's mix in miniature: a timestamp heap, hash-table updates,
/// transcendental math and short-lived allocations. Deterministic for a
/// given table; returns a checksum of what it computed, which the meter
/// keeps so that the work cannot be optimised away.
uint64_t ReferenceWork(std::vector<uint64_t>& table) {
  constexpr uint32_t kRounds = 20000;
  std::priority_queue<std::pair<uint64_t, uint32_t>,
                      std::vector<std::pair<uint64_t, uint32_t>>, std::greater<>>
      heap;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0.0;
  uint64_t mix = 0;
  for (uint32_t r = 0; r < kRounds; ++r) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t& slot = table[(x >> 23) & (table.size() - 1)];
    slot = slot * 31 + r;
    mix += slot;
    heap.emplace(x >> 8, r);
    if (heap.size() > 512) {
      mix += heap.top().second;
      heap.pop();
    }
    acc += std::log1p(static_cast<double>(x >> 44)) * std::exp(-0.001 * (r & 1023));
    if ((r & 31) == 0) {
      const size_t n = 1200 + (x & 511);
      auto buf = std::make_unique<uint8_t[]>(n);
      buf[x % n] = static_cast<uint8_t>(r);
      mix += buf[x % n];
    }
  }
  return mix ^ static_cast<uint64_t>(acc);
}

}  // namespace

void ReferenceMeter::set_threads(int threads) {
  tables_.assign(static_cast<size_t>(threads), std::vector<uint64_t>(kTableWords, 1));
  Slice();
  wall_s_.clear();
  cpu_s_.clear();
}

void ReferenceMeter::Slice() {
  const size_t threads = tables_.size();
  std::vector<uint64_t> sums(threads);
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 1; t < threads; ++t) {
    workers.emplace_back([this, &sums, t] { sums[t] = ReferenceWork(tables_[t]); });
  }
  sums[0] = ReferenceWork(tables_[0]);
  for (std::thread& w : workers) w.join();
  for (uint64_t s : sums) checksum_ ^= s;
  last_end_ = Clock::now();
  wall_s_.push_back(std::chrono::duration<double>(last_end_ - start).count());
  cpu_s_.push_back(ProcessCpuSeconds() - cpu_start);
}

void ReferenceMeter::MaybeSlice() {
  if (wall_s_.empty() || SecondsSince(last_end_) >= kSliceEveryS) Slice();
}

double ReferenceMeter::WallSince(size_t mark) const {
  return std::accumulate(wall_s_.begin() + static_cast<ptrdiff_t>(mark), wall_s_.end(), 0.0);
}

double ReferenceMeter::CpuSince(size_t mark) const {
  return std::accumulate(cpu_s_.begin() + static_cast<ptrdiff_t>(mark), cpu_s_.end(), 0.0);
}

double ReferenceMeter::MedianSliceSince(size_t mark) const {
  if (mark >= wall_s_.size()) {
    throw std::runtime_error("no reference slice ran during a timed phase");
  }
  return Median({wall_s_.begin() + static_cast<ptrdiff_t>(mark), wall_s_.end()});
}

ReferenceMeter& Meter() {
  static ReferenceMeter meter;
  return meter;
}

}  // namespace perfbench
