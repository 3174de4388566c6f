// Golden-digest matrix: every session below must encode to exactly the
// result-cache payload it encoded to when the table was pinned. The digest
// covers the whole SessionResult — summary, per-frame records, timeseries,
// link/fault/wireless counters, breaker activity, the event count, and the
// metrics snapshot — so any change to event order, timing, or arithmetic
// anywhere in the pipeline shows up here. The scenarios cover every family
// that puts a discontinuity in the middle of a packet train: hard faults,
// wireless/mobility profiles, Gilbert loss, and cross traffic.
//
// A change that alters results on purpose bumps kSimFingerprint (see
// runner/session_key.h) and re-pins the table; the static_assert below
// makes the two go together. A failing case prints the digest it got.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "fault/fault_plan.h"
#include "fault/wireless_profiles.h"
#include "net/cross_traffic.h"
#include "rtc/session.h"
#include "runner/result_cache.h"
#include "runner/session_key.h"
#include "util/time.h"
#include "util/units.h"

namespace rave {
namespace {

// Re-pin every digest below when this changes.
static_assert(runner::kSimFingerprint == 4,
              "simulator semantics changed: re-pin the golden digests");

std::string ResultDigest(const rtc::SessionConfig& config) {
  const std::vector<uint8_t> bytes =
      runner::ResultCache::EncodeResult(rtc::RunSession(config));
  return runner::HashBytes(bytes.data(), bytes.size(), 0).ToHex();
}

rtc::SessionConfig BaseConfig(TimeDelta duration, uint64_t seed) {
  return bench::DefaultConfig(rtc::Scheme::kAdaptive, bench::DropTrace(0.5),
                              video::ContentClass::kTalkingHead, duration,
                              seed);
}

TEST(GoldenDigestTest, PlainDropTraceBothSchemes) {
  const std::vector<std::pair<rtc::Scheme, const char*>> cases = {
      {rtc::Scheme::kX264Abr, "c207440c68abc245afc1f6913e0dffff"},
      {rtc::Scheme::kAdaptive, "9d51f8c6114a0bfb787542c2e2e09d74"},
  };
  for (const auto& [scheme, digest] : cases) {
    SCOPED_TRACE(rtc::ToString(scheme));
    const rtc::SessionConfig config =
        bench::DefaultConfig(scheme, bench::DropTrace(0.6),
                             video::ContentClass::kTalkingHead,
                             TimeDelta::Seconds(8), 11);
    EXPECT_EQ(ResultDigest(config), digest);
  }
}

TEST(GoldenDigestTest, FaultKindMatrix) {
  struct Case {
    const char* name;
    fault::FaultPlan plan;
    const char* digest;
  };
  const Timestamp at = Timestamp::Seconds(3);
  const TimeDelta dur = TimeDelta::Millis(800);
  std::vector<Case> cases;
  cases.push_back({"outage", fault::FaultPlan().Outage(at, dur),
                   "9fe45baac14b3346ecab81c3b3f19fbf"});
  cases.push_back({"feedback-blackhole",
                   fault::FaultPlan().FeedbackBlackhole(at, dur),
                   "eb0157ad22c8468150db2ca7cc8f299e"});
  cases.push_back(
      {"delay-spike",
       fault::FaultPlan().DelaySpike(at, dur, TimeDelta::Millis(120)),
       "eeee535ec43f7d738808c9f8ce5ec7a8"});
  cases.push_back({"reorder",
                   fault::FaultPlan().ReorderBurst(at, TimeDelta::Seconds(2),
                                                   0.25, TimeDelta::Millis(30)),
                   "38fd4681335b29729101234f322cc679"});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    rtc::SessionConfig config = BaseConfig(TimeDelta::Seconds(8), 23);
    config.faults = std::move(c.plan);
    EXPECT_EQ(ResultDigest(config), c.digest);
  }
}

TEST(GoldenDigestTest, WirelessProfiles) {
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"wifi-fade", "7418df916717e74446f971759ce45c2d"},
      {"lte-handover", "80bda89a69c00431959b00372ab9906e"},
      {"train-commute", "83daad5561d666f725cad65a973c0bb3"},
  };
  for (const auto& [name, digest] : cases) {
    SCOPED_TRACE(name);
    const fault::WirelessProfile profile =
        fault::MakeWirelessProfile(name, TimeDelta::Seconds(10));
    rtc::SessionConfig config = BaseConfig(TimeDelta::Seconds(10), 37);
    bench::ApplyWirelessProfile(config, profile);
    EXPECT_EQ(ResultDigest(config), digest);
  }
}

TEST(GoldenDigestTest, GilbertLoss) {
  rtc::SessionConfig config = BaseConfig(TimeDelta::Seconds(8), 41);
  config.link.loss.gilbert_enabled = true;
  config.link.loss.gilbert_bad_loss = 0.4;
  config.link.loss.gilbert_step = TimeDelta::Millis(5);
  EXPECT_EQ(ResultDigest(config), "90ab1aa3c75b7320f156f0bb68cfb4f3");
}

TEST(GoldenDigestTest, CrossTraffic) {
  rtc::SessionConfig config = BaseConfig(TimeDelta::Seconds(8), 43);
  net::CrossTraffic::Config cross;
  cross.rate = DataRate::KilobitsPerSec(900);
  cross.mean_on = TimeDelta::Seconds(2);
  cross.mean_off = TimeDelta::Seconds(2);
  cross.start_on = true;
  config.cross_traffic = cross;
  EXPECT_EQ(ResultDigest(config), "a867dc371d14531a6064ce17ef197a94");
}

}  // namespace
}  // namespace rave
