// Trace-recorder tests: spec parsing, sampling, JSON well-formedness (the
// emitted file must parse back with every event and subsystem track
// intact), the exact bytes WriteJson emits, the reader's tolerance for
// truncated and unterminated input, and schedule-independence — a traced
// session must produce byte-identical JSON whether its worker pool has 1
// thread or 8.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common.h"
#include "runner/parallel_runner.h"
#include "rtc/session.h"

namespace rave::obs {
namespace {

TEST(ParseTraceSpecTest, PlainPathAndSampledPath) {
  std::string path;
  TraceRecorder::Options options;
  ASSERT_TRUE(ParseTraceSpec("out.json", &path, &options));
  EXPECT_EQ(path, "out.json");
  EXPECT_DOUBLE_EQ(options.sample_hz, 0.0);

  ASSERT_TRUE(ParseTraceSpec("out.json:250", &path, &options));
  EXPECT_EQ(path, "out.json");
  EXPECT_DOUBLE_EQ(options.sample_hz, 250.0);

  // Non-numeric suffix after ':' is part of the path, not a rate.
  ASSERT_TRUE(ParseTraceSpec("odd:name.json", &path, &options));
  EXPECT_EQ(path, "odd:name.json");
  EXPECT_DOUBLE_EQ(options.sample_hz, 0.0);
}

TEST(ParseTraceSpecTest, RejectsBadSpecs) {
  std::string path;
  TraceRecorder::Options options;
  EXPECT_FALSE(ParseTraceSpec("", &path, &options));
  EXPECT_FALSE(ParseTraceSpec("out.json:0", &path, &options));
  EXPECT_FALSE(ParseTraceSpec("out.json:-5", &path, &options));
  EXPECT_FALSE(ParseTraceSpec(":100", &path, &options));
}

TEST(TraceRecorderTest, SamplingThrottlesCountersPerTrack) {
  TraceRecorder::Options options;
  options.sample_hz = 10.0;  // at most one sample per 100 ms per track
  TraceRecorder recorder(options);
  for (int ms = 0; ms < 1000; ms += 10) {
    recorder.Counter(Track::kEncoderQp, Timestamp::Millis(ms), 25.0);
    recorder.Counter(Track::kBweTargetKbps, Timestamp::Millis(ms), 2000.0);
    // Instants are never sampled away.
    recorder.Instant(Track::kFaultInjection, Timestamp::Millis(ms), "f");
  }
  size_t qp = 0, bwe = 0, inst = 0;
  for (const TraceEvent& e : recorder.events()) {
    if (e.track == Track::kEncoderQp) ++qp;
    if (e.track == Track::kBweTargetKbps) ++bwe;
    if (e.track == Track::kFaultInjection) ++inst;
  }
  EXPECT_EQ(qp, 10u);
  EXPECT_EQ(bwe, 10u);
  EXPECT_EQ(inst, 100u);
}

TEST(TraceRecorderTest, JsonRoundTripsEveryEvent) {
  TraceRecorder recorder;
  recorder.Counter(Track::kEncoderQp, Timestamp::Millis(33), 27.5);
  recorder.Counter(Track::kBweTargetKbps, Timestamp::Millis(50), 2100.0);
  recorder.Instant(Track::kEncoderKeyframe, Timestamp::Millis(66), "keyframe");
  recorder.Instant(Track::kFaultInjection, Timestamp::Seconds(10),
                   "apply:link_outage");

  std::ostringstream os;
  recorder.WriteJson(os);
  std::istringstream is(os.str());
  std::vector<ParsedTraceEvent> parsed;
  ASSERT_TRUE(ReadTraceJson(is, &parsed));

  std::vector<const ParsedTraceEvent*> counters, instants;
  for (const ParsedTraceEvent& e : parsed) {
    if (e.phase == "C") counters.push_back(&e);
    if (e.phase == "i") instants.push_back(&e);
  }
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0]->name, "encoder/qp");
  EXPECT_EQ(counters[0]->ts_us, 33'000);
  EXPECT_DOUBLE_EQ(counters[0]->value, 27.5);
  EXPECT_EQ(counters[1]->name, "cc/bwe_kbps");
  ASSERT_EQ(instants.size(), 2u);
  EXPECT_EQ(instants[0]->name, "encoder/keyframe");
  EXPECT_EQ(instants[0]->arg, "keyframe");
  EXPECT_EQ(instants[1]->arg, "apply:link_outage");
}

/// One "C" event line exactly as WriteJson must format it, with the value
/// printed by printf's "%.10g".
std::string CounterLine(const char* name, int tid, int64_t ts, double value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, \"tid\": %d, "
                "\"ts\": %lld, \"args\": {\"value\": %.10g}}",
                name, tid, static_cast<long long>(ts), value);
  return buf;
}

TEST(TraceRecorderTest, JsonMatchesGoldenText) {
  const std::vector<double> values = {
      0.0,  -0.0, 0.1, 1e-7, 27.5, 123456789.0123, 9007199254740993.0,
      1e21, -42.125};
  TraceRecorder recorder;
  for (size_t i = 0; i < values.size(); ++i) {
    recorder.Counter(Track::kVbvFill,
                     Timestamp::Micros(static_cast<int64_t>(i) * 1001 - 7),
                     values[i]);
  }
  recorder.Counter(Track::kCapacityKbps, Timestamp::Seconds(3), 2500.0);
  recorder.Instant(Track::kFaultInjection, Timestamp::Micros(123456789012),
                   "q\"b\\c\x01" "d\x1f");

  std::string want = "{\"traceEvents\": [\n";
  want += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \"rave session\"}},\n";
  const char* subsystems[] = {"encoder", "codec", "cc",    "transport",
                              "net",     "core",  "fault", "session"};
  for (int tid = 1; tid <= 8; ++tid) {
    want += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"tid\": " + std::to_string(tid) +
            ", \"args\": {\"name\": \"" + subsystems[tid - 1] + "\"}},\n";
  }
  for (size_t i = 0; i < values.size(); ++i) {
    want += CounterLine("codec/vbv_fill", 2, static_cast<int64_t>(i) * 1001 - 7,
                        values[i]) + ",\n";
  }
  want += CounterLine("session/capacity_kbps", 8, 3'000'000, 2500.0) + ",\n";
  want += "{\"name\": \"fault/injection\", \"ph\": \"i\", \"pid\": 1, "
          "\"tid\": 7, \"ts\": 123456789012, \"s\": \"t\", "
          "\"args\": {\"label\": \"q\\\"b\\\\c\\u0001d\\u001f\"}}\n";
  want += "]}\n";

  std::ostringstream os;
  recorder.WriteJson(os);
  EXPECT_EQ(os.str(), want);
}

/// ReadTraceJson over `text`; the parse result and the events.
std::pair<bool, std::vector<ParsedTraceEvent>> Parse(const std::string& text) {
  std::istringstream is(text);
  std::vector<ParsedTraceEvent> parsed;
  const bool ok = ReadTraceJson(is, &parsed);
  return {ok, parsed};
}

TEST(ReadTraceJsonTest, EmptyStreamHasNoEvents) {
  const auto [ok, parsed] = Parse("");
  EXPECT_FALSE(ok);
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(Parse("{\"traceEvents\": [\n]}\n").first);
}

TEST(ReadTraceJsonTest, LastLineWithoutNewline) {
  const auto [ok, parsed] =
      Parse("{\"traceEvents\": [\n" + CounterLine("encoder/qp", 1, 5, 2.0) +
            ",\n" + CounterLine("cc/bwe_kbps", 3, 9, 1750.5));
  ASSERT_TRUE(ok);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].name, "cc/bwe_kbps");
  EXPECT_EQ(parsed[1].phase, "C");
  EXPECT_EQ(parsed[1].ts_us, 9);
  EXPECT_DOUBLE_EQ(parsed[1].value, 1750.5);
}

TEST(ReadTraceJsonTest, TruncatedLastLine) {
  const std::string head =
      "{\"traceEvents\": [\n" + CounterLine("encoder/qp", 1, 5, 2.0) + ",\n";
  const std::string last = CounterLine("cc/bwe_kbps", 3, 1234, 27.5);

  // Cut inside the value: the number parsed so far is kept.
  auto [ok, parsed] = Parse(head + last.substr(0, last.find("27.5") + 3));
  ASSERT_TRUE(ok);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].ts_us, 1234);
  EXPECT_DOUBLE_EQ(parsed[1].value, 27.0);

  // Cut inside the timestamp, before any value.
  std::tie(ok, parsed) = Parse(head + last.substr(0, last.find("1234") + 2));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].name, "cc/bwe_kbps");
  EXPECT_EQ(parsed[1].ts_us, 12);
  EXPECT_DOUBLE_EQ(parsed[1].value, 0.0);

  // Cut before the phase: the line is not an event.
  std::tie(ok, parsed) = Parse(head + last.substr(0, last.find("\"ph\"")));
  EXPECT_EQ(parsed.size(), 1u);
  std::tie(ok, parsed) = Parse(head + "{\"name\": \"cc/bw");
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(ReadTraceJsonTest, LabelTextDoesNotShadowKeys) {
  TraceRecorder recorder;
  recorder.Instant(Track::kFaultInjection, Timestamp::Millis(7),
                   "\"name\": \"x\", \"ph\": \"C\", \"ts\": 99, \\ok");
  recorder.Counter(Track::kEncoderQp, Timestamp::Millis(8), 31.0);
  std::ostringstream os;
  recorder.WriteJson(os);
  const auto [ok, parsed] = Parse(os.str());
  ASSERT_TRUE(ok);
  ASSERT_EQ(parsed.size(), 11u);  // process + 8 thread rows + 2 events
  const ParsedTraceEvent& instant = parsed[9];
  EXPECT_EQ(instant.name, "fault/injection");
  EXPECT_EQ(instant.phase, "i");
  EXPECT_EQ(instant.ts_us, 7000);
  EXPECT_EQ(instant.arg, "\"name\": \"x\", \"ph\": \"C\", \"ts\": 99, \\ok");
  EXPECT_EQ(parsed[10].name, "encoder/qp");
  EXPECT_DOUBLE_EQ(parsed[10].value, 31.0);
  EXPECT_EQ(parsed[1].phase, "M");
  EXPECT_EQ(parsed[1].arg, "encoder");
}

TEST(TraceScopeTest, InstallsAndRestores) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  TraceRecorder recorder;
  {
    TraceScope scope(&recorder);
    EXPECT_EQ(CurrentTrace(), &recorder);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

#ifndef RAVE_TRACING_DISABLED

/// Runs the canonical drop scenario with a recorder installed and returns
/// the serialized trace.
std::string TraceSession(rtc::Scheme scheme) {
  const rtc::SessionConfig config = bench::DefaultConfig(
      scheme, bench::DropTrace(0.6), video::ContentClass::kTalkingHead,
      TimeDelta::Seconds(14), /*seed=*/42);
  TraceRecorder recorder;
  std::ostringstream os;
  {
    TraceScope scope(&recorder);
    rtc::RunSession(config);
  }
  recorder.WriteJson(os);
  return os.str();
}

std::set<std::string> Subsystems(const std::string& json) {
  std::istringstream is(json);
  std::vector<ParsedTraceEvent> parsed;
  EXPECT_TRUE(ReadTraceJson(is, &parsed));
  std::set<std::string> subsystems;
  for (const ParsedTraceEvent& e : parsed) {
    if (e.phase != "C" && e.phase != "i") continue;
    subsystems.insert(e.name.substr(0, e.name.find('/')));
  }
  return subsystems;
}

TEST(TraceSessionTest, SessionTraceCoversSixSubsystems) {
  // The acceptance bar: at least six distinct subsystem tracks per session.
  // The adaptive scheme's codec path has no VBV; its sixth subsystem is the
  // core controller's frame-budget track instead.
  const std::set<std::string> adaptive =
      Subsystems(TraceSession(rtc::Scheme::kAdaptive));
  EXPECT_GE(adaptive.size(), 6u);
  for (const char* want :
       {"encoder", "cc", "transport", "net", "core", "session"}) {
    EXPECT_TRUE(adaptive.count(want)) << "adaptive trace missing " << want;
  }

  const std::set<std::string> abr =
      Subsystems(TraceSession(rtc::Scheme::kX264Abr));
  EXPECT_GE(abr.size(), 6u);
  for (const char* want :
       {"encoder", "codec", "cc", "transport", "net", "session"}) {
    EXPECT_TRUE(abr.count(want)) << "abr trace missing " << want;
  }
}

TEST(TraceSessionTest, TracesAreByteIdenticalAcrossJobCounts) {
  // Same sessions, worker pools of 1 and 8: the recorder rides the worker
  // thread via the thread-local scope, so each session's trace must not
  // depend on scheduling at all.
  const std::vector<rtc::Scheme> schemes = {
      rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive, rtc::Scheme::kX264Abr,
      rtc::Scheme::kAdaptive};
  auto run_with_jobs = [&](int jobs) {
    std::vector<std::string> traces(schemes.size());
    runner::ParallelRunner pool(jobs);
    for (size_t i = 0; i < schemes.size(); ++i) {
      pool.Post([&traces, &schemes, i] {
        traces[i] = TraceSession(schemes[i]);
      });
    }
    pool.WaitIdle();
    return traces;
  };
  const std::vector<std::string> serial = run_with_jobs(1);
  const std::vector<std::string> parallel = run_with_jobs(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trace " << i << " diverged";
    EXPECT_GT(serial[i].size(), 1000u);
  }
}

#endif  // RAVE_TRACING_DISABLED

}  // namespace
}  // namespace rave::obs
