// perfbench: the repository benchmark.
//
//   perfbench --workload=sweep|suite_cold|suite_warm --seed=N --seconds=S
//             --trace=0|1 --work-dir=DIR [--size=full|tiny] [--setup-only=1]
//
// Untraced runs (--trace=0) set up, time the same cold set-up again in
// fresh child processes (--setup-only=1: set up, print the time, exit), then
// repeat the workload's pass for S seconds and print the end-to-end metrics
// as medians, scaled to a nominal host speed by the reference slices
// (reference.cpp). Traced runs (--trace=1) record spans around every layer call
// the benchmark makes, run the layer probes, and print the per-layer
// metrics. Either way every operation's output is checked against the
// first pass (and, for the suites, against the other cache temperature and
// job count), and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 whenever that line was printed; a failed check shows as
// "correct": false, not as a crash. README.md maps every metric to its
// layer and to the workload it should move.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench.h"
#include "registry.h"
#include "rtc/scheme.h"
#include "util/logging.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  bool tiny = false;
  bool setup_only = false;
};

/// Input sizes. Full is what BENCHMARK.json runs; tiny keeps the benchmark's
/// own tests fast (12 s sessions keep the post-drop phase).
struct Size {
  int sweep_seeds_per_cell;
  double sweep_duration_s;
  SuiteOptions suite;
};

/// Untraced runs report the median of this many cold set-ups: the run's own
/// and the rest each in a fresh process, so every one pays the one-time
/// costs (lazy statics, first-touch paging) the run's own set-up pays.
constexpr int kColdSetups = 3;

/// Wall time of one ReferenceMeter slice at the nominal host speed. Each
/// set-up and pass is reported scaled by nominal / measured slice time,
/// because the shared hosts this runs on change speed by up to 2x over
/// minutes (README.md, "Host-speed reference").
constexpr double kSliceNominalS = 0.0025;

Size SizeFor(bool tiny) {
  if (tiny) return Size{1, 12.0, SuiteOptions{2, 12.0}};
  return Size{6, 60.0, SuiteOptions{2, 0.0}};
}

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::cerr << "perfbench: bad argument '" << a << "' (want --key=value)\n";
      return false;
    }
    kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  try {
    for (const auto& [key, value] : kv) {
      if (key == "workload") {
        args->workload = value;
      } else if (key == "seed") {
        args->seed = std::stoull(value);
      } else if (key == "seconds") {
        args->seconds = std::stod(value);
      } else if (key == "trace") {
        args->trace = value == "1";
      } else if (key == "work-dir") {
        args->work_dir = value;
      } else if (key == "setup-only") {
        args->setup_only = value == "1";
      } else if (key == "size") {
        if (value != "full" && value != "tiny") throw std::invalid_argument(value);
        args->tiny = value == "tiny";
      } else {
        std::cerr << "perfbench: unknown flag --" << key << '\n';
        return false;
      }
    }
  } catch (const std::exception&) {
    std::cerr << "perfbench: malformed flag value\n";
    return false;
  }
  if (args->workload != "sweep" && args->workload != "suite_cold" &&
      args->workload != "suite_warm") {
    std::cerr << "perfbench: --workload must be sweep, suite_cold or "
                 "suite_warm\n";
    return false;
  }
  if (args->work_dir.empty()) {
    std::cerr << "perfbench: --work-dir is required\n";
    return false;
  }
  return true;
}

void ResetDir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// Checks every entry of `pass` against the reference digests: exit code 0,
/// identical output bytes, and (for passes that must be served from disk)
/// no session computed.
void CheckSuite(const SuitePass& pass, const std::vector<EntryOutcome>& ref,
                bool expect_no_computes, const char* label, Tally* tally) {
  const std::vector<rave::bench::BenchEntry>& entries = rave::bench::AllBenches();
  for (size_t i = 0; i < pass.entries.size(); ++i) {
    const EntryOutcome& e = pass.entries[i];
    const bool same = i < ref.size() && e.digest == ref[i].digest;
    const bool ok = e.exit_code == 0 && same &&
                    (!expect_no_computes || e.computes == 0);
    if (!ok) {
      std::cerr << "perfbench: " << label << " check failed for " << entries[i].name
                << " (exit " << e.exit_code << ", output "
                << (same ? "identical" : "differs") << ", " << e.computes
                << " computed)\n";
    }
    tally->Check(ok);
  }
}

std::string SuiteDigest(const std::vector<EntryOutcome>& entries) {
  std::string all;
  for (const EntryOutcome& e : entries) all += e.digest.ToHex();
  return Digest(all).ToHex();
}

void CheckSweep(const std::vector<SessionSample>& samples,
                const std::vector<SessionSample>& ref, Tally* tally) {
  for (size_t i = 0; i < samples.size(); ++i) {
    const bool ok = i < ref.size() && samples[i].digest == ref[i].digest;
    if (!ok) {
      std::cerr << "perfbench: sweep session " << i
                << " result differs from the first pass\n";
    }
    tally->Check(ok);
  }
}

std::string SweepDigest(const std::vector<SessionSample>& samples) {
  std::string all;
  for (const SessionSample& s : samples) all += s.digest.ToHex();
  return Digest(all).ToHex();
}

/// State a workload keeps between set-up, passes and checks.
struct Context {
  Args args;
  Size size;
  Tally tally;
  // sweep
  SweepPlan plan;
  std::vector<SessionSample> sweep_ref;
  // suites
  std::vector<EntryOutcome> suite_ref;
  std::string fill_dir;  // suite_warm: the directory the set-up filled
  CacheScan fill_scan;   // suite_warm: what that directory holds
  int cold_dirs = 0;     // suite_cold: passes so far (names their dirs)
  std::string exe;       // this binary, for the child set-ups
};

std::string WorkPath(const Context& ctx, const std::string& name) {
  return ctx.args.work_dir + "/" + name;
}

// --- set-up ------------------------------------------------------------------

/// sweep: build the session matrix and run it once, unmeasured, so that
/// lazy statics and every scheme's and content model's code paths are warm
/// before timing; that pass's digests are the reference.
void SetupSweep(Context& ctx) {
  ctx.plan = MakeSweepPlan(ctx.args.seed, ctx.size.sweep_seeds_per_cell,
                           ctx.size.sweep_duration_s);
  PassTime unused;
  ctx.sweep_ref = RunSweepPass(ctx.plan, &unused);
}

/// suite_cold: one in-memory suite pass at 12 s sessions (every entry
/// point's lazy set-up, nothing written to disk).
void SetupSuiteCold(Context& ctx) {
  SuiteOptions warmup = ctx.size.suite;
  warmup.duration_s = 12.0;
  const SuitePass pass = RunSuitePass("", warmup);
  for (const EntryOutcome& e : pass.entries) ctx.tally.Check(e.exit_code == 0);
}

/// suite_warm: a cold jobs=2 pass fills a fresh cache directory, then the
/// directory is read back once to count what it holds.
void SetupSuiteWarm(Context& ctx) {
  const std::string dir = WorkPath(ctx, "fill");
  ResetDir(dir);
  const SuitePass fill = RunSuitePass(dir, ctx.size.suite);
  if (ctx.suite_ref.empty()) ctx.suite_ref = fill.entries;
  CheckSuite(fill, ctx.suite_ref, false, "cold fill", &ctx.tally);
  ctx.fill_scan = ScanCacheDir(dir, 0);
  ctx.fill_dir = dir;
}

/// `seconds`, measured while the reference slices since `mark` ran, stated
/// at the nominal host speed. Runs one more slice if none has run since.
double AtNominalSpeed(double seconds, size_t mark) {
  if (Meter().slices() == mark) Meter().Slice();
  return seconds * kSliceNominalS / Meter().MedianSliceSince(mark);
}

/// The workload's set-up; returns its wall time (reference slices left
/// out) at the nominal host speed.
double Setup(Context& ctx) {
  const size_t ref_mark = Meter().slices();
  const Clock::time_point start = Clock::now();
  if (ctx.args.workload == "sweep") {
    SetupSweep(ctx);
  } else if (ctx.args.workload == "suite_cold") {
    SetupSuiteCold(ctx);
  } else {
    SetupSuiteWarm(ctx);
  }
  const double elapsed = SecondsSince(start) - Meter().WallSince(ref_mark);
  return AtNominalSpeed(elapsed, ref_mark);
}

/// Runs the workload's set-up in a fresh process (this binary with
/// --setup-only=1) and returns the time the child measured; a child that
/// fails its checks or prints no time counts as a failed operation.
double ChildSetup(Context& ctx, int index) {
  const std::string dir = WorkPath(ctx, "setup-" + std::to_string(index));
  std::vector<std::string> argv_s = {
      ctx.exe,
      "--workload=" + ctx.args.workload,
      "--seed=" + std::to_string(ctx.args.seed),
      "--work-dir=" + dir,
      std::string("--size=") + (ctx.args.tiny ? "tiny" : "full"),
      "--setup-only=1"};
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  pid_t pid = 0;
  const int err = posix_spawn(&pid, ctx.exe.c_str(), &actions, nullptr, argv.data(),
                              environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  if (err == 0) {
    char buf[256];
    for (ssize_t n; (n = read(out[0], buf, sizeof buf)) > 0;) {
      text.append(buf, static_cast<size_t>(n));
    }
  }
  close(out[0]);
  if (err != 0) throw std::runtime_error("cannot start the child set-up");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  fs::remove_all(dir);

  double seconds = 0.0;
  const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                  (std::istringstream(text) >> seconds) && seconds > 0.0;
  if (!ok) std::cerr << "perfbench: child set-up " << index << " failed\n";
  ctx.tally.Check(ok);
  return seconds;
}

// --- passes ------------------------------------------------------------------

struct PassResult {
  PassTime time;
  double sessions = 0.0;
  double sim_seconds = 0.0;
  std::vector<SessionSample> sweep;  // sweep passes only
  SuitePass suite;                   // suite passes only
  std::string cache_dir;             // suite passes only
};

PassResult RunPass(Context& ctx) {
  PassResult result;
  if (ctx.args.workload == "sweep") {
    result.sweep = RunSweepPass(ctx.plan, &result.time);
    CheckSweep(result.sweep, ctx.sweep_ref, &ctx.tally);
    result.sessions = static_cast<double>(ctx.plan.configs.size());
    result.sim_seconds = ctx.plan.sim_seconds;
    return result;
  }
  if (ctx.args.workload == "suite_cold") {
    // Alternate two directories; each pass starts from an empty one.
    result.cache_dir = WorkPath(ctx, "cold-" + std::to_string(ctx.cold_dirs++ % 2));
    ResetDir(result.cache_dir);
    result.suite = RunSuitePass(result.cache_dir, ctx.size.suite);
    if (ctx.suite_ref.empty()) {
      ctx.suite_ref = result.suite.entries;
      ctx.fill_scan = ScanCacheDir(result.cache_dir, 0);
    }
    CheckSuite(result.suite, ctx.suite_ref, false, "cold pass", &ctx.tally);
  } else {
    result.cache_dir = ctx.fill_dir;
    result.suite = RunSuitePass(ctx.fill_dir, ctx.size.suite);
    CheckSuite(result.suite, ctx.suite_ref, true, "warm pass", &ctx.tally);
  }
  result.time = result.suite.time;
  result.sessions = static_cast<double>(ctx.fill_scan.sessions);
  result.sim_seconds = ctx.fill_scan.sim_seconds;
  return result;
}

/// The cross-checks that close a suite run: the other cache temperature and
/// the other job count must print the same bytes.
void FinalSuiteChecks(Context& ctx, const std::string& last_dir) {
  SuiteOptions serial = ctx.size.suite;
  serial.jobs = 1;
  if (ctx.args.workload == "suite_cold") {
    const SuitePass warm = RunSuitePass(last_dir, ctx.size.suite);
    CheckSuite(warm, ctx.suite_ref, true, "cold-vs-warm", &ctx.tally);
    const SuitePass jobs1 = RunSuitePass("", serial);
    CheckSuite(jobs1, ctx.suite_ref, false, "jobs=1-vs-jobs=2", &ctx.tally);
  } else {
    const SuitePass jobs1 = RunSuitePass(ctx.fill_dir, serial);
    CheckSuite(jobs1, ctx.suite_ref, true, "jobs=1-vs-jobs=2", &ctx.tally);
  }
}

void PrintDigest(const Context& ctx) {
  const std::string digest = ctx.args.workload == "sweep"
                                 ? SweepDigest(ctx.sweep_ref)
                                 : SuiteDigest(ctx.suite_ref);
  std::cout << "perfbench: digest " << ctx.args.workload << " seed "
            << ctx.args.seed << ": " << digest << '\n';
}

// --- untraced run: end-to-end metrics ----------------------------------------

/// Threads a pass of the workload keeps busy.
int PassThreads(const Context& ctx) {
  return ctx.args.workload == "sweep" ? 1 : ctx.size.suite.jobs;
}

MetricList RunUntraced(Context& ctx) {
  std::vector<double> setup_s = {Setup(ctx)};
  for (int i = 1; i < kColdSetups; ++i) setup_s.push_back(ChildSetup(ctx, i));
  // The peak RSS reported is that of the passes alone.
  ResetPeakRss();
  std::vector<double> wall, cpu;
  double sessions = 0.0, sim_seconds = 0.0;
  std::string last_dir;
  const size_t ref_mark = Meter().slices();
  const Clock::time_point start = Clock::now();
  do {
    PassResult pass = RunPass(ctx);
    wall.push_back(pass.time.wall_s);
    cpu.push_back(pass.time.cpu_s);
    sessions = pass.sessions;
    sim_seconds = pass.sim_seconds;
    last_dir = pass.cache_dir;
  } while (SecondsSince(start) < ctx.args.seconds);
  const double wall_s = AtNominalSpeed(Median(wall), ref_mark);
  const double cpu_s = AtNominalSpeed(Median(cpu), ref_mark);
  const double slice_ms = Meter().MedianSliceSince(ref_mark) * 1e3;
  const double peak_rss_mb = PeakRssMb();
  if (ctx.args.workload != "sweep") FinalSuiteChecks(ctx, last_dir);

  std::cout << "perfbench: " << ctx.args.workload << " " << wall.size()
            << " passes of " << sessions << " sessions; median pass " << Median(wall)
            << " s wall, " << Median(cpu) << " s CPU measured; median reference slice "
            << slice_ms << " ms (nominal " << kSliceNominalS * 1e3 << " ms)\n";
  std::cout << "perfbench: measured pass walls (s):";
  for (double w : wall) std::cout << ' ' << w;
  std::cout << '\n';
  PrintDigest(ctx);
  return {
      {"setup_s", Median(setup_s), "s"},
      {"wall_s", wall_s, "s"},
      {"cpu_s", cpu_s, "s"},
      {"sessions_per_s", sessions / wall_s, "1/s"},
      {"sim_s_per_s", sim_seconds / wall_s, "s/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

// --- traced run: per-layer metrics -------------------------------------------

/// Σ(unit cost × deterministic count) over the sweep's sessions, by term.
struct Reconciliation {
  std::vector<std::pair<std::string, double>> terms_s;
  double attributed_s = 0.0;
  double busy_s = 0.0;
};

Reconciliation Reconcile(const std::vector<SessionSample>& sessions,
                         const UnitCosts& c) {
  double event = 0, pipeline = 0, feedback = 0, cc = 0, encode = 0,
         update = 0, capture = 0, record = 0, lookup = 0;
  Reconciliation r;
  for (const SessionSample& s : sessions) {
    const double packets = static_cast<double>(s.packets_to_link);
    const double frames = static_cast<double>(s.frames_encoded);
    const double reports = static_cast<double>(s.feedback_updates);
    const double captured = static_cast<double>(s.frames_captured);
    // Events the pipeline probe's per-packet cost already covers are not
    // charged again at the bare event-loop rate.
    const double other_events = std::max(
        0.0, static_cast<double>(s.events) - c.pipeline_events_per_packet * packets);
    event += c.ns_per_event * other_events;
    pipeline += c.pipeline_ns_per_packet * packets;
    feedback += c.feedback_ns_per_report * reports;
    cc += c.cc_ns_per_feedback * reports;
    encode += c.encode_ns_per_frame[s.scheme] * frames;
    // Network-aware schemes take an observation before every frame and on
    // every feedback report.
    update += c.network_update_ns[s.scheme] * (frames + reports);
    capture += c.capture_ns_per_frame * captured;
    record += c.record_ns_per_frame * captured;
    // Registry lookups by name: two per encoded frame (encoder counter and
    // qp sketch) and one per feedback update.
    lookup += c.registry_lookup_ns * (2.0 * frames + reports);
    r.busy_s += s.wall_s;
  }
  r.terms_s = {{"sim events (non-packet)", event * 1e-9},
               {"transport pipeline", pipeline * 1e-9},
               {"transport feedback", feedback * 1e-9},
               {"cc gcc", cc * 1e-9},
               {"codec encode", encode * 1e-9},
               {"core network update", update * 1e-9},
               {"video capture", capture * 1e-9},
               {"metrics record", record * 1e-9},
               {"obs registry lookup", lookup * 1e-9}};
  for (const auto& [name, s] : r.terms_s) r.attributed_s += s;
  return r;
}

void PrintReconciliation(const Reconciliation& r) {
  std::cout << "perfbench: reconciliation over " << r.busy_s
            << " s of RunSession wall\n";
  for (const auto& [name, s] : r.terms_s) {
    std::cout << "  " << std::left << std::setw(26) << name << std::right
              << std::setw(10) << std::fixed << std::setprecision(4) << s
              << " s  " << std::setw(6) << std::setprecision(1)
              << 100.0 * s / r.busy_s << " %\n";
  }
  std::cout << "  " << std::left << std::setw(26) << "unattributed" << std::right
            << std::setw(10) << std::setprecision(4) << r.busy_s - r.attributed_s
            << " s  " << std::setw(6) << std::setprecision(1)
            << 100.0 * (1.0 - r.attributed_s / r.busy_s) << " %\n";
  std::cout.unsetf(std::ios::floatfield);
  std::cout << std::setprecision(6);
}

MetricList RunTraced(Context& ctx) {
  SpanLog& spans = Spans();
  spans.Reserve(1 << 16);
  Setup(ctx);

  // Tracing overhead: alternate untraced and traced passes of the workload.
  std::vector<double> untraced, traced;
  PassResult last;
  for (int i = 0; i < 4; ++i) {
    const bool on = i % 2 == 1;
    spans.set_enabled(on);
    PassResult pass = RunPass(ctx);
    (on ? traced : untraced).push_back(pass.time.wall_s);
    if (on) last = std::move(pass);
  }
  if (ctx.args.workload != "sweep") {
    spans.set_enabled(false);
    FinalSuiteChecks(ctx, last.cache_dir);
  }
  spans.set_enabled(true);

  // Simulation layers: the sweep's sessions (this workload's last traced
  // pass, or one traced sweep pass when the workload is a suite).
  std::vector<SessionSample> sweep = last.sweep;
  if (ctx.args.workload != "sweep") {
    const SweepPlan plan = MakeSweepPlan(ctx.args.seed, ctx.size.sweep_seeds_per_cell,
                                         ctx.size.sweep_duration_s);
    PassTime time;
    sweep = RunSweepPass(plan, &time);
  }

  // Runner and entry points: this workload's suite pass, or one traced cold
  // pass when the workload is the sweep.
  SuitePass suite = last.suite;
  std::string cache_dir = last.cache_dir;
  if (ctx.args.workload == "sweep") {
    cache_dir = WorkPath(ctx, "cold-0");
    ResetDir(cache_dir);
    suite = RunSuitePass(cache_dir, ctx.size.suite);
    // No reference to compare with here; the suite workloads check bytes.
    for (const EntryOutcome& e : suite.entries) ctx.tally.Check(e.exit_code == 0);
  }
  const CacheScan scan = ScanCacheDir(cache_dir, 64);

  int64_t packets = 0;
  uint64_t reports = 0;
  for (const SessionSample& s : sweep) {
    packets += s.packets_delivered;
    reports += s.feedback_updates;
  }
  ProbeInputs inputs;
  inputs.packets_per_report =
      reports > 0 ? static_cast<int>(std::lround(static_cast<double>(packets) /
                                                 static_cast<double>(reports)))
                  : 10;
  inputs.sample = &scan.sample;
  inputs.cache_dir = cache_dir;
  const UnitCosts costs = RunProbes(inputs, ctx.args.seed);
  spans.set_enabled(false);

  const Reconciliation rec = Reconcile(sweep, costs);
  PrintReconciliation(rec);
  std::cout << "perfbench: " << inputs.packets_per_report
            << " packets per feedback report, "
            << costs.pipeline_events_per_packet
            << " loop events per pipeline packet\n";
  PrintDigest(ctx);

  std::vector<double> session_ms;
  double events = 0, delivered = 0, drops = 0, updates = 0, frames = 0,
         reencodes = 0, captured = 0, allocs = 0;
  for (const SessionSample& s : sweep) {
    session_ms.push_back(s.wall_s * 1e3);
    events += static_cast<double>(s.events);
    delivered += static_cast<double>(s.packets_delivered);
    drops += static_cast<double>(s.tail_drops);
    updates += static_cast<double>(s.feedback_updates);
    frames += static_cast<double>(s.frames_encoded);
    reencodes += static_cast<double>(s.reencodes);
    captured += static_cast<double>(s.frames_captured);
    allocs += static_cast<double>(s.allocs);
  }
  const double lookups = static_cast<double>(suite.cache.computes +
                                             suite.cache.memory_hits +
                                             suite.cache.disk_hits);
  const double hits =
      static_cast<double>(suite.cache.memory_hits + suite.cache.disk_hits);

  MetricList m = {
      {"rtc.session_ms_p50", Percentile(session_ms, 0.50), "ms"},
      {"rtc.session_ms_p95", Percentile(session_ms, 0.95), "ms"},
      {"rtc.unattributed_frac", 1.0 - rec.attributed_s / rec.busy_s, "ratio"},
      {"rtc.session_busy_s", rec.busy_s, "s"},
      {"sim.events", events, "count"},
      {"sim.ns_per_event", costs.ns_per_event, "ns"},
      {"net.packets_delivered", delivered, "count"},
      {"net.tail_drops", drops, "count"},
      {"net.link_ns_per_packet", costs.link_ns_per_packet, "ns"},
      {"transport.pipeline_ns_per_packet", costs.pipeline_ns_per_packet, "ns"},
      {"transport.feedback_ns_per_report", costs.feedback_ns_per_report, "ns"},
      {"cc.feedback_updates", updates, "count"},
      {"cc.ns_per_feedback", costs.cc_ns_per_feedback, "ns"},
      {"codec.frames_encoded", frames, "count"},
      {"codec.reencodes", reencodes, "count"},
  };
  for (int k = 0; k < kSweepSchemeCount; ++k) {
    m.push_back({"codec.encode_ns_per_frame." + rave::rtc::ToString(kSweepSchemes[k]),
                 costs.encode_ns_per_frame[k], "ns"});
  }
  const MetricList tail = {
      {"core.network_update_ns", costs.network_update_ns[1], "ns"},
      {"video.capture_ns_per_frame", costs.capture_ns_per_frame, "ns"},
      {"metrics.record_ns_per_frame", costs.record_ns_per_frame, "ns"},
      {"obs.registry_lookup_ns", costs.registry_lookup_ns, "ns"},
      {"obs.sketch_merge_us", costs.sketch_merge_us, "us"},
      {"alloc.per_frame", allocs / captured, "allocs/frame"},
      {"alloc.per_event", allocs / events, "allocs/event"},
      {"runner.encode_us_per_blob", costs.encode_us_per_blob, "us"},
      {"runner.store_ms_per_blob", costs.store_ms_per_blob, "ms"},
      {"runner.blob_kb", scan.mean_blob_kb, "KiB"},
      {"runner.decode_us_per_blob", costs.decode_us_per_blob, "us"},
      {"runner.lookup_ms_per_blob",
       scan.sessions > 0 ? scan.lookup_s * 1e3 / static_cast<double>(scan.sessions)
                         : 0.0,
       "ms"},
      {"runner.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio"},
      {"runner.computes", static_cast<double>(suite.cache.computes), "count"},
      {"runner.parallel_efficiency",
       suite.session_busy_s / (ctx.size.suite.jobs * suite.time.wall_s), "ratio"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  const std::vector<rave::bench::BenchEntry>& entries = rave::bench::AllBenches();
  for (size_t i = 0; i < entries.size() && i < suite.entries.size(); ++i) {
    m.push_back({"bench." + std::string(entries[i].name) + "_ms", suite.entries[i].ms,
                 "ms"});
  }
  m.push_back({"trace.overhead_s", Median(traced) - Median(untraced), "s"});
  m.push_back({"host.reference_slice_ms", Meter().MedianSliceSince(0) * 1e3, "ms"});
  // Every check of this run is done; the same ratio untraced runs report as
  // "failed" / "attempted".
  m.push_back({"failed_ratio",
               static_cast<double>(ctx.tally.failed) /
                   static_cast<double>(std::max<uint64_t>(ctx.tally.attempted, 1)),
               "ratio"});

  const std::string spans_path = WorkPath(
      ctx, "spans-" + ctx.args.workload + "-seed" + std::to_string(ctx.args.seed) +
               ".jsonl");
  if (!spans.WriteJsonl(spans_path)) {
    throw std::runtime_error("cannot write " + spans_path);
  }
  std::cout << "perfbench: " << spans.spans().size() << " spans written to "
            << spans_path << '\n';
  return m;
}

void PrintResult(const Tally& tally, const MetricList& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int Main(int argc, char** argv) {
  Context ctx;
  if (!ParseArgs(argc, argv, &ctx.args)) return 2;
  ctx.size = SizeFor(ctx.args.tiny);
  rave::SetLogLevelFromString("warning");
  fs::create_directories(ctx.args.work_dir);
  ctx.args.work_dir = fs::absolute(ctx.args.work_dir).string();
  // Entry points write their declared output files to the working directory.
  fs::current_path(ctx.args.work_dir);
  for (const fs::directory_entry& e : fs::directory_iterator(ctx.args.work_dir)) {
    fs::remove_all(e.path());
  }
  ctx.exe = fs::read_symlink("/proc/self/exe").string();
  Meter().set_threads(PassThreads(ctx));

  if (ctx.args.setup_only) {
    const double seconds = Setup(ctx);
    std::cout << std::setprecision(17) << seconds << std::endl;
    return ctx.tally.failed == 0 ? 0 : 1;
  }

  const MetricList metrics = ctx.args.trace ? RunTraced(ctx) : RunUntraced(ctx);
  // Remove the cache directories before the kernel starts writing them back,
  // so that no run leaves disk work behind for the next one.
  for (const fs::directory_entry& e : fs::directory_iterator(ctx.args.work_dir)) {
    if (e.path().extension() != ".jsonl") fs::remove_all(e.path());
  }
  PrintResult(ctx.tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    return 1;
  }
}
