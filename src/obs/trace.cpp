#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <string_view>

namespace rave::obs {
namespace {

struct TrackInfo {
  const char* name;
  const char* subsystem;
  int tid;
};

// Subsystem tids group tracks into Perfetto "thread" rows per subsystem.
constexpr TrackInfo kTracks[kTrackCount] = {
    {"encoder/qp", "encoder", 1},
    {"encoder/frame_kbits", "encoder", 1},
    {"encoder/keyframe", "encoder", 1},
    {"codec/vbv_fill", "codec", 2},
    {"codec/abr_rate_ratio", "codec", 2},
    {"cc/bwe_kbps", "cc", 3},
    {"cc/trendline_state", "cc", 3},
    {"cc/loss_rate", "cc", 3},
    {"transport/pacer_queue_ms", "transport", 4},
    {"net/link_queue_ms", "net", 5},
    {"core/breaker_state", "core", 6},
    {"core/frame_budget_kbits", "core", 6},
    {"fault/injection", "fault", 7},
    {"session/capacity_kbps", "session", 8},
};

thread_local TraceRecorder* g_current_trace = nullptr;

void AppendJsonEscaped(std::string* out, const char* s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      const char escape[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                             kHex[c & 0xf]};
      out->append(escape, sizeof(escape));
    } else {
      out->push_back(c);
    }
  }
}

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

// The standard defines this precision form as printf's "%.10g".
void AppendDouble(std::string* out, double v) {
  char buf[40];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, 10);
  out->append(buf, r.ptr);
}

}  // namespace

const char* TrackName(Track track) {
  return kTracks[static_cast<size_t>(track)].name;
}

const char* TrackSubsystem(Track track) {
  return kTracks[static_cast<size_t>(track)].subsystem;
}

TraceRecorder::TraceRecorder(Options options) : options_(options) {
  if (options_.sample_hz > 0.0) {
    min_interval_us_ = static_cast<int64_t>(1e6 / options_.sample_hz);
  }
  next_allowed_us_.fill(std::numeric_limits<int64_t>::min());
  events_.reserve(options_.reserve);
}

void TraceRecorder::Counter(Track track, Timestamp at, double value) {
  const int64_t at_us = at.us();
  if (min_interval_us_ > 0) {
    int64_t& next = next_allowed_us_[static_cast<size_t>(track)];
    if (at_us < next) return;
    next = at_us + min_interval_us_;
  }
  events_.push_back(TraceEvent{at_us, value, nullptr, track, false});
}

void TraceRecorder::Instant(Track track, Timestamp at, const char* label) {
  events_.push_back(TraceEvent{at.us(), 0.0, label, track, true});
}

void TraceRecorder::WriteJson(std::ostream& os) const {
  // Every event line starts with a prefix that depends only on its track
  // and phase; format each once, then append per event.
  std::array<std::string, 2 * kTrackCount> prefixes;
  for (size_t t = 0; t < kTrackCount; ++t) {
    for (const bool instant : {false, true}) {
      std::string& prefix = prefixes[2 * t + (instant ? 1 : 0)];
      prefix += "{\"name\": \"";
      AppendJsonEscaped(&prefix, kTracks[t].name);
      prefix += "\", \"ph\": \"";
      prefix += instant ? 'i' : 'C';
      prefix += "\", \"pid\": 1, \"tid\": ";
      AppendInt(&prefix, kTracks[t].tid);
      prefix += ", \"ts\": ";
    }
  }

  std::string doc;
  doc.reserve(1024 + events_.size() * 128);
  doc += "{\"traceEvents\": [\n";
  // Metadata first: one process plus one named "thread" per subsystem, so
  // Perfetto groups the tracks into labeled rows.
  doc += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"args\": {\"name\": \"rave session\"}},\n";
  bool seen_tid[16] = {};
  for (const TrackInfo& info : kTracks) {
    if (seen_tid[info.tid]) continue;
    seen_tid[info.tid] = true;
    doc += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": ";
    AppendInt(&doc, info.tid);
    doc += ", \"args\": {\"name\": \"";
    AppendJsonEscaped(&doc, info.subsystem);
    doc += "\"}},\n";
  }
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& ev = events_[i];
    doc += prefixes[2 * static_cast<size_t>(ev.track) + (ev.instant ? 1 : 0)];
    AppendInt(&doc, ev.at_us);
    if (ev.instant) {
      doc += ", \"s\": \"t\", \"args\": {\"label\": \"";
      AppendJsonEscaped(&doc, ev.label != nullptr ? ev.label : "");
      doc += "\"}}";
    } else {
      doc += ", \"args\": {\"value\": ";
      AppendDouble(&doc, ev.value);
      doc += "}}";
    }
    if (i + 1 < events_.size()) doc += ',';
    doc += '\n';
  }
  doc += "]}\n";
  os.write(doc.data(), static_cast<std::streamsize>(doc.size()));
}

bool TraceRecorder::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return false;
  WriteJson(out);
  out.flush();
  if (!out.good()) {
    out.close();
    std::remove(path.c_str());
    return false;
  }
  return true;
}

bool ParseTraceSpec(const std::string& spec, std::string* path,
                    TraceRecorder::Options* options) {
  std::string p = spec;
  TraceRecorder::Options opts;
  const size_t colon = spec.find_last_of(':');
  // A ':' only splits off a sample rate when the suffix is numeric; this
  // keeps Windows-style "C:/..." paths and plain paths working.
  if (colon != std::string::npos && colon + 1 < spec.size()) {
    const std::string suffix = spec.substr(colon + 1);
    char* end = nullptr;
    const double hz = std::strtod(suffix.c_str(), &end);
    if (end != nullptr && *end == '\0' && end != suffix.c_str()) {
      if (hz <= 0.0) return false;
      opts.sample_hz = hz;
      p = spec.substr(0, colon);
    }
  }
  if (p.empty()) return false;
  *path = p;
  *options = opts;
  return true;
}

namespace {

/// The rest of `is` in one string. The first read is sized by what the
/// stream reports available (the whole file for a fresh file stream, the
/// whole buffer for a string stream), plus one byte to observe the end;
/// a stream that under-reports is drained by further reads.
std::string ReadAll(std::istream& is) {
  std::string text;
  std::streambuf* buf = is.rdbuf();
  std::streamsize want =
      std::max<std::streamsize>(buf != nullptr ? buf->in_avail() : 0, 0) + 1;
  while (is) {
    const size_t have = text.size();
    text.resize(have + static_cast<size_t>(want));
    is.read(text.data() + have, want);
    text.resize(have + static_cast<size_t>(is.gcount()));
    want = std::max<std::streamsize>(want, 1 << 16);
  }
  return text;
}

constexpr std::string_view kNameKey = "\"name\":";
constexpr std::string_view kPhaseKey = "\"ph\":";
constexpr std::string_view kTsKey = "\"ts\":";
constexpr std::string_view kValueKey = "\"value\":";
constexpr std::string_view kLabelKey = "\"label\":";
constexpr std::string_view kArgs = "\"args\"";
constexpr size_t kNone = std::string_view::npos;

/// Where each key the reader needs first occurs in a line (kNone: absent).
struct KeyPositions {
  size_t name = kNone;
  size_t phase = kNone;
  size_t ts = kNone;
  size_t value = kNone;
};

// Every occurrence of one of these keys ends in '":', so one pass over the
// line's colons finds the same first occurrences as one `find` per key.
KeyPositions LocateKeys(std::string_view line) {
  KeyPositions at;
  const auto claim = [line](size_t* slot, std::string_view key, size_t colon) {
    const size_t start = colon + 1 - key.size();
    if (*slot == kNone && colon + 1 >= key.size() &&
        line.substr(start, key.size()) == key) {
      *slot = start;
    }
  };
  for (size_t colon = line.find(':'); colon != kNone;
       colon = line.find(':', colon + 1)) {
    if (colon < 2 || line[colon - 1] != '"') continue;
    switch (line[colon - 2]) {
      case 'e':
        claim(&at.name, kNameKey, colon);
        claim(&at.value, kValueKey, colon);
        break;
      case 'h':
        claim(&at.phase, kPhaseKey, colon);
        break;
      case 's':
        claim(&at.ts, kTsKey, colon);
        break;
    }
  }
  return at;
}

// The value of the key that starts at `key_pos` in a single JSON-object
// line written by WriteJson: a string value's contents without the quotes,
// anything else up to the next ',' or '}'. A string value with escapes is
// decoded into `*scratch` and the result views it; otherwise the result
// views `line`. Nullopt when the key is absent (kNone) or has no value.
std::optional<std::string_view> ValueAt(std::string_view line, size_t key_pos,
                                        std::string_view key,
                                        std::string* scratch) {
  if (key_pos == kNone) return std::nullopt;
  size_t pos = key_pos + key.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return std::nullopt;
  if (line[pos] != '"') {
    size_t end = pos;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    return line.substr(pos, end - pos);
  }
  ++pos;
  size_t stop = pos;
  while (stop < line.size() && line[stop] != '"' && line[stop] != '\\') {
    ++stop;
  }
  if (stop == line.size() || line[stop] == '"') {
    return line.substr(pos, stop - pos);
  }
  scratch->clear();
  for (; pos < line.size() && line[pos] != '"'; ++pos) {
    if (line[pos] == '\\' && pos + 1 < line.size()) ++pos;
    scratch->push_back(line[pos]);
  }
  return std::string_view(*scratch);
}

// Parses the number `field` starts with; leaves `*out` as is when there is
// none.
template <typename T>
void ParseNumber(std::optional<std::string_view> field, T* out) {
  if (field) {
    std::from_chars(field->data(), field->data() + field->size(), *out);
  }
}

}  // namespace

bool ReadTraceJson(std::istream& is, std::vector<ParsedTraceEvent>* out) {
  const std::string text = ReadAll(is);
  const std::string_view all = text;
  out->reserve(out->size() + std::count(all.begin(), all.end(), '\n') + 1);
  std::string name_scratch, phase_scratch, scratch;
  size_t parsed = 0;
  for (size_t begin = 0; begin < all.size();) {
    const size_t newline = std::min(all.find('\n', begin), all.size());
    const std::string_view line = all.substr(begin, newline - begin);
    begin = newline + 1;

    const KeyPositions at = LocateKeys(line);
    const std::optional<std::string_view> name =
        ValueAt(line, at.name, kNameKey, &name_scratch);
    if (!name) continue;
    const std::optional<std::string_view> phase =
        ValueAt(line, at.phase, kPhaseKey, &phase_scratch);
    if (!phase) continue;
    ParsedTraceEvent& ev = out->emplace_back();
    ev.name = *name;
    ev.phase = *phase;
    ParseNumber(ValueAt(line, at.ts, kTsKey, &scratch), &ev.ts_us);
    ParseNumber(ValueAt(line, at.value, kValueKey, &scratch), &ev.value);
    // Metadata events carry the process/thread name, instants their label;
    // both are nested under "args".
    const std::string_view arg_key =
        ev.phase == "M" ? kNameKey : ev.phase == "i" ? kLabelKey : "";
    const size_t args = arg_key.empty() ? kNone : line.find(kArgs);
    if (args != kNone) {
      const std::string_view nested = line.substr(args + kArgs.size());
      if (const std::optional<std::string_view> arg =
              ValueAt(nested, nested.find(arg_key), arg_key, &scratch)) {
        ev.arg = *arg;
      }
    }
    ++parsed;
  }
  return parsed > 0;
}

TraceRecorder* CurrentTrace() { return g_current_trace; }

TraceScope::TraceScope(TraceRecorder* recorder) : previous_(g_current_trace) {
  g_current_trace = recorder;
}

TraceScope::~TraceScope() { g_current_trace = previous_; }

}  // namespace rave::obs
