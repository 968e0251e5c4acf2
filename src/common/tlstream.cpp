#include "common/tlstream.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/error.hpp"
#include "common/json.hpp"

namespace fcma::trace::tlstream {

namespace fs = std::filesystem;

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string u64(std::uint64_t v) {
  return std::to_string(static_cast<unsigned long long>(v));
}

std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Writes `body` to `path` through a same-directory `.part` + rename, so a
/// reader sees the complete file or none.  The close is checked too: it
/// flushes the buffered tail, and a full disk reports only there.
void publish_file(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".part";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  FCMA_CHECK(f != nullptr, "cannot write " + tmp);
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool closed = std::fclose(f) == 0;
  FCMA_CHECK(written == body.size() && closed, "short write to " + tmp);
  FCMA_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "cannot publish " + path);
}

/// Appends `  "<name>": {` with one `"<key>": <value>` line per entry, in
/// the 2-space one-entry-per-line layout that line tools can pick apart.
template <class Map, class Render>
void append_section(std::string& out, const char* name, const Map& entries,
                    Render render) {
  out += std::string("  \"") + name + "\": {";
  bool first = true;
  for (const auto& [key, value] : entries) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key) + "\": " + render(value);
  }
  out += first ? "}" : "\n  }";
}

/// The counters, gauges and roofline sections, comma-separated, without a
/// trailing comma (meta goes first, on its own: see append_meta()).
void append_metrics(std::string& out, const Metrics& m) {
  append_section(out, "counters", m.counters,
                 [](std::int64_t v) { return std::to_string(v); });
  out += ",\n";
  append_section(out, "gauges", m.gauges,
                 [](double v) { return json_double(v); });
  out += ",\n";
  append_section(out, "roofline", m.roofline, [](const RooflineStats& r) {
    return "{\"modeled_s\": " + json_double(r.modeled_s) +
           ", \"gflops\": " + json_double(r.gflops) +
           ", \"ai_flops_per_byte\": " + json_double(r.ai_flops_per_byte) +
           ", \"pct_roofline\": " + json_double(r.pct_roofline) +
           ", \"bound\": \"" + json_escape(r.bound) + "\"}";
  });
}

void append_meta(std::string& out, const Metrics& m) {
  append_section(out, "meta", m.meta, [](const std::string& v) {
    std::string quoted = json_escape(v);
    quoted.insert(quoted.begin(), '"');
    quoted += '"';
    return quoted;
  });
}

}  // namespace

std::string trace_hex(std::uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return buf;
}

SegmentWriter::SegmentWriter(
    StreamConfig config, std::shared_ptr<std::atomic<std::uint64_t>> used_bytes,
    std::size_t lane_id, std::string lane_name, std::uint64_t trace_id)
    : config_(std::move(config)),
      used_bytes_(std::move(used_bytes)),
      lane_id_(lane_id),
      lane_name_(std::move(lane_name)),
      trace_id_(trace_id) {}

SegmentWriter::~SegmentWriter() { finalize(); }

bool SegmentWriter::open_segment() {
  const std::string stem = config_.dir + "/lane" + std::to_string(lane_id_) +
                           "-" + std::to_string(seq_) + ".tls";
  part_path_ = stem + ".part";
  final_path_ = stem;
  file_ = std::fopen(part_path_.c_str(), "w");
  if (file_ == nullptr) {
    failed_ = true;
    return false;
  }
  segment_bytes_ = 0;
  const std::string header =
      std::string("{\"schema\": \"") + std::string(kSchema) +
      "\", \"lane\": \"" + json_escape(lane_name_) +
      "\", \"lane_id\": " + std::to_string(lane_id_) +
      ", \"seq\": " + u64(seq_) + ", \"trace\": \"" + trace_hex(trace_id_) +
      "\"}\n";
  return write_line(header);
}

bool SegmentWriter::write_line(const std::string& line) {
  // Budget check first: a refused line leaves the shared accounting and the
  // file untouched, so the caller's dropped counter stays exact.
  const std::uint64_t before =
      used_bytes_->fetch_add(line.size(), std::memory_order_relaxed);
  if (before + line.size() > config_.budget_bytes) {
    used_bytes_->fetch_sub(line.size(), std::memory_order_relaxed);
    failed_ = true;
    return false;
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    // A short write may have torn the buffered lines before it as well.
    used_bytes_->fetch_sub(line.size(), std::memory_order_relaxed);
    fail_io();
    return false;
  }
  segment_bytes_ += line.size();
  return true;
}

void SegmentWriter::fail_io() {
  failed_ = true;
  lost_ += unflushed_;
  unflushed_ = 0;
  if (file_ != nullptr) {
    (void)std::fclose(file_);  // already failed: nothing more to learn
    file_ = nullptr;
  }
}

bool SegmentWriter::append(const EventRecord& ev) {
  if (failed_) return false;
  if (file_ == nullptr && !open_segment()) return false;
  std::string line;
  line.reserve(96 + ev.label.size());
  line += "{\"ts\": ";
  line += u64(ev.start_ns);
  line += ", \"dur\": ";
  line += u64(ev.end_ns - ev.start_ns);
  line += ", \"label\": \"";
  line += json_escape(ev.label);
  line += "\", \"span\": ";
  line += u64(ev.span);
  line += ", \"parent\": ";
  line += u64(ev.parent);
  line += ", \"trace\": \"";
  line += trace_hex(trace_id_);
  line += "\"}\n";
  if (!write_line(line)) return false;
  ++events_;
  ++unflushed_;
  if (segment_bytes_ >= config_.rotate_bytes) finalize();
  return true;
}

void SegmentWriter::flush() {
  if (file_ == nullptr) return;
  if (std::fflush(file_) != 0) {
    fail_io();
    return;
  }
  unflushed_ = 0;
}

void SegmentWriter::finalize() {
  if (file_ == nullptr) return;
  // fclose() flushes too; either failing means the buffered lines are gone.
  const bool flushed = std::fflush(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!flushed || !closed) {
    fail_io();
    return;
  }
  unflushed_ = 0;
  // Same-directory rename: the segment appears under its final name with
  // every line intact or not at all — readers never see a renamed torn file.
  // On failure the .part stays readable in place; rotation just didn't
  // promote it.
  (void)std::rename(part_path_.c_str(), final_path_.c_str());
  ++seq_;
}

void write_done_manifest(const std::string& dir, std::uint64_t trace_id,
                         std::uint64_t events, std::uint64_t dropped,
                         std::size_t lanes, const Metrics& metrics) {
  std::string body = std::string("{\n  \"schema\": \"") +
                     std::string(kSchema) + "\",\n  \"done\": true,\n" +
                     "  \"trace\": \"" + trace_hex(trace_id) + "\",\n" +
                     "  \"events\": " + u64(events) + ",\n" +
                     "  \"dropped\": " + u64(dropped) + ",\n" +
                     "  \"lanes\": " + std::to_string(lanes) + ",\n";
  append_meta(body, metrics);
  body += ",\n";
  append_metrics(body, metrics);
  body += "\n}\n";
  publish_file(dir + "/" + std::string(kDoneFile), body);
}

namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// Strict trace id read: exactly 16 hex digits (the trace_hex() spelling).
std::uint64_t parse_trace_id(const json::Value& v) {
  const std::string& s = v.as_string();
  const bool ok = s.size() == 16 &&
                  std::all_of(s.begin(), s.end(), [](char c) {
                    return std::isxdigit(static_cast<unsigned char>(c)) != 0;
                  });
  FCMA_CHECK(ok, "trace id \"" + s + "\" is not 16 hex digits");
  return std::strtoull(s.c_str(), nullptr, 16);
}

/// The manifest section `name`, which must be an object.
const json::Value& section(const json::Value& doc, const std::string& name) {
  const json::Value& v = doc.at(name);
  FCMA_CHECK(v.is_object(), name + " section is not an object");
  return v;
}

double number(const json::Value& v, const std::string& what) {
  FCMA_CHECK(v.is_number(), what + " is not a number");
  return v.as_number();
}

/// Strict read of the manifest's registry sections (write_done_manifest()).
Metrics parse_metrics(const json::Value& doc) {
  Metrics m;
  for (const auto& [name, v] : section(doc, "meta").members()) {
    FCMA_CHECK(v.is_string(), "meta " + name + " is not a string");
    m.meta[name] = v.as_string();
  }
  for (const auto& [name, v] : section(doc, "counters").members()) {
    // Signed 64-bit integers; 2^63 is the first double past INT64_MAX.
    const double n = number(v, "counter " + name);
    FCMA_CHECK(std::floor(n) == n && n >= -0x1p63 && n < 0x1p63,
               "counter " + name + " is not a 64-bit integer");
    m.counters[name] = static_cast<std::int64_t>(n);
  }
  for (const auto& [name, v] : section(doc, "gauges").members()) {
    m.gauges[name] = number(v, "gauge " + name);
  }
  for (const auto& [label, v] : section(doc, "roofline").members()) {
    const std::string what = "roofline " + label;
    FCMA_CHECK(v.is_object(), what + " is not an object");
    RooflineStats r;
    r.modeled_s = number(v.at("modeled_s"), what + " modeled_s");
    r.gflops = number(v.at("gflops"), what + " gflops");
    r.ai_flops_per_byte =
        number(v.at("ai_flops_per_byte"), what + " ai_flops_per_byte");
    r.pct_roofline = number(v.at("pct_roofline"), what + " pct_roofline");
    r.bound = v.at("bound").as_string();
    FCMA_CHECK(r.bound == "compute" || r.bound == "memory",
               what + " bound is not compute or memory");
    m.roofline[label] = std::move(r);
  }
  return m;
}

struct SegmentFile {
  fs::path path;
  bool partial = false;
};

/// Parses one segment into `out.events`; returns false (with a warning) when
/// the header is unusable.  Torn or malformed event lines are skipped: a
/// final line without '\n' is an in-flight append, anything else malformed
/// gets a warning so validators can distinguish corruption from a tail.
bool read_segment(const fs::path& path, StreamRead& out) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  if (f == nullptr) {
    out.warnings.push_back("unreadable segment " + path.string());
    return false;
  }
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    text.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  std::fclose(f);

  StreamEvent header;  // lane, lane_id, seq and trace id for every event
  bool have_header = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: an in-flight append
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (!have_header) {
      try {
        const json::Value v = json::parse(line);
        FCMA_CHECK(v.at("schema").as_string() == kSchema,
                   "schema is not " + std::string(kSchema));
        header.lane = v.at("lane").as_string();
        header.lane_id = v.at("lane_id").as_uint(
            std::numeric_limits<std::size_t>::max(), "lane_id");
        header.seq = v.at("seq").as_uint(kMaxU64, "seq");
        header.trace_id = parse_trace_id(v.at("trace"));
      } catch (const Error& e) {
        out.warnings.push_back("bad segment header in " + path.string() +
                               ": " + e.what());
        return false;
      }
      if (out.trace_id == 0) out.trace_id = header.trace_id;
      out.lanes.emplace(header.lane_id, header.lane);
      have_header = true;
      continue;
    }
    try {
      const json::Value v = json::parse(line);
      StreamEvent ev = header;
      ev.label = v.at("label").as_string();
      ev.start_ns = v.at("ts").as_uint(kMaxU64, "ts");
      const std::uint64_t dur = v.at("dur").as_uint(kMaxU64, "dur");
      FCMA_CHECK(dur <= kMaxU64 - ev.start_ns, "ts + dur overflows");
      ev.end_ns = ev.start_ns + dur;
      ev.span = v.at("span").as_uint(kMaxU64, "span");
      ev.parent = v.at("parent").as_uint(kMaxU64, "parent");
      ev.trace_id = parse_trace_id(v.at("trace"));
      out.events.push_back(std::move(ev));
    } catch (const Error& e) {
      out.warnings.push_back("malformed event line in " + path.string() +
                             ": " + e.what());
    }
  }
  if (!have_header) {
    out.warnings.push_back("segment without header " + path.string());
    return false;
  }
  return true;
}

/// Microseconds with ns precision for Chrome's "ts"/"dur" fields.
std::string json_us(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

StreamRead read_stream_dir(const std::string& dir) {
  StreamRead out;
  std::error_code ec;
  FCMA_CHECK(fs::is_directory(dir, ec), "not a stream directory: " + dir);
  std::vector<SegmentFile> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("lane", 0) != 0) continue;
    if (name.size() >= 4 && name.substr(name.size() - 4) == ".tls") {
      files.push_back(SegmentFile{entry.path(), false});
    } else if (name.size() >= 9 &&
               name.substr(name.size() - 9) == ".tls.part") {
      files.push_back(SegmentFile{entry.path(), true});
    }
  }
  // Lexicographic path order is a stable pre-sort; the authoritative order
  // is (lane_id, seq) from the headers, applied after parsing.
  std::sort(files.begin(), files.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.path.string() < b.path.string();
            });
  for (const SegmentFile& file : files) {
    if (read_segment(file.path, out)) ++out.segments;
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     if (a.lane_id != b.lane_id) return a.lane_id < b.lane_id;
                     return a.seq < b.seq;
                   });

  const fs::path done = fs::path(dir) / std::string(kDoneFile);
  if (fs::exists(done, ec)) {
    try {
      const json::Value v = json::parse_file(done.string());
      FCMA_CHECK(v.at("schema").as_string() == kSchema,
                 "schema is not " + std::string(kSchema));
      const std::uint64_t events = v.at("events").as_uint(kMaxU64, "events");
      const std::uint64_t dropped =
          v.at("dropped").as_uint(kMaxU64, "dropped");
      const std::uint64_t trace_id = parse_trace_id(v.at("trace"));
      Metrics metrics = parse_metrics(v);
      out.done = true;
      out.done_events = events;
      out.done_dropped = dropped;
      out.metrics = std::move(metrics);
      if (out.trace_id == 0) out.trace_id = trace_id;
    } catch (const Error& e) {
      out.warnings.push_back(std::string("unreadable stream.done manifest: ") +
                             e.what());
    }
  }
  return out;
}

std::string timeline_view_json(const StreamRead& read) {
  // Chrome/Perfetto tolerate any order, but a time-sorted stream is what
  // tools/trace_check.py asserts (monotonic timestamps) and what makes the
  // file diffable.
  std::vector<const StreamEvent*> rows;
  rows.reserve(read.events.size());
  for (const StreamEvent& ev : read.events) rows.push_back(&ev);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const StreamEvent* a, const StreamEvent* b) {
                     return a->start_ns < b->start_ns;
                   });

  std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": "
                    "{\"schema\": \"fcma.timeline.v1\", \"dropped_events\": " +
                    u64(read.done_dropped) + "},\n\"traceEvents\": [\n";
  out += "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"fcma\"}}";
  for (const auto& [lane_id, name] : read.lanes) {
    out += ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(lane_id) +
           ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
           json_escape(name) + "\"}}";
  }
  for (const StreamEvent* ev : rows) {
    out += ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(ev->lane_id) + ", \"name\": \"" +
           json_escape(ev->label) + "\", \"ts\": " + json_us(ev->start_ns) +
           ", \"dur\": " + json_us(ev->end_ns - ev->start_ns);
    if (ev->span != 0) {
      out += ", \"args\": {\"span\": \"" + trace_hex(ev->span) +
             "\", \"parent\": \"" + trace_hex(ev->parent) + "\"}";
    }
    out += "}";
  }
  out += "\n]\n}\n";
  return out;
}

void SpanStats::record_ns(std::uint64_t dur_ns) {
  const double s = static_cast<double>(dur_ns) * 1e-9;
  if (count == 0 || s < min_s) min_s = s;
  if (count == 0 || s > max_s) max_s = s;
  total_s += s;
  ++count;
  hist.record_ns(dur_ns);
}

void SpanStats::merge(const SpanStats& other) {
  if (other.count == 0) return;
  if (count == 0 || other.min_s < min_s) min_s = other.min_s;
  if (count == 0 || other.max_s > max_s) max_s = other.max_s;
  total_s += other.total_s;
  count += other.count;
  hist.merge(other.hist);
}

double SpanStats::quantile(double p) const {
  if (count == 0) return 0.0;
  return std::clamp(hist.quantile(p), min_s, max_s);
}

std::map<std::string, SpanStats> fold_spans(const StreamRead& read) {
  std::map<std::string, SpanStats> spans;
  for (const StreamEvent& ev : read.events) {
    spans[ev.label].record_ns(ev.end_ns - ev.start_ns);  // reader: end >= start
  }
  return spans;
}

std::string trace_view_json(const StreamRead& read) {
  std::string out = "{\n  \"schema\": \"fcma.trace.v2\",\n";
  append_meta(out, read.metrics);
  out += ",\n";
  append_section(out, "spans", fold_spans(read), [](const SpanStats& s) {
    return "{\"count\": " + u64(s.count) +
           ", \"total_s\": " + json_double(s.total_s) +
           ", \"min_s\": " + json_double(s.min_s) +
           ", \"max_s\": " + json_double(s.max_s) +
           ", \"p50_s\": " + json_double(s.quantile(0.50)) +
           ", \"p95_s\": " + json_double(s.quantile(0.95)) +
           ", \"p99_s\": " + json_double(s.quantile(0.99)) + "}";
  });
  out += ",\n";
  append_metrics(out, read.metrics);
  out += ",\n  \"dropped_events\": " + u64(read.done_dropped) + "\n}\n";
  return out;
}

void write_views(const std::string& dir) {
  const StreamRead read = read_stream_dir(dir);
  publish_file(dir + "/" + std::string(kTimelineFile),
               timeline_view_json(read));
  publish_file(dir + "/" + std::string(kTraceFile), trace_view_json(read));
}

std::string span_class_of(std::string_view label) {
  std::string out;
  out.reserve(label.size());
  std::size_t pos = 0;
  while (pos <= label.size()) {
    const std::size_t slash = label.find('/', pos);
    const std::string_view seg =
        label.substr(pos, slash == std::string_view::npos ? std::string_view::npos
                                                          : slash - pos);
    bool folded = false;
    if (seg.size() > 6 && seg.substr(0, 6) == "worker") {
      folded = true;
      for (const char c : seg.substr(6)) {
        if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
          folded = false;
          break;
        }
      }
    }
    if (!out.empty()) out += '/';
    out += folded ? std::string_view("worker") : seg;
    if (slash == std::string_view::npos) break;
    pos = slash + 1;
  }
  return out;
}

std::vector<SloRule> parse_slo_rules(std::string_view spec) {
  std::vector<SloRule> rules;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view raw = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (raw.empty()) continue;
    const std::size_t colon = raw.rfind(':');
    FCMA_CHECK(colon != std::string_view::npos && colon > 0,
               "SLO rule needs '<class>:p<q><<limit>': " + std::string(raw));
    SloRule rule;
    rule.raw = std::string(raw);
    rule.span_class = std::string(raw.substr(0, colon));
    std::string_view rest = raw.substr(colon + 1);
    FCMA_CHECK(!rest.empty() && rest[0] == 'p',
               "SLO rule quantile must be p50/p95/p99: " + std::string(raw));
    const std::size_t lt = rest.find('<');
    FCMA_CHECK(lt != std::string_view::npos,
               "SLO rule needs '<' before its limit: " + std::string(raw));
    const std::string q(rest.substr(1, lt - 1));
    if (q == "50") {
      rule.quantile = 0.50;
    } else if (q == "95") {
      rule.quantile = 0.95;
    } else if (q == "99") {
      rule.quantile = 0.99;
    } else {
      raise("SLO rule quantile must be p50/p95/p99: " + std::string(raw));
    }
    const std::string limit(rest.substr(lt + 1));
    char* end = nullptr;
    const double value = std::strtod(limit.c_str(), &end);
    // An infinite limit (inf, 1e999) could never be violated.
    FCMA_CHECK(end != limit.c_str() && value >= 0.0 && std::isfinite(value),
               "bad SLO limit: " + std::string(raw));
    const std::string unit(end);
    double scale = 0.0;
    if (unit == "s") {
      scale = 1.0;
    } else if (unit == "ms") {
      scale = 1e-3;
    } else if (unit == "us") {
      scale = 1e-6;
    } else if (unit == "ns") {
      scale = 1e-9;
    } else {
      raise("SLO limit unit must be ns/us/ms/s: " + std::string(raw));
    }
    rule.limit_s = value * scale;
    rules.push_back(std::move(rule));
  }
  return rules;
}

bool rule_matches(const SloRule& rule, std::string_view span_class) {
  if (span_class == rule.span_class) return true;
  // Path-suffix match: "task:p99<1s" governs "cluster/task".
  if (span_class.size() > rule.span_class.size() + 1 &&
      span_class.substr(span_class.size() - rule.span_class.size()) ==
          rule.span_class &&
      span_class[span_class.size() - rule.span_class.size() - 1] == '/') {
    return true;
  }
  return false;
}

}  // namespace fcma::trace::tlstream
