// bench_fcma: one workload of the FCMA benchmark, in one process.
//
//   bench_fcma generate --dir D --seed S [--tiny 1]
//       Writes every workload's inputs into D: the datasets, a shard store,
//       the planted ground truth and the resident reference accuracies.
//   bench_fcma run --workload W --dir D --seconds S --trace 0|1
//                  [--spans FILE] [--tiny 1]
//       Sets up workload W from the files in D, runs a warm-up slice, then
//       repeats W's operation until S seconds have passed, and prints one
//       JSON line: checks, operation counts and metrics.  With --trace 0
//       the metrics are the end-to-end ones.  With --trace 1 untraced and
//       traced operations alternate and the metrics are per layer.
//
// The per-layer numbers are measured from outside the library.  A traced
// operation calls the same public functions as the untraced one, in the
// same order, through wrappers of the DatasetView and EpochSource seams,
// and records one span per call.  A layer's self time is its span minus
// the same-thread child spans inside it.  The replay must reproduce the
// untraced results byte for byte; the time no layer accounts for is
// reported as residual_frac.
//
// run.py drives this binary; README.md describes workloads and metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/driver.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "fcma/epoch_source.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/online.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/scoreboard.hpp"
#include "fcma/streaming.hpp"
#include "fmri/dataset_view.hpp"
#include "fmri/io.hpp"
#include "fmri/shard_store.hpp"
#include "fmri/synthetic.hpp"
#include "threading/thread_pool.hpp"

using namespace fcma;

namespace {

// ---------------------------------------------------------------------------
// Sizes.  The defaults are the benchmark; tiny_sizes() runs every code path
// in about a second for the self-test.

struct Sizes {
  std::size_t epoch_length = 12;
  // face-scene shape: subjects x 12 epochs of 12 TRs.
  std::int32_t fs_subjects = 18;
  std::size_t fs_epochs_per_subject = 12;
  std::size_t fs_voxels = 8192;
  std::size_t fs_informative = 512;
  std::size_t task_voxels = 32;     // facescene-task voxels per task
  std::size_t task_group = 16;      // run_task_grouped group size
  std::size_t streamed_voxels = 8;  // facescene-streamed voxels per op
  std::size_t budget_mb = 64;       // facescene-streamed memory budget
  // Two pool threads: with four, per-thread allocator arenas keep freed
  // panels and peak RSS swings 5-20% over the budget (README.md).
  std::size_t streamed_threads = 2;
  // attention shape: subjects x 18 epochs.
  std::int32_t at_subjects = 20;
  std::size_t at_epochs_per_subject = 18;
  std::size_t at_voxels = 2048;
  std::size_t at_informative = 128;
  std::size_t farm_voxels = 12;
  std::size_t farm_workers = 3;
  std::size_t farm_voxels_per_task = 2;
  // closed-loop session: one subject's scan.
  std::size_t session_voxels = 1024;
  std::size_t session_informative = 64;
  std::size_t localizer_epochs = 32;
  std::size_t blocks = 2;
  std::size_t block_epochs = 32;
  std::size_t top_k = 32;
  std::size_t k_folds = 4;
  std::size_t session_voxels_per_task = 64;
  // Every `planted_stride`-th voxel of a scored range is a planted one.
  std::size_t planted_stride = 4;
};

Sizes tiny_sizes() {
  Sizes s;
  s.fs_subjects = 4;
  s.fs_voxels = 512;
  s.fs_informative = 64;
  s.task_voxels = 16;
  s.task_group = 8;
  s.streamed_voxels = 4;
  s.budget_mb = 1;
  s.at_subjects = 4;
  s.at_voxels = 256;
  s.at_informative = 32;
  s.farm_voxels = 6;
  s.session_voxels = 256;
  s.session_informative = 32;
  s.localizer_epochs = 32;
  s.block_epochs = 16;
  s.top_k = 16;
  s.session_voxels_per_task = 32;
  return s;
}

constexpr std::size_t kThreads = 4;  // compute threads per workload
// Set-ups per run, at least; the median is reported.
constexpr std::size_t kSetupReps = 3;
constexpr double kSetupSeconds = 0.3;
constexpr std::size_t kMaxSetupReps = 101;
constexpr std::size_t kMinOps = 3;   // timed operations per run, at least
// The cluster driver's 10 s default lease kills every worker once one task
// runs longer than that (README.md, findings); the farm gives tasks a minute.
constexpr double kFarmLeaseS = 60.0;

// Correctness thresholds.  Seeds 1-10 measured margins 0.34-0.40, recall
// 1.0 and feedback accuracy 0.94-1.0 (README.md); a broken kernel scores
// every voxel near chance.
constexpr double kPlantedMargin = 0.2;  // planted minus noise mean accuracy
constexpr double kSessionRecall = 0.9;  // planted share of selected voxels
constexpr double kFeedbackAccuracy = 0.85;

// ---------------------------------------------------------------------------
// Small utilities.

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void write_doubles(const std::string& path, const std::vector<double>& v) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
  FCMA_CHECK(out.good(), "cannot write " + path);
}

std::vector<double> read_doubles(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FCMA_CHECK(in.good(), "cannot read " + path);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  std::vector<double> v(bytes.size() / sizeof(double));
  std::memcpy(v.data(), bytes.data(), v.size() * sizeof(double));
  return v;
}

void write_voxels(const std::string& path,
                  const std::vector<std::uint32_t>& voxels) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::uint32_t v : voxels) out << v << "\n";
  FCMA_CHECK(out.good(), "cannot write " + path);
}

std::vector<std::uint32_t> read_voxels(const std::string& path) {
  std::ifstream in(path);
  FCMA_CHECK(in.good(), "cannot read " + path);
  std::vector<std::uint32_t> v;
  std::uint32_t x = 0;
  while (in >> x) v.push_back(x);
  return v;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\r') ? ' ' : c;
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Span tracer.  Spans live in memory and are written out at exit.  A span
// becomes the parent of later spans on its thread until it ends; spans run
// on pool threads name their parent explicitly.

class Tracer {
 public:
  struct Span {
    int id = 0;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;  // 0 while open
    int parent = -1;
    int thread = 0;
    int op = 0;
    double work = 0.0;       // flops (kernel spans) or bytes (fmri.read)
    std::uint32_t item = 0;  // epoch index (fmri.read)
  };

  int begin(const char* name, int parent, int thread, double work,
            std::uint32_t item) {
    const std::lock_guard<std::mutex> lock(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{id, name, now_ns(), 0, parent, thread, op_, work, item});
    return id;
  }
  void end(int id) {
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  void set_op(int op) {
    const std::lock_guard<std::mutex> lock(mu_);
    op_ = op;
  }
  [[nodiscard]] std::vector<Span> spans_of(int op) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const Span& s : spans_) {
      if (s.op == op) out.push_back(s);
    }
    return out;
  }
  void write_json(const std::string& path, const std::string& workload) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\":\"bench_fcma.spans.v1\",\"workload\":\""
        << json_escape(workload) << "\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << s.id << ",\"name\":\""
          << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"thread\":" << s.thread << ",\"op\":" << s.op
          << ",\"workload\":\"" << json_escape(workload) << "\"}";
    }
    out << "\n]}\n";
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int op_ = 0;
};

// Every span of the run; written out at exit.
Tracer& run_tracer() {
  static Tracer tracer;
  return tracer;
}

// Non-null only while a traced operation runs.
std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<int> g_next_thread{0};
thread_local int t_current = -1;
thread_local int t_thread = -1;

int this_thread_id() {
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

constexpr int kInheritParent = -2;

/// Records one span for its lifetime while a traced operation runs.
class Scope {
 public:
  explicit Scope(const char* name, double work = 0.0,
                 int parent = kInheritParent, std::uint32_t item = 0)
      : tracer_(g_tracer.load(std::memory_order_acquire)) {
    if (tracer_ == nullptr) return;
    saved_ = t_current;
    id_ = tracer_->begin(name, parent == kInheritParent ? t_current : parent,
                         this_thread_id(), work, item);
    t_current = id_;
  }
  ~Scope() {
    if (tracer_ == nullptr) return;
    tracer_->end(id_);
    t_current = saved_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
  int saved_ = -1;
};

// DatasetView wrapper: one fmri.read span per epoch panel handed out.
class TracedView final : public fmri::DatasetView {
 public:
  explicit TracedView(const fmri::DatasetView& inner) : inner_(inner) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] std::size_t voxels() const override { return inner_.voxels(); }
  [[nodiscard]] std::size_t timepoints() const override {
    return inner_.timepoints();
  }
  [[nodiscard]] std::int32_t subjects() const override {
    return inner_.subjects();
  }
  [[nodiscard]] const std::vector<fmri::Epoch>& epochs() const override {
    return inner_.epochs();
  }
  [[nodiscard]] Panel epoch_panel(std::size_t idx) const override {
    const double bytes = static_cast<double>(
        inner_.voxels() * inner_.epochs()[idx].length * sizeof(float));
    const Scope span("fmri.read", bytes, kInheritParent,
                     static_cast<std::uint32_t>(idx));
    return inner_.epoch_panel(idx);
  }

 private:
  const fmri::DatasetView& inner_;
};

// EpochSource wrapper: one epoch_source.acquire span per acquire.
class TracedEpochs final : public core::EpochSource {
 public:
  explicit TracedEpochs(core::EpochSource& inner) : inner_(inner) {}

  [[nodiscard]] const std::vector<fmri::Epoch>& meta() const override {
    return inner_.meta();
  }
  [[nodiscard]] std::size_t voxels() const override { return inner_.voxels(); }
  [[nodiscard]] Lease acquire(std::size_t first, std::size_t last) override {
    const Scope span("epoch_source.acquire");
    return inner_.acquire(first, last);
  }
  void prefetch(std::size_t first, std::size_t last) override {
    inner_.prefetch(first, last);
  }

 private:
  core::EpochSource& inner_;
};

// One traced operation, reduced: per layer (span name) the self time on the
// operation's own thread, the self time on any thread, calls and work.
struct Layer {
  double wall = 0.0;  // summed span durations
  double self_main = 0.0;
  double busy = 0.0;
  double work = 0.0;
  double calls = 0.0;
};

struct Profile {
  double wall = 0.0;      // the root "op" span
  double blocking = 0.0;  // the root's on-path children on its thread
  std::set<std::uint32_t> panels;  // distinct epochs read (fmri.read)
  std::map<std::string, Layer> layers;

  [[nodiscard]] Layer layer(const std::string& name) const {
    const auto it = layers.find(name);
    return it == layers.end() ? Layer{} : it->second;
  }
};

// `off_path` names spans of the operation's thread that are not part of
// the untraced operation (the session's selection replay).
Profile profile_op(const Tracer& tracer, int op,
                   const std::set<std::string>& off_path) {
  const std::vector<Tracer::Span> spans = tracer.spans_of(op);
  FCMA_CHECK(!spans.empty() && std::strcmp(spans[0].name, "op") == 0,
             "traced operation has no root span");
  const Tracer::Span& root = spans[0];
  std::map<int, std::size_t> pos;
  for (std::size_t i = 0; i < spans.size(); ++i) pos[spans[i].id] = i;
  auto dur = [&](const Tracer::Span& s) {
    const std::int64_t end = s.end_ns != 0 ? s.end_ns : root.end_ns;
    return static_cast<double>(end - s.start_ns) * 1e-9;
  };
  std::vector<double> children(spans.size(), 0.0);
  for (const Tracer::Span& s : spans) {
    const auto it = pos.find(s.parent);
    if (it != pos.end() && spans[it->second].thread == s.thread) {
      children[it->second] += dur(s);
    }
  }
  Profile p;
  p.wall = dur(root);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const double self = dur(s) - children[i];
    Layer& l = p.layers[s.name];
    l.wall += dur(s);
    l.calls += 1.0;
    l.work += s.work;
    l.busy += self;
    if (s.thread == root.thread) l.self_main += self;
    if (s.parent == root.id && s.thread == root.thread &&
        off_path.count(s.name) == 0) {
      p.blocking += dur(s);
    }
    if (std::strcmp(s.name, "fmri.read") == 0) p.panels.insert(s.item);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Workload outcome and metrics.

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> op_s;       // untraced operation wall times
  std::vector<double> latency_s;  // samples behind latency_ms
  double voxels = 0.0;            // voxels scored by timed operations
  double voxel_s = 0.0;           // seconds spent scoring them
  // VmHWM once kMinOps timed operations ran: a fixed amount of work, so a
  // faster program that fits more operations into the run reads the same.
  double peak_rss_mb = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Check> checks;
  std::vector<Metric> metrics;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
};

struct Args {
  std::string workload;
  std::string dir;
  std::string spans;
  double seconds = 10.0;
  bool trace = false;
  Sizes sizes;
};

// Sums of one workload's traced operations, turned into per-layer metrics.
// `path` holds, per layer, seconds on the operation's blocking path.
struct LayerTotals {
  double ops = 0.0;
  // On-path wall of the traced operations: the denominator of every share
  // and of the residual.
  double traced_wall = 0.0;
  // Wall of the untraced operation run just before each traced one; the
  // ratio to traced_wall is the tracing overhead, pair by pair.
  double untraced = 0.0;
  double blocking = 0.0;
  std::map<std::string, double> path;
  std::map<std::string, Layer> layers;
  double panel_loads = 0.0;
  double distinct_panels = 0.0;
  double steals = 0.0;
  double local_hits = 0.0;
  double inbox_hits = 0.0;
  double svm_iterations = 0.0;
  double idle_busy = 0.0;      // busy thread-seconds while the pool ran
  double idle_capacity = 0.0;  // thread-seconds available meanwhile
  bool replay_identical = true;
  std::map<std::string, double> cluster;  // summed DriverStats fields
  double rss_over_budget = 0.0;           // streamed only
  double group_voxels = 0.0;              // streamed only

  void add_layers(const Profile& p) {
    for (const auto& [name, l] : p.layers) {
      Layer& t = layers[name];
      t.wall += l.wall;
      t.self_main += l.self_main;
      t.busy += l.busy;
      t.work += l.work;
      t.calls += l.calls;
    }
    panel_loads += p.layer("fmri.read").calls;
    distinct_panels += static_cast<double>(p.panels.size());
  }
  [[nodiscard]] Layer layer(const std::string& name) const {
    const auto it = layers.find(name);
    return it == layers.end() ? Layer{} : it->second;
  }
};

void add_layer_metrics(const LayerTotals& t, Outcome& out) {
  const double n = std::max(1.0, t.ops);
  const double denom = t.traced_wall;
  auto share = [&](const std::string& layer) {
    const auto it = t.path.find(layer);
    return it == t.path.end() || denom <= 0.0 ? 0.0 : it->second / denom;
  };
  auto per_op = [&](double v) { return v / n; };
  auto gflops = [&](const std::string& name) {
    const Layer l = t.layer(name);
    return l.busy > 0.0 ? l.work / l.busy * 1e-9 : 0.0;
  };
  auto cluster = [&](const std::string& key) {
    const auto it = t.cluster.find(key);
    return it == t.cluster.end() ? 0.0 : it->second / n;
  };
  const Layer reads = t.layer("fmri.read");
  std::vector<Metric>& m = out.metrics;
  m.push_back({"fmri.panel_reads", per_op(reads.calls), "count"});
  m.push_back({"fmri.bytes_read", per_op(reads.work), "bytes"});
  m.push_back({"fmri.read_share", share("fmri"), "frac"});
  m.push_back({"epoch_source.acquires",
               per_op(t.layer("epoch_source.acquire").calls), "count"});
  m.push_back({"epoch_source.reload_ratio",
               t.distinct_panels > 0.0 ? t.panel_loads / t.distinct_panels
                                       : 0.0,
               "ratio"});
  m.push_back({"epoch_source.acquire_share", share("epoch_source"), "frac"});
  m.push_back({"corr_norm.calls", per_op(t.layer("corr_norm").calls),
               "count"});
  m.push_back({"corr_norm.gflops", gflops("corr_norm"), "GFLOP/s"});
  m.push_back({"corr_norm.share", share("corr_norm"), "frac"});
  m.push_back({"syrk.calls", per_op(t.layer("syrk").calls), "count"});
  m.push_back({"syrk.gflops", gflops("syrk"), "GFLOP/s"});
  m.push_back({"syrk.share", share("syrk"), "frac"});
  m.push_back({"svm.problems", per_op(t.layer("svm").calls), "count"});
  m.push_back({"svm.iterations", per_op(t.svm_iterations), "count"});
  m.push_back({"svm.share", share("svm"), "frac"});
  m.push_back({"sched.idle_frac",
               t.idle_capacity > 0.0 ? 1.0 - t.idle_busy / t.idle_capacity
                                     : 0.0,
               "frac"});
  m.push_back({"sched.steals", per_op(t.steals), "count"});
  m.push_back({"sched.local_hits", per_op(t.local_hits), "count"});
  m.push_back({"sched.inbox_hits", per_op(t.inbox_hits), "count"});
  m.push_back({"cluster.messages", cluster("messages"), "count"});
  m.push_back({"cluster.batches", cluster("batches"), "count"});
  m.push_back({"cluster.work_requests", cluster("work_requests"), "count"});
  m.push_back({"cluster.imbalance", cluster("imbalance"), "ratio"});
  m.push_back({"cluster.workers_died", cluster("workers_died"), "count"});
  m.push_back({"cluster.requeued", cluster("requeued"), "count"});
  m.push_back({"cluster.overhead_share", share("cluster"), "frac"});
  m.push_back({"plan.group_voxels", t.group_voxels, "count"});
  m.push_back({"plan.rss_over_budget", t.rss_over_budget, "ratio"});
  m.push_back({"online.ingest_share", share("online.ingest"), "frac"});
  m.push_back({"online.train_share", share("online.train"), "frac"});
  m.push_back({"online.classify_share", share("online.classify"), "frac"});
  m.push_back({"latency_p95_ms", percentile(out.latency_s, 0.95) * 1e3, "ms"});
  m.push_back({"trace.overhead_frac",
               t.untraced > 0.0 ? t.traced_wall / t.untraced - 1.0 : 0.0,
               "frac"});
  m.push_back({"residual_frac", denom > 0.0 ? 1.0 - t.blocking / denom : 0.0,
               "frac"});
  out.check("replay_identical", t.replay_identical,
            "traced replay reproduces the untraced results byte for byte");
}

void add_end_to_end_metrics(Outcome& out) {
  out.metrics.push_back({"setup_s", median(out.setup_s), "s"});
  out.metrics.push_back({"latency_ms", median(out.latency_s) * 1e3, "ms"});
  out.metrics.push_back(
      {"voxels_per_s", out.voxel_s > 0.0 ? out.voxels / out.voxel_s : 0.0,
       "voxel/s"});
  out.metrics.push_back({"peak_rss_mb", out.peak_rss_mb, "MiB"});
}

// Runs `op` until `seconds` have passed and at least kMinOps ran, recording
// each wall time; with tracing on, each untraced operation is followed by
// one traced operation.
void timed_leg(const Args& a, Outcome& out, LayerTotals& totals,
               const std::function<void()>& op,
               const std::function<void(int)>& traced) {
  const WallTimer leg;
  int traced_ops = 0;
  while (out.op_s.size() < kMinOps || leg.seconds() < a.seconds) {
    const WallTimer t;
    op();
    out.op_s.push_back(t.seconds());
    if (out.op_s.size() == kMinOps) out.peak_rss_mb = peak_rss_mb();
    if (a.trace) {
      traced(++traced_ops);
      totals.untraced += out.op_s.back();
    }
  }
}

// Runs `body` as traced operation `op` under a root span.
Profile traced_op(int op, const std::function<void()>& body,
                  const std::set<std::string>& off_path = {}) {
  Tracer& tracer = run_tracer();
  tracer.set_op(op);
  g_tracer.store(&tracer, std::memory_order_release);
  {
    const Scope root("op");
    body();
  }
  g_tracer.store(nullptr, std::memory_order_release);
  return profile_op(tracer, op, off_path);
}

// ---------------------------------------------------------------------------
// Replays of the pipeline's public stage calls.

struct Scored {
  std::vector<double> accuracy;
  long iterations = 0;
};

// The pipeline stages a replay records, one span per call.
constexpr const char* kStageSpans[] = {"corr_norm", "syrk", "svm"};

double corr_flops(std::size_t voxels, std::size_t m, std::size_t n,
                  std::size_t t) {
  return 2.0 * static_cast<double>(voxels * m) * static_cast<double>(n * t);
}

double syrk_flops(std::size_t m, std::size_t n) {
  return static_cast<double>(m * m) * static_cast<double>(n);
}

// core::run_task_grouped, call by call: per group optimized_correlate_
// normalize, per voxel compute_voxel_kernel, then svm::cross_validate per
// voxel on the pool.  `corr` is the caller's correlation buffer, kept across
// calls as the library's workspace arena keeps its own.
Scored replay_grouped(core::EpochSource& source, const core::VoxelTask& task,
                      const core::PipelineConfig& config,
                      std::size_t group_voxels, linalg::Matrix& corr) {
  const std::size_t m = source.meta().size();
  const std::size_t n = source.voxels();
  const std::size_t t_len = source.meta().front().length;
  const std::size_t max_group = std::min<std::size_t>(group_voxels, task.count);
  if (corr.rows() != max_group * m || corr.cols() != n) {
    corr = linalg::Matrix(max_group * m, n, n);
  }
  std::vector<linalg::Matrix> kernels;
  kernels.reserve(task.count);
  for (std::uint32_t g0 = 0; g0 < task.count; g0 += group_voxels) {
    const core::VoxelTask group{
        task.first + g0,
        static_cast<std::uint32_t>(
            std::min<std::size_t>(group_voxels, task.count - g0))};
    const linalg::MatrixView view{corr.data(), group.count * m, n, n};
    {
      const Scope span("corr_norm", corr_flops(group.count, m, n, t_len));
      core::optimized_correlate_normalize(source, group, view,
                                          config.norm_mode);
    }
    for (std::uint32_t v = 0; v < group.count; ++v) {
      kernels.emplace_back(m, m);
      const Scope span("syrk", syrk_flops(m, n));
      core::compute_voxel_kernel(view, m, v, config.impl,
                                 kernels.back().view());
    }
  }
  const auto folds = config.cv_folds != nullptr
                         ? *config.cv_folds
                         : core::epoch_loso_folds(source.meta());
  const auto labels = core::epoch_labels(source.meta());
  Scored out;
  out.accuracy.assign(task.count, 0.0);
  std::atomic<long> iterations{0};
  const Scope phase("svm.phase");
  threading::parallel_for_each(*config.pool, 0, task.count, [&](std::size_t v) {
    const Scope span("svm", 0.0, phase.id());
    const svm::CvResult cv = svm::cross_validate(
        config.solver, kernels[v].view(), labels, folds, config.svm_options);
    out.accuracy[v] = cv.accuracy();
    iterations.fetch_add(cv.iterations, std::memory_order_relaxed);
  });
  out.iterations = iterations.load();
  return out;
}

// core::run_task, call by call: optimized_correlate_normalize, then per
// voxel compute_voxel_kernel and svm::cross_validate on the pool (as
// svm_stage does).  Spans name `parent` because they run on pool threads.
core::TaskResult replay_task(core::EpochSource& source,
                             const core::VoxelTask& task,
                             const core::PipelineConfig& config, int parent,
                             std::atomic<long>& iterations) {
  const std::size_t m = source.meta().size();
  const std::size_t n = source.voxels();
  const std::size_t t_len = source.meta().front().length;
  linalg::Matrix corr(task.count * m, n, n);
  {
    const Scope span("corr_norm", corr_flops(task.count, m, n, t_len), parent);
    core::optimized_correlate_normalize(source, task, corr.view(),
                                        config.norm_mode);
  }
  const auto folds = config.cv_folds != nullptr
                         ? *config.cv_folds
                         : core::epoch_loso_folds(source.meta());
  const auto labels = core::epoch_labels(source.meta());
  const linalg::tune::SyrkGeometry geo = linalg::tune::syrk_plan(m, n);
  core::TaskResult result;
  result.task = task;
  result.accuracy.assign(task.count, 0.0);
  threading::parallel_for_each(*config.pool, 0, task.count, [&](std::size_t v) {
    linalg::Matrix kernel(m, m);
    {
      const Scope span("syrk", syrk_flops(m, n), parent);
      core::compute_voxel_kernel(corr.view(), m, v, config.impl, kernel.view(),
                                 &geo);
    }
    const Scope span("svm", 0.0, parent);
    const svm::CvResult cv = svm::cross_validate(
        config.solver, kernel.view(), labels, folds, config.svm_options);
    result.accuracy[v] = cv.accuracy();
    iterations.fetch_add(cv.iterations, std::memory_order_relaxed);
  });
  return result;
}

// Busy thread-seconds of a grouped replay: the self time of every span but
// svm.phase, which only waits for the pool.
double busy_seconds(const Profile& p) {
  double busy = -p.layer("svm.phase").busy;
  for (const auto& [name, l] : p.layers) busy += l.busy;
  return busy;
}

// Folds one traced grouped replay into the totals.
void add_grouped_op(const Profile& p, const Scored& replay,
                    const threading::ThreadPool& pool,
                    const sched::Scheduler::Stats& before, LayerTotals& t) {
  const sched::Scheduler::Stats after = pool.scheduler().stats();
  t.ops += 1.0;
  t.traced_wall += p.wall;
  t.blocking += p.blocking;
  t.add_layers(p);
  t.path["fmri"] += p.layer("fmri.read").self_main;
  t.path["epoch_source"] += p.layer("epoch_source.acquire").self_main;
  t.path["corr_norm"] += p.layer("corr_norm").self_main;
  t.path["syrk"] += p.layer("syrk").self_main;
  // The whole phase: the caller thread may run some voxels itself while it
  // waits (the scheduler's stall rescue).
  t.path["svm"] += p.layer("svm.phase").wall;
  t.svm_iterations += static_cast<double>(replay.iterations);
  t.steals += static_cast<double>(after.steals - before.steals);
  t.local_hits += static_cast<double>(after.local_hits - before.local_hits);
  t.inbox_hits += static_cast<double>(after.inbox_hits - before.inbox_hits);
  t.idle_busy += busy_seconds(p);
  t.idle_capacity += static_cast<double>(pool.size()) * p.wall;
}

// Planted voxels should score clearly above noise voxels of the same range.
// `accuracy[i]` scores voxel i.
void check_planted(Outcome& out, const std::vector<double>& accuracy,
                   const std::vector<std::uint32_t>& planted) {
  const std::set<std::uint32_t> truth(planted.begin(), planted.end());
  double hit = 0.0, miss = 0.0;
  std::size_t n_hit = 0, n_miss = 0;
  for (std::size_t i = 0; i < accuracy.size(); ++i) {
    if (truth.count(static_cast<std::uint32_t>(i)) != 0) {
      hit += accuracy[i];
      ++n_hit;
    } else {
      miss += accuracy[i];
      ++n_miss;
    }
  }
  const double margin = (n_hit > 0 ? hit / static_cast<double>(n_hit) : 0.0) -
                        (n_miss > 0 ? miss / static_cast<double>(n_miss) : 1.0);
  out.check("planted_separation", n_hit > 0 && margin >= kPlantedMargin,
            std::to_string(n_hit) + " planted voxels score " + fmt(margin) +
                " above noise (need " + fmt(kPlantedMargin) + ")");
}

// Repeats the timed `setup` kSetupReps times, or more while the repeats
// total under kSetupSeconds (a sub-millisecond set-up needs many samples
// for a steady median).  `release` drops the previous result untimed.
void repeat_setup(std::vector<double>& setup_s,
                  const std::function<void()>& release,
                  const std::function<void()>& setup) {
  double total = 0.0;
  while (setup_s.size() < kSetupReps ||
         (total < kSetupSeconds && setup_s.size() < kMaxSetupReps)) {
    release();
    const WallTimer timer;
    setup();
    setup_s.push_back(timer.seconds());
    total += setup_s.back();
  }
}

// Set-up of the resident workloads: load the dataset, normalize its epochs.
fmri::NormalizedEpochs load_normalized(const std::string& stem,
                                       std::vector<double>& setup_s) {
  fmri::NormalizedEpochs norm;
  repeat_setup(
      setup_s, [&] { norm = fmri::NormalizedEpochs{}; },
      [&] { norm = fmri::normalize_epochs(fmri::load_dataset(stem, "bench")); });
  return norm;
}

// ---------------------------------------------------------------------------
// facescene-task: one resident worker task through run_task_grouped.

Outcome facescene_task(const Args& a) {
  const Sizes& sz = a.sizes;
  Outcome out;
  const fmri::NormalizedEpochs norm =
      load_normalized(a.dir + "/facescene", out.setup_s);
  threading::ThreadPool pool(kThreads);
  core::PipelineConfig config = core::PipelineConfig::optimized();
  config.pool = &pool;
  core::ResidentEpochs source(norm);
  const core::VoxelTask task{0, static_cast<std::uint32_t>(sz.task_voxels)};
  auto score = [&] {
    return core::run_task_grouped(source, task, config, sz.task_group)
        .accuracy;
  };

  const std::vector<double> warm = score();
  out.check("matches_reference",
            same_bytes(warm, read_doubles(a.dir + "/facescene.ref")),
            "warm-up accuracies equal the generator's resident reference");
  check_planted(out, warm, read_voxels(a.dir + "/facescene.truth"));

  LayerTotals totals;
  linalg::Matrix corr;
  timed_leg(
      a, out, totals,
      [&] {
        out.attempted += task.count;
        out.voxels += task.count;
        if (!same_bytes(score(), warm)) out.failed += task.count;
      },
      [&](int op) {
        const auto before = pool.scheduler().stats();
        Scored replay;
        const Profile p = traced_op(op, [&] {
          TracedEpochs traced(source);
          replay = replay_grouped(traced, task, config, sz.task_group, corr);
        });
        add_grouped_op(p, replay, pool, before, totals);
        totals.replay_identical &= same_bytes(replay.accuracy, warm);
      });
  out.voxel_s = sum(out.op_s);
  out.latency_s = out.op_s;
  if (a.trace) add_layer_metrics(totals, out);
  return out;
}

// ---------------------------------------------------------------------------
// facescene-streamed: the same dataset from its shard store through
// StreamedEpochs, under a memory budget smaller than its panels.

Outcome facescene_streamed(const Args& a) {
  const Sizes& sz = a.sizes;
  Outcome out;
  const std::string stem = a.dir + "/facescene_store";
  const std::size_t budget = sz.budget_mb << 20;
  std::unique_ptr<fmri::ShardStoreView> view;
  core::BudgetPlan plan;
  // Set-up opens the store, plans the budget and maps every shard once,
  // which verifies its payload checksum: the inputs are then ready to score.
  repeat_setup(
      out.setup_s, [&] { view.reset(); },
      [&] {
        view = fmri::open_shard_store(stem, "facescene");
        plan = core::plan_residency(view->epochs().size(),
                                    view->epochs_per_subject(), view->voxels(),
                                    view->epochs().front().length, budget);
        for (std::int32_t subject = 0; subject < view->subjects(); ++subject) {
          (void)view->epoch_panel(view->epochs_of_subject(subject).front());
        }
      });
  threading::ThreadPool pool(sz.streamed_threads);
  core::PipelineConfig config = core::PipelineConfig::optimized();
  config.pool = &pool;
  const auto tasks =
      core::partition_voxels(sz.streamed_voxels, plan.voxels_per_task);
  // One operation scores every voxel, task by task, through its own panel
  // cache, as a streamed `fcma analyze --memory-budget` run does.  The
  // cache's destructor waits for in-flight prefetches, so nothing of one
  // operation overlaps the next.
  linalg::Matrix corr;
  auto score = [&](const fmri::DatasetView& data, bool traced,
                   long* iterations) {
    core::StreamedEpochs streamed(
        data, core::StreamedEpochs::Options{plan.panel_cache_bytes, &pool});
    TracedEpochs traced_source(streamed);
    std::vector<double> accuracy;
    for (const core::VoxelTask& task : tasks) {
      std::vector<double> part;
      if (traced) {
        Scored s = replay_grouped(traced_source, task, config,
                                  plan.group_voxels, corr);
        *iterations += s.iterations;
        part = std::move(s.accuracy);
      } else {
        part =
            core::run_task_grouped(streamed, task, config, plan.group_voxels)
                .accuracy;
      }
      accuracy.insert(accuracy.end(), part.begin(), part.end());
    }
    return accuracy;
  };

  const std::vector<double> warm = score(*view, false, nullptr);
  std::vector<double> ref = read_doubles(a.dir + "/facescene.ref");
  ref.resize(std::min(ref.size(), warm.size()));
  out.check("matches_resident", same_bytes(warm, ref),
            "streamed accuracies equal the first " +
                std::to_string(warm.size()) +
                " resident facescene-task accuracies (group_voxels=" +
                std::to_string(plan.group_voxels) + ")");

  LayerTotals totals;
  timed_leg(
      a, out, totals,
      [&] {
        out.attempted += warm.size();
        out.voxels += static_cast<double>(warm.size());
        if (!same_bytes(score(*view, false, nullptr), warm)) {
          out.failed += warm.size();
        }
      },
      [&](int op) {
        const auto before = pool.scheduler().stats();
        std::vector<double> replay;
        long iterations = 0;
        const Profile p = traced_op(op, [&] {
          replay = score(TracedView(*view), true, &iterations);
        });
        add_grouped_op(p, Scored{{}, iterations}, pool, before, totals);
        totals.replay_identical &= same_bytes(replay, warm);
      });
  out.voxel_s = sum(out.op_s);
  out.latency_s = out.op_s;
  if (a.trace) {
    // Not a check: the peak creeps past the budget as a run goes on, and
    // with more pool threads it starts above it (README.md, findings).
    totals.rss_over_budget =
        out.peak_rss_mb / static_cast<double>(sz.budget_mb);
    totals.group_voxels = static_cast<double>(plan.group_voxels);
    add_layer_metrics(totals, out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// attention-farm: the master-worker cluster driver over resident epochs.

Outcome attention_farm(const Args& a) {
  const Sizes& sz = a.sizes;
  Outcome out;
  const fmri::NormalizedEpochs norm =
      load_normalized(a.dir + "/attention", out.setup_s);
  core::ResidentEpochs source(norm);
  const std::size_t voxels = sz.farm_voxels;
  cluster::DriverOptions options;
  options.workers = sz.farm_workers;
  options.voxels_per_task = sz.farm_voxels_per_task;
  options.standby = true;
  options.lease_timeout_s = kFarmLeaseS;
  options.pipeline = core::PipelineConfig::optimized();

  // Warm-up and reference: the single-node grouped pipeline on a pool of
  // the same size as the farm.
  threading::ThreadPool pool(sz.farm_workers);
  core::PipelineConfig single = core::PipelineConfig::optimized();
  single.pool = &pool;
  const core::VoxelTask task{0, static_cast<std::uint32_t>(voxels)};
  const std::vector<double> ref =
      core::run_task_grouped(source, task, single, voxels).accuracy;
  check_planted(out, ref, read_voxels(a.dir + "/attention.truth"));

  auto job = [&](core::EpochSource& src, cluster::DriverStats& stats) {
    std::vector<double> accuracy(voxels, -1.0);
    try {
      const core::Scoreboard board =
          cluster::run_cluster_analysis(src, voxels, options, &stats);
      for (std::size_t v = 0; v < voxels; ++v) {
        accuracy[v] = board.accuracy_of(static_cast<std::uint32_t>(v));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "farm job failed: %s\n", e.what());
      accuracy.clear();
    }
    return accuracy;
  };
  {
    cluster::DriverStats stats;
    out.check("farm_matches_single_node", same_bytes(job(source, stats), ref),
              "cluster scores equal single-node run_task_grouped over the "
              "same voxels");
  }

  LayerTotals totals;
  // Stage split of the workers' pipeline time, from a traced single-node
  // replay of the farm's tasks (the workers run core::run_task per task).
  Profile replay;
  if (a.trace) {
    std::atomic<long> iterations{0};
    std::vector<double> accuracy;
    replay = traced_op(0, [&] {
      for (const core::VoxelTask& t :
           core::partition_voxels(voxels, sz.farm_voxels_per_task)) {
        const core::TaskResult r =
            replay_task(source, t, single, kInheritParent, iterations);
        accuracy.insert(accuracy.end(), r.accuracy.begin(), r.accuracy.end());
      }
    });
    totals.replay_identical &= same_bytes(accuracy, ref);
    totals.svm_iterations = static_cast<double>(iterations.load());
  }
  double stage_busy = 0.0;
  for (const char* name : kStageSpans) stage_busy += replay.layer(name).busy;

  timed_leg(
      a, out, totals,
      [&] {
        cluster::DriverStats stats;
        out.attempted += voxels;
        out.voxels += static_cast<double>(voxels);
        const std::vector<double> accuracy = job(source, stats);
        if (!same_bytes(accuracy, ref) || stats.workers_died != 0) {
          out.failed += voxels;
        }
      },
      [&](int op) {
        cluster::DriverStats stats;
        std::vector<double> accuracy;
        const Profile p = traced_op(op, [&] {
          TracedEpochs traced(source);
          const Scope span("cluster.job");
          accuracy = job(traced, stats);
        });
        totals.replay_identical &= same_bytes(accuracy, ref);
        totals.ops += 1.0;
        totals.traced_wall += p.wall;
        totals.blocking += p.blocking;
        totals.layers["epoch_source.acquire"].calls +=
            p.layer("epoch_source.acquire").calls;
        // The slowest worker's pipeline time is on the blocking path; split
        // it by the replay's stage shares.  The rest of the job is cluster
        // dispatch, messaging and the join.
        const double job_wall = p.layer("cluster.job").wall;
        const double pipeline = stats.max_worker_busy_s();
        totals.path["cluster"] += std::max(0.0, job_wall - pipeline);
        for (const char* name : kStageSpans) {
          if (stage_busy > 0.0) {
            totals.path[name] += pipeline * replay.layer(name).busy / stage_busy;
          }
        }
        double busy = 0.0;
        for (const double b : stats.worker_busy_s) busy += b;
        totals.idle_busy += busy;
        totals.idle_capacity +=
            static_cast<double>(stats.worker_busy_s.size()) * job_wall;
        std::map<std::string, double>& c = totals.cluster;
        c["messages"] += static_cast<double>(stats.messages);
        c["batches"] += static_cast<double>(stats.batches);
        c["work_requests"] += static_cast<double>(stats.work_requests);
        c["imbalance"] += stats.imbalance_ratio();
        c["workers_died"] += static_cast<double>(stats.workers_died);
        c["requeued"] += static_cast<double>(stats.tasks_requeued);
      });
  out.voxel_s = sum(out.op_s);
  out.latency_s = out.op_s;
  if (a.trace) {
    // The replay ran once; report its stage counts per job.
    for (const char* name : kStageSpans) {
      Layer l = replay.layer(name);
      l.calls *= totals.ops;
      l.work *= totals.ops;
      l.busy *= totals.ops;
      totals.layers[name] = l;
    }
    totals.svm_iterations *= totals.ops;
    add_layer_metrics(totals, out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// closedloop-session: one subject's scan replayed volume by volume into the
// streaming analyzer: localizer, then blocks of feedback epochs, retraining
// before each block.

struct Session {
  double setup_s = 0.0;
  std::vector<double> train_s;
  std::vector<double> classify_s;
  std::vector<double> decisions;
  std::vector<std::uint32_t> selected;  // after every train, concatenated
  std::size_t correct = 0;
  bool replay_identical = true;
};

Outcome closedloop_session(const Args& a) {
  const Sizes& sz = a.sizes;
  Outcome out;
  const fmri::Dataset scan = fmri::load_dataset(a.dir + "/session", "session");
  const std::size_t n = scan.voxels();
  const std::size_t len = sz.epoch_length;
  const std::vector<fmri::Epoch>& epochs = scan.epochs();
  FCMA_CHECK(epochs.size() == sz.localizer_epochs + sz.blocks * sz.block_epochs,
             "session scan has the wrong epoch count");
  // Volumes in scanner order: volume t is column t of the scan.
  std::vector<float> volumes(scan.timepoints() * n);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t t = 0; t < scan.timepoints(); ++t) {
      volumes[t * n + v] = scan.data()(v, t);
    }
  }
  auto volume = [&](std::size_t e, std::size_t t) {
    return std::span<const float>(volumes.data() + (epochs[e].start + t) * n,
                                  n);
  };

  threading::ThreadPool pool(kThreads);
  core::StreamingAnalyzer::Options options;
  options.voxels = n;
  options.epoch_length = len;
  options.max_epochs = epochs.size();
  options.top_k = sz.top_k;
  options.k_folds = sz.k_folds;
  options.pool = &pool;
  options.voxels_per_task = sz.session_voxels_per_task;

  // StreamingAnalyzer::train's voxel selection, call by call, over the
  // epochs committed so far; returns the selected voxels.
  auto replay_selection = [&](std::size_t committed, int parent,
                              std::atomic<long>& iterations) {
    linalg::Matrix data(n, committed * len);
    std::vector<fmri::Epoch> meta;
    for (std::size_t e = 0; e < committed; ++e) {
      for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t t = 0; t < len; ++t) {
          data(v, e * len + t) = scan.data()(v, epochs[e].start + t);
        }
      }
      meta.push_back(fmri::Epoch{0, epochs[e].label,
                                 static_cast<std::uint32_t>(e * len),
                                 static_cast<std::uint32_t>(len)});
    }
    const fmri::Dataset snapshot("stream", std::move(data), std::move(meta),
                                 1);
    const fmri::NormalizedEpochs norm =
        fmri::normalize_epochs(fmri::InMemoryView(snapshot));
    const auto folds = core::kfold_groups(committed, options.k_folds);
    core::PipelineConfig config = core::PipelineConfig::optimized();
    config.svm_options = options.svm_options;
    config.cv_folds = &folds;
    config.pool = &pool;
    const auto tasks = core::partition_voxels(n, options.voxels_per_task);
    core::ResidentEpochs source(norm);
    std::vector<core::TaskResult> results(tasks.size());
    auto run = [&](std::size_t i) {
      results[i] = replay_task(source, tasks[i], config, parent, iterations);
    };
    if (tasks.size() > 1) {
      threading::parallel_for_each(pool, 0, tasks.size(), run);
    } else {
      run(0);
    }
    core::Scoreboard board(n);
    for (const core::TaskResult& r : results) board.add(r);
    return board.top_voxels(options.top_k);
  };

  auto run_session = [&](bool traced, std::atomic<long>* iterations) {
    Session s;
    const WallTimer setup;
    core::StreamingAnalyzer analyzer(options);
    {
      const Scope span("online.ingest");
      for (std::size_t e = 0; e < sz.localizer_epochs; ++e) {
        for (std::size_t t = 0; t < len; ++t) analyzer.push_volume(volume(e, t));
        analyzer.commit_epoch(epochs[e].label);
      }
    }
    s.setup_s = setup.seconds();
    std::size_t e = sz.localizer_epochs;
    for (std::size_t b = 0; b < sz.blocks; ++b) {
      {
        const Scope span("online.train");
        const WallTimer timer;
        analyzer.train();
        s.train_s.push_back(timer.seconds());
      }
      const auto& selected = analyzer.selected_voxels();
      s.selected.insert(s.selected.end(), selected.begin(), selected.end());
      if (traced) {
        const Scope span("online.select");
        s.replay_identical &=
            replay_selection(e, span.id(), *iterations) == selected;
      }
      for (std::size_t i = 0; i < sz.block_epochs; ++i, ++e) {
        {
          const Scope span("online.ingest");
          for (std::size_t t = 0; t < len; ++t) {
            analyzer.push_volume(volume(e, t));
          }
        }
        core::Feedback fb;
        {
          const Scope span("online.classify");
          const WallTimer timer;
          fb = analyzer.classify_pending();
          s.classify_s.push_back(timer.seconds());
        }
        s.decisions.push_back(fb.decision);
        s.correct += fb.label == epochs[e].label ? 1 : 0;
        const Scope span("online.ingest");
        analyzer.commit_epoch(epochs[e].label);
      }
    }
    return s;
  };

  const Session warm = run_session(false, nullptr);
  {
    const std::vector<std::uint32_t> truth =
        read_voxels(a.dir + "/session.truth");
    const std::set<std::uint32_t> planted(truth.begin(), truth.end());
    const std::size_t k = std::min(sz.top_k, warm.selected.size());
    std::size_t hits = 0;
    for (std::size_t i = warm.selected.size() - k; i < warm.selected.size();
         ++i) {
      hits += planted.count(warm.selected[i]);
    }
    const double recall = static_cast<double>(hits) / static_cast<double>(k);
    const double accuracy = static_cast<double>(warm.correct) /
                            static_cast<double>(warm.decisions.size());
    out.check("planted_recall", recall >= kSessionRecall,
              "planted share of the final selection " + fmt(recall) +
                  " (need " + fmt(kSessionRecall) + ")");
    out.check("feedback_accuracy", accuracy >= kFeedbackAccuracy,
              "feedback epochs classified correctly " + fmt(accuracy) +
                  " (need " + fmt(kFeedbackAccuracy) + ")");
  }

  LayerTotals totals;
  double train_s = 0.0, trained_voxels = 0.0;
  timed_leg(
      a, out, totals,
      [&] {
        const Session s = run_session(false, nullptr);
        out.setup_s.push_back(s.setup_s);
        out.latency_s.insert(out.latency_s.end(), s.classify_s.begin(),
                             s.classify_s.end());
        train_s += sum(s.train_s);
        trained_voxels += static_cast<double>(n * s.train_s.size());
        out.attempted += s.decisions.size();
        if (!same_bytes(s.decisions, warm.decisions) ||
            s.selected != warm.selected) {
          out.failed += s.decisions.size();
        }
      },
      [&](int op) {
        const auto before = pool.scheduler().stats();
        std::atomic<long> iterations{0};
        Session s;
        const Profile p = traced_op(
            op, [&] { s = run_session(true, &iterations); }, {"online.select"});
        const auto after = pool.scheduler().stats();
        totals.replay_identical &= s.replay_identical &&
                                   same_bytes(s.decisions, warm.decisions);
        totals.ops += 1.0;
        const Layer select = p.layer("online.select");
        totals.traced_wall += p.wall - select.wall;
        totals.blocking += p.blocking;
        totals.add_layers(p);
        totals.svm_iterations += static_cast<double>(iterations.load());
        totals.steals += static_cast<double>(after.steals - before.steals);
        totals.local_hits +=
            static_cast<double>(after.local_hits - before.local_hits);
        totals.inbox_hits +=
            static_cast<double>(after.inbox_hits - before.inbox_hits);
        // The selection replay stands in for the selection inside train():
        // that time is split by the replay's stage busy times, and the rest
        // of train() (classifier features, CV estimate, final model) stays
        // with online.train.
        const double train = p.layer("online.train").wall;
        const double selection = std::min(train, select.wall);
        double stages = 0.0;
        for (const char* name : kStageSpans) stages += p.layer(name).busy;
        for (const char* name : kStageSpans) {
          if (stages > 0.0) {
            totals.path[name] += selection * p.layer(name).busy / stages;
          }
          // The caller thread sometimes runs a task while it waits; only
          // the pool's threads count against the pool's capacity.
          totals.idle_busy += p.layer(name).busy - p.layer(name).self_main;
        }
        totals.idle_capacity += static_cast<double>(kThreads) * select.wall;
        totals.path["online.train"] += train - selection;
        totals.path["online.ingest"] += p.layer("online.ingest").self_main;
        totals.path["online.classify"] += p.layer("online.classify").self_main;
      });
  out.voxels = trained_voxels;
  out.voxel_s = train_s;
  if (a.trace) add_layer_metrics(totals, out);
  return out;
}

// ---------------------------------------------------------------------------
// Input generation.

// Moves planted voxels to every `stride`-th row of [0, head) and spreads
// the remaining ones evenly over the tail, so a scored range starting at 0
// holds a known share of them.  Voxel order carries no meaning for FCMA.
fmri::Dataset place_planted(const fmri::Dataset& d, std::size_t head,
                            std::size_t stride) {
  const std::size_t n = d.voxels();
  const std::vector<std::uint32_t>& planted = d.informative_voxels();
  const std::set<std::uint32_t> is_planted(planted.begin(), planted.end());
  std::vector<std::uint32_t> noise;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (is_planted.count(v) == 0) noise.push_back(v);
  }
  std::vector<bool> slot(n, false);
  std::size_t placed = 0;
  for (std::size_t i = stride / 2; i < head && placed < planted.size();
       i += stride, ++placed) {
    slot[i] = true;
  }
  const std::size_t rest = planted.size() - placed;
  FCMA_CHECK(rest <= n - head, "too many planted voxels for the tail");
  for (std::size_t j = 0; j < rest; ++j) {
    slot[head + j * (n - head) / rest] = true;
  }
  std::vector<std::uint32_t> order(n);
  std::vector<std::uint32_t> new_planted;
  std::size_t next_planted = 0, next_noise = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (slot[i]) {
      order[i] = planted[next_planted++];
      new_planted.push_back(static_cast<std::uint32_t>(i));
    } else {
      order[i] = noise[next_noise++];
    }
  }
  linalg::Matrix data(n, d.timepoints());
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(data.row(i), d.data().row(order[i]),
                d.timepoints() * sizeof(float));
  }
  fmri::Dataset out(d.name(), std::move(data), d.epochs(), d.subjects());
  out.set_informative_voxels(std::move(new_planted));
  return out;
}

fmri::DatasetSpec spec(const std::string& name, std::size_t voxels,
                       std::int32_t subjects, std::size_t epochs_per_subject,
                       std::size_t epoch_length, std::size_t informative,
                       std::uint64_t seed) {
  fmri::DatasetSpec s;
  s.name = name;
  s.voxels = voxels;
  s.subjects = subjects;
  s.epochs_total = epochs_per_subject * static_cast<std::size_t>(subjects);
  s.epoch_length = epoch_length;
  s.informative = informative;
  s.seed = seed;
  return s;
}

int generate(const Args& a, std::uint64_t seed) {
  const Sizes& sz = a.sizes;
  {
    const fmri::Dataset d = place_planted(
        fmri::generate_synthetic(spec("facescene", sz.fs_voxels,
                                      sz.fs_subjects, sz.fs_epochs_per_subject,
                                      sz.epoch_length, sz.fs_informative,
                                      mix_seed(seed, 1))),
        sz.task_voxels, sz.planted_stride);
    fmri::save_dataset(a.dir + "/facescene", d);
    fmri::write_shard_store(a.dir + "/facescene_store", d);
    write_voxels(a.dir + "/facescene.truth", d.informative_voxels());
    const fmri::NormalizedEpochs norm = fmri::normalize_epochs(d);
    threading::ThreadPool pool(kThreads);
    core::PipelineConfig config = core::PipelineConfig::optimized();
    config.pool = &pool;
    write_doubles(a.dir + "/facescene.ref",
                  core::run_task_grouped(
                      norm,
                      core::VoxelTask{
                          0, static_cast<std::uint32_t>(sz.task_voxels)},
                      config, sz.task_group)
                      .accuracy);
  }
  {
    const fmri::Dataset d = place_planted(
        fmri::generate_synthetic(spec("attention", sz.at_voxels,
                                      sz.at_subjects, sz.at_epochs_per_subject,
                                      sz.epoch_length, sz.at_informative,
                                      mix_seed(seed, 2))),
        sz.farm_voxels, sz.planted_stride);
    fmri::save_dataset(a.dir + "/attention", d);
    write_voxels(a.dir + "/attention.truth", d.informative_voxels());
  }
  {
    const fmri::Dataset d = fmri::generate_synthetic(
        spec("session", sz.session_voxels, 1,
             sz.localizer_epochs + sz.blocks * sz.block_epochs,
             sz.epoch_length, sz.session_informative, mix_seed(seed, 3)));
    fmri::save_dataset(a.dir + "/session", d);
    write_voxels(a.dir + "/session.truth", d.informative_voxels());
  }
  return 0;
}

// ---------------------------------------------------------------------------

void print_outcome(const Args& a, const Outcome& out) {
  std::printf("{\"workload\":\"%s\",\"attempted\":%zu,\"failed\":%zu,",
              json_escape(a.workload).c_str(), out.attempted, out.failed);
  std::printf("\"ops\":%zu,\"checks\":[", out.op_s.size());
  for (std::size_t i = 0; i < out.checks.size(); ++i) {
    const Check& c = out.checks[i];
    std::printf("%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}",
                i ? "," : "", c.name.c_str(), c.ok ? "true" : "false",
                json_escape(c.detail).c_str());
  }
  std::printf("],\"metrics\":{");
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_fcma generate --dir D --seed S [--tiny 1]\n"
               "       bench_fcma run --workload W --dir D --seconds S "
               "--trace 0|1 [--spans FILE] [--tiny 1]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  auto flag = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  Args a;
  a.dir = flag("dir", "");
  a.workload = flag("workload", "");
  a.spans = flag("spans", "");
  a.seconds = std::strtod(flag("seconds", "10").c_str(), nullptr);
  a.trace = flag("trace", "0") == "1";
  if (flag("tiny", "0") == "1") a.sizes = tiny_sizes();
  if (a.dir.empty()) return usage();

  if (command == "generate") {
    return generate(a, std::strtoull(flag("seed", "1").c_str(), nullptr, 10));
  }
  if (command != "run") return usage();
  Outcome out;
  if (a.workload == "facescene-task") {
    out = facescene_task(a);
  } else if (a.workload == "facescene-streamed") {
    out = facescene_streamed(a);
  } else if (a.workload == "attention-farm") {
    out = attention_farm(a);
  } else if (a.workload == "closedloop-session") {
    out = closedloop_session(a);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }
  if (!a.trace) add_end_to_end_metrics(out);
  if (a.trace && !a.spans.empty()) run_tracer().write_json(a.spans, a.workload);
  print_outcome(a, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_fcma: %s\n", e.what());
    return 1;
  }
}
