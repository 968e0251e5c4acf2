// Out-of-core data-plane proof: runs the same analysis twice over a shard
// store larger than the memory budget — once fully resident, once streamed
// as core::open_epoch_run plans it — and checks two claims
// machine-verifiably:
//
//   1. the streamed run's peak RSS (VmHWM) stays under --memory-budget,
//   2. the streamed per-voxel accuracies are byte-identical to resident.
//
// It also records the most shard loads any streamed task made, with the
// task's subject and column-block counts, so bench_smoke.sh can check that
// the column sweep reads the data once per task: at most
// subjects x (blocks + 1) shard mappings.
//
// A third claim covers the offline protocol: a streamed
// run_offline_analysis at `fcma offline`'s default grain of 64 voxels per
// task stays under its budget and matches the resident run.  Nested LOSO
// scores every voxel once per fold, so it runs on a smaller store of its
// own (fixed shape, see kOffline*).
//
// VmHWM is a per-process high-water mark, so each phase re-execs this
// binary (--phase generate|resident|streamed|offline); the parent
// orchestrates, byte-compares the reports, and publishes oocore/* gauges to
// the metrics sidecar for bench_smoke.sh.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/offline.hpp"
#include "fcma/pipeline.hpp"
#include "fmri/dataset_view.hpp"
#include "fmri/shard_store.hpp"

using namespace fcma;

namespace {

// Peak resident set of this process in bytes (VmHWM of /proc/self/status).
std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(
                 std::strtoull(line.c_str() + 6, nullptr, 10)) *
             1024;
    }
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_accuracies(const std::string& path,
                      const std::vector<double>& accuracy) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(accuracy.data()),
            static_cast<std::streamsize>(accuracy.size() * sizeof(double)));
}

// One "key=value" stats line per phase, parsed back by the parent.
void write_stat(std::ofstream& out, const std::string& key, double value) {
  out << key << "=" << value << "\n";
}

double read_stat(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + "=", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  FCMA_CHECK(n > 0, "cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

int run_phase(const std::string& exe, const std::string& phase,
              const std::string& passthrough) {
  const std::string cmd = exe + " --phase " + phase + " " + passthrough;
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

// The offline phase's store and budget: 2 048 voxels, 4 subjects of 12
// epochs.  Its streamed run takes ~3 s on two threads and peaks at ~2/3 of
// the budget; running its 64-voxel tasks side by side instead peaks near
// 3x the budget.
constexpr std::size_t kOfflineVoxels = 2048;
constexpr std::int32_t kOfflineSubjects = 4;
constexpr std::size_t kOfflineEpochsPerSubject = 12;
constexpr std::size_t kOfflineBudget = std::size_t{24} << 20;

struct PhaseArgs {
  std::string dir;
  std::size_t voxels = 0;
  std::int32_t subjects = 0;
  std::size_t task_voxels = 0;
  std::size_t budget = 0;
  unsigned threads = 0;
};

int phase_generate(const PhaseArgs& a) {
  fmri::DatasetSpec spec = fmri::face_scene_spec();
  spec = spec.scaled_subjects(a.subjects);
  spec = spec.scaled_voxels(static_cast<double>(a.voxels) /
                            static_cast<double>(spec.voxels));
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  fmri::write_shard_store(a.dir + "/store", d);
  fmri::DatasetSpec offline = fmri::tiny_spec();
  offline.voxels = kOfflineVoxels;
  offline.subjects = kOfflineSubjects;
  offline.epochs_total = kOfflineEpochsPerSubject * kOfflineSubjects;
  fmri::write_shard_store(a.dir + "/offline_store",
                          fmri::generate_synthetic(offline));
  const double raw_mb =
      static_cast<double>(d.voxels() * d.epochs().size() *
                          static_cast<std::size_t>(d.epochs().front().length) *
                          sizeof(float)) /
      (1024.0 * 1024.0);
  std::ofstream stats(a.dir + "/generate.stats");
  write_stat(stats, "raw_mb", raw_mb);
  std::printf("generated %zu voxels x %zu epochs (%.1f MB raw panels)\n",
              d.voxels(), d.epochs().size(), raw_mb);
  return 0;
}

int phase_resident(const PhaseArgs& a) {
  WallTimer timer;
  const auto view = fmri::open_shard_store(a.dir + "/store", "store");
  const fmri::NormalizedEpochs norm = fmri::normalize_epochs(*view);
  threading::ThreadPool pool(a.threads);
  core::PipelineConfig config = core::PipelineConfig::optimized();
  config.pool = &pool;
  const core::VoxelTask task{0, static_cast<std::uint32_t>(a.task_voxels)};
  const core::TaskResult result = core::run_task_grouped(norm, task, config,
                                                         /*group_voxels=*/32);
  write_accuracies(a.dir + "/resident.acc", result.accuracy);
  std::ofstream stats(a.dir + "/resident.stats");
  write_stat(stats, "wall_s", timer.seconds());
  write_stat(stats, "peak_rss_mb",
             static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  return 0;
}

int phase_streamed(const PhaseArgs& a) {
  WallTimer timer;
  // The io/* counters need tracing on, and tracing records into a stream.
  trace::set_stream_dir(a.dir + "/streamed.stream");
  trace::set_enabled(true);
  const auto view = fmri::open_shard_store(a.dir + "/store", "store");
  // The same opener as `fcma analyze --memory-budget`: a StreamedEpochs
  // under the plan's row-lease bytes, and the plan's task grain.
  const core::EpochRun run = core::open_epoch_run(*view, a.budget);
  threading::ThreadPool pool(a.threads);
  core::PipelineConfig config = core::PipelineConfig::optimized();
  std::vector<double> accuracy(a.task_voxels, 0.0);
  // Tasks run serially (the pool runs each task's column panels and stage
  // 3), so one plan-sized correlation buffer is live at a time — the
  // accounting the residency plan assumes.
  config.pool = &pool;
  const auto& reg = trace::global();
  std::int64_t max_task_loads = 0;
  std::size_t max_task_blocks = 0;
  std::size_t first = 0;
  while (first < a.task_voxels) {
    const std::size_t count =
        std::min(run.voxels_per_task, a.task_voxels - first);
    const core::VoxelTask task{static_cast<std::uint32_t>(first),
                               static_cast<std::uint32_t>(count)};
    const core::ColumnSweep sweep =
        core::column_sweep(count, view->voxels(), run.group_voxels);
    const std::size_t groups = (count + sweep.group - 1) / sweep.group;
    const std::size_t blocks =
        groups * ((view->voxels() + sweep.block - 1) / sweep.block);
    const std::int64_t loads_before = reg.counter("io/shard_loads");
    const core::TaskResult part =
        core::run_task_grouped(*run.epochs, task, config, run.group_voxels);
    max_task_loads = std::max(max_task_loads,
                              reg.counter("io/shard_loads") - loads_before);
    max_task_blocks = std::max(max_task_blocks, blocks);
    std::memcpy(accuracy.data() + first, part.accuracy.data(),
                count * sizeof(double));
    first += count;
  }
  write_accuracies(a.dir + "/streamed.acc", accuracy);

  const std::size_t peak = peak_rss_bytes();
  std::ofstream stats(a.dir + "/streamed.stats");
  write_stat(stats, "wall_s", timer.seconds());
  write_stat(stats, "peak_rss_mb",
             static_cast<double>(peak) / (1024.0 * 1024.0));
  write_stat(stats, "shard_loads",
             static_cast<double>(reg.counter("io/shard_loads")));
  write_stat(stats, "bytes_mapped",
             static_cast<double>(reg.counter("io/bytes_mapped")));
  write_stat(stats, "task_shard_loads", static_cast<double>(max_task_loads));
  write_stat(stats, "task_blocks", static_cast<double>(max_task_blocks));
  write_stat(stats, "subjects", static_cast<double>(view->subjects()));
  if (peak > a.budget) {
    std::fprintf(stderr,
                 "FAIL: streamed peak RSS %.1f MB exceeds budget %.1f MB\n",
                 static_cast<double>(peak) / (1024.0 * 1024.0),
                 static_cast<double>(a.budget) / (1024.0 * 1024.0));
    return 1;
  }
  return 0;
}

bool same_folds(const core::OfflineResult& a, const core::OfflineResult& b) {
  if (a.folds.size() != b.folds.size()) return false;
  for (std::size_t f = 0; f < a.folds.size(); ++f) {
    const core::FoldResult& x = a.folds[f];
    const core::FoldResult& y = b.folds[f];
    if (x.left_out_subject != y.left_out_subject || x.selected != y.selected ||
        x.mean_selected_cv_accuracy != y.mean_selected_cv_accuracy ||
        x.test_accuracy != y.test_accuracy) {
      return false;
    }
  }
  return true;
}

int phase_offline(const PhaseArgs& a) {
  WallTimer timer;
  const auto view =
      fmri::open_shard_store(a.dir + "/offline_store", "offline_store");
  threading::ThreadPool pool(a.threads);
  core::OfflineOptions options;
  options.top_k = 32;           // fcma offline's defaults
  options.voxels_per_task = 64;
  options.memory_budget_bytes = kOfflineBudget;
  options.pipeline.pool = &pool;
  const core::OfflineResult streamed =
      core::run_offline_analysis(*view, options);
  const std::size_t peak = peak_rss_bytes();
  const double wall = timer.seconds();
  // The resident reference runs after the peak is read.
  options.memory_budget_bytes = 0;
  const bool identical =
      same_folds(streamed, core::run_offline_analysis(*view, options));

  std::ofstream stats(a.dir + "/offline.stats");
  write_stat(stats, "wall_s", wall);
  write_stat(stats, "peak_rss_mb",
             static_cast<double>(peak) / (1024.0 * 1024.0));
  write_stat(stats, "identical", identical ? 1.0 : 0.0);
  if (peak > kOfflineBudget) {
    std::fprintf(stderr,
                 "FAIL: streamed offline peak RSS %.1f MB exceeds budget "
                 "%.1f MB\n",
                 static_cast<double>(peak) / (1024.0 * 1024.0),
                 static_cast<double>(kOfflineBudget) / (1024.0 * 1024.0));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_oocore",
          "out-of-core proof: streamed run under --memory-budget, "
          "byte-identical to resident");
  cli.add_flag("phase", "", "internal: generate|resident|streamed|offline");
  cli.add_flag("dir", "", "working directory (default: a fresh temp dir)");
  cli.add_flag("voxels", "16384", "brain size (raw panels must exceed budget)");
  cli.add_flag("subjects", "10", "subject count");
  cli.add_flag("task", "96", "voxels to score");
  cli.add_flag("memory-budget-mb", "80", "streamed-phase budget (MB)");
  cli.add_flag("threads", "2", "pool threads (column panels + stage 3)");
  if (!cli.parse(argc, argv)) return 0;

  PhaseArgs a;
  a.voxels = static_cast<std::size_t>(cli.get_int("voxels"));
  a.subjects = static_cast<std::int32_t>(cli.get_int("subjects"));
  a.task_voxels = static_cast<std::size_t>(cli.get_int("task"));
  a.budget = static_cast<std::size_t>(cli.get_int("memory-budget-mb")) << 20;
  a.threads = static_cast<unsigned>(cli.get_int("threads"));
  a.dir = cli.get("dir");

  const std::string phase = cli.get("phase");
  if (!phase.empty()) {
    FCMA_CHECK(!a.dir.empty(), "--phase requires --dir");
    if (phase == "generate") return phase_generate(a);
    if (phase == "resident") return phase_resident(a);
    if (phase == "streamed") return phase_streamed(a);
    if (phase == "offline") return phase_offline(a);
    std::fprintf(stderr, "unknown phase: %s\n", phase.c_str());
    return 2;
  }

  // Parent: orchestrate the three phases in child processes so each gets
  // its own VmHWM, then compare and publish.
  const fcma::bench::MetricsSidecar metrics(argv[0]);
  bool own_dir = false;
  if (a.dir.empty()) {
    a.dir = (std::filesystem::temp_directory_path() /
             ("fcma_oocore_" + std::to_string(::getpid())))
                .string();
    std::filesystem::create_directories(a.dir);
    own_dir = true;
  }
  std::ostringstream pass;
  pass << "--dir " << a.dir << " --voxels " << a.voxels << " --subjects "
       << a.subjects << " --task " << a.task_voxels << " --memory-budget-mb "
       << (a.budget >> 20) << " --threads " << a.threads;

  const std::string exe = self_exe();
  bench::print_preamble(
      "Out-of-core data plane: streamed vs resident over one shard store");
  int rc = run_phase(exe, "generate", pass.str());
  if (rc == 0) {
    // The claim is only meaningful out of core: the dataset must not fit.
    const double raw_mb = read_stat(a.dir + "/generate.stats", "raw_mb");
    FCMA_CHECK(raw_mb * 1024.0 * 1024.0 > static_cast<double>(a.budget),
               "dataset smaller than the budget -- raise --voxels/--subjects");
  }
  if (rc == 0) rc = run_phase(exe, "resident", pass.str());
  if (rc == 0) rc = run_phase(exe, "streamed", pass.str());
  if (rc == 0) rc = run_phase(exe, "offline", pass.str());
  FCMA_CHECK(rc == 0, "a bench phase failed (exit " + std::to_string(rc) +
                          ") -- see stderr above");

  const std::string res = read_file(a.dir + "/resident.acc");
  const std::string str = read_file(a.dir + "/streamed.acc");
  const bool identical = !res.empty() && res == str;
  const double res_wall = read_stat(a.dir + "/resident.stats", "wall_s");
  const double str_wall = read_stat(a.dir + "/streamed.stats", "wall_s");
  const double res_rss = read_stat(a.dir + "/resident.stats", "peak_rss_mb");
  const double str_rss = read_stat(a.dir + "/streamed.stats", "peak_rss_mb");
  const double budget_mb = static_cast<double>(a.budget) / (1024.0 * 1024.0);
  const double slowdown = res_wall > 0.0 ? str_wall / res_wall : 0.0;
  const double off_wall = read_stat(a.dir + "/offline.stats", "wall_s");
  const double off_rss = read_stat(a.dir + "/offline.stats", "peak_rss_mb");
  const bool off_identical =
      read_stat(a.dir + "/offline.stats", "identical") == 1.0;
  const double off_budget_mb =
      static_cast<double>(kOfflineBudget) / (1024.0 * 1024.0);
  const bool off_within = off_rss > 0.0 && off_rss <= off_budget_mb;

  Table t("streamed vs resident");
  t.header({"metric", "resident", "streamed"});
  t.row({"wall (s)", Table::num(res_wall, 2), Table::num(str_wall, 2)});
  t.row({"peak RSS (MB)", Table::num(res_rss, 1), Table::num(str_rss, 1)});
  t.row({"within budget (" + Table::num(budget_mb, 0) + " MB)", "-",
         str_rss <= budget_mb ? "yes" : "NO"});
  t.row({"reports identical", "-", identical ? "yes" : "NO"});
  t.print();

  Table io("streamed-phase io counters");
  io.header({"counter", "value"});
  io.row({"io/shard_loads", Table::num(read_stat(a.dir + "/streamed.stats",
                                                 "shard_loads"), 0)});
  io.row({"io/bytes_mapped", Table::num(read_stat(a.dir + "/streamed.stats",
                                                  "bytes_mapped"), 0)});
  const double task_loads =
      read_stat(a.dir + "/streamed.stats", "task_shard_loads");
  const double task_blocks = read_stat(a.dir + "/streamed.stats", "task_blocks");
  const double subjects = read_stat(a.dir + "/streamed.stats", "subjects");
  io.row({"most shard loads in one task", Table::num(task_loads, 0)});
  io.row({"its column blocks (all groups)", Table::num(task_blocks, 0)});
  io.print();

  Table off("streamed offline protocol (" + std::to_string(kOfflineVoxels) +
            " voxels, " + std::to_string(kOfflineSubjects) +
            " subjects, 64 voxels per task asked)");
  off.header({"metric", "value"});
  off.row({"wall (s)", Table::num(off_wall, 2)});
  off.row({"peak RSS (MB)", Table::num(off_rss, 1)});
  off.row({"within budget (" + Table::num(off_budget_mb, 0) + " MB)",
           off_within ? "yes" : "NO"});
  off.row({"folds identical to resident", off_identical ? "yes" : "NO"});
  off.print();

  trace::gauge_set("oocore/budget_mb", budget_mb);
  trace::gauge_set("oocore/streamed_peak_rss_mb", str_rss);
  trace::gauge_set("oocore/resident_peak_rss_mb", res_rss);
  trace::gauge_set("oocore/streamed_wall_s", str_wall);
  trace::gauge_set("oocore/resident_wall_s", res_wall);
  trace::gauge_set("oocore/streamed_slowdown", slowdown);
  trace::gauge_set("oocore/within_budget", str_rss <= budget_mb ? 1.0 : 0.0);
  trace::gauge_set("oocore/reports_identical", identical ? 1.0 : 0.0);
  trace::gauge_set("oocore/task_shard_loads", task_loads);
  trace::gauge_set("oocore/task_blocks", task_blocks);
  trace::gauge_set("oocore/subjects", subjects);
  trace::gauge_set("oocore/offline_budget_mb", off_budget_mb);
  trace::gauge_set("oocore/offline_peak_rss_mb", off_rss);
  trace::gauge_set("oocore/offline_wall_s", off_wall);
  trace::gauge_set("oocore/offline_within_budget", off_within ? 1.0 : 0.0);
  trace::gauge_set("oocore/offline_identical", off_identical ? 1.0 : 0.0);

  if (own_dir) std::filesystem::remove_all(a.dir);
  FCMA_CHECK(identical, "streamed report differs from resident");
  FCMA_CHECK(str_rss <= budget_mb, "streamed run exceeded the memory budget");
  FCMA_CHECK(off_identical, "streamed offline folds differ from resident");
  FCMA_CHECK(off_within, "streamed offline run exceeded its memory budget");
  std::printf("streamed run stayed under %.0f MB and matched resident "
              "bit-for-bit (%.1fx wall)\n", budget_mb, slowdown);
  return 0;
}
