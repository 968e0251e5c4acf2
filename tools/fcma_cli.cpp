// fcma — command-line driver for the FCMA toolkit.
//
// Wraps the library's main workflows behind one binary so an analysis can
// run end-to-end without writing C++:
//
//   fcma generate   --out study --voxels 512 --subjects 8
//   fcma info       --in study
//   fcma preprocess --in study --out clean --detrend 1 --spike-threshold 8
//   fcma analyze    --in clean --report analysis.txt --fdr 0.05
//   fcma offline    --in clean --report offline.txt --top-k 32
//
// Datasets live in the FCMB/epoch-file pair written by fmri::save_dataset;
// `generate --grid X,Y,Z` additionally writes an FCMM brain mask and the
// analysis report then includes ROI clusters.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "cluster/checkpoint.hpp"
#include "cluster/driver.hpp"
#include "common/cli.hpp"
#include "common/timeline.hpp"
#include "common/timer.hpp"
#include "common/tlstream.hpp"
#include "common/trace.hpp"
#include "memsim/instrument.hpp"
#include "fcma/offline.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/report.hpp"
#include "fcma/scoreboard.hpp"
#include "fcma/selection.hpp"
#include "fmri/io.hpp"
#include "fmri/preprocess.hpp"
#include "fmri/presets.hpp"
#include "fmri/shard_store.hpp"
#include "fmri/synthetic.hpp"
#include "linalg/simd.hpp"
#include "threading/thread_pool.hpp"

namespace {

using namespace fcma;

void usage() {
  std::puts(
      "fcma <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate    synthesize a dataset (optionally volumetric)\n"
      "  info        summarize a dataset\n"
      "  preprocess  detrend + censor motion spikes (+ smooth if a mask "
      "exists)\n"
      "  shard       convert a dataset into a subject-sharded on-disk store\n"
      "              (fcma.shards.v1) for out-of-core analysis\n"
      "  analyze     run the FCMA pipeline and write a report\n"
      "  cluster     run the fault-tolerant master-worker farm (in-process\n"
      "              ranks; --fault-* injection, --checkpoint/--resume)\n"
      "  offline     run the nested leave-one-subject-out study\n"
      "  report      summarize a --trace-stream directory (spans,\n"
      "              percentiles, roofline, cluster balance, SLOs)\n"
      "\n"
      "run `fcma <command> --help` for that command's flags.");
}

// Tracing knob shared by the analysis commands (analyze/cluster/offline).
void add_trace_flag(Cli& cli) {
  cli.add_flag("trace-stream", "",
               "continuously stream the run's spans to fcma.tlstream.v1 "
               "segment files in this directory; at exit it also holds the "
               "Chrome-trace view <dir>/timeline.json (chrome://tracing, "
               "ui.perfetto.dev) and the span/counter summary "
               "<dir>/trace.json (fcma.trace.v2).  Summarize with `fcma "
               "report --stream-in <dir>`, live with --follow");
}

/// Arms the stream named by --trace-stream (if any) and turns tracing on;
/// returns the stream directory ("" = untraced run).
std::string setup_tracing(const Cli& cli) {
  const std::string dir = cli.get("trace-stream");
  if (dir.empty()) return dir;
  // FCMA_TL_RING shrinks the per-thread event rings (tests force tiny
  // rings to exercise the spill path mid-run).
  const char* ring = std::getenv("FCMA_TL_RING");
  if (ring != nullptr && ring[0] != '\0') {
    const long long n = parse_int(ring, "FCMA_TL_RING");
    FCMA_CHECK(n > 0, "FCMA_TL_RING must be positive");
    trace::Timeline::global().set_ring_capacity(static_cast<std::size_t>(n));
  }
  trace::set_stream_dir(dir);
  trace::set_enabled(true);
  trace::set_thread_name("main");
  trace::set_exit_dump();
  trace::meta_set("simd/isa",
                  linalg::simd::isa_name(linalg::simd::active_isa()));
  trace::meta_set("trace/run_id",
                  trace::tlstream::trace_hex(trace::run_id()));
  return dir;
}

void finish_tracing(const std::string& dir) {
  if (dir.empty()) return;
  trace::dump_now();
  std::printf("timeline stream written to %s (trace %s), views %s/%s and "
              "%s/%s\n",
              dir.c_str(), trace::tlstream::trace_hex(trace::run_id()).c_str(),
              dir.c_str(), std::string(trace::tlstream::kTimelineFile).c_str(),
              dir.c_str(), std::string(trace::tlstream::kTraceFile).c_str());
}

// Out-of-core knob shared by the analysis commands.
void add_budget_flag(Cli& cli) {
  cli.add_flag("memory-budget", "",
               "peak-memory budget, e.g. 512M or 2G (bytes; K/M/G "
               "suffixes).  Leases epoch rows from the data as needed and "
               "sizes tasks to fit, instead of materializing the whole "
               "normalized dataset; reports stay byte-identical");
}

// "512M"/"2G"/"1048576" byte sizes for --memory-budget.
std::size_t parse_bytes(const std::string& s) {
  if (s.empty()) return 0;
  char* end = nullptr;
  const double value = std::strtod(s.c_str(), &end);
  FCMA_CHECK(end != s.c_str() && value >= 0.0, "bad byte size: " + s);
  std::size_t scale = 1;
  if (*end != '\0') {
    FCMA_CHECK(end[1] == '\0', "bad byte-size suffix: " + s);
    switch (*end) {
      case 'k': case 'K': scale = 1ull << 10; break;
      case 'm': case 'M': scale = 1ull << 20; break;
      case 'g': case 'G': scale = 1ull << 30; break;
      default: fcma::raise("bad byte-size suffix: " + s);
    }
  }
  // Converting a double at or beyond 2^64 (or inf) to size_t is undefined.
  const double bytes = value * static_cast<double>(scale);
  FCMA_CHECK(std::isfinite(bytes) && bytes < 0x1p64,
             "byte size out of range: " + s);
  return static_cast<std::size_t>(bytes);
}

// --threads as a pool size: 0 means hardware concurrency.
std::size_t threads_flag(const Cli& cli) {
  const long long threads = cli.get_int("threads");
  FCMA_CHECK(threads >= 0, "--threads must not be negative");
  return static_cast<std::size_t>(threads);
}

int cmd_generate(int argc, const char* const* argv) {
  Cli cli("fcma generate", "synthesize a planted-connectivity dataset");
  cli.add_flag("out", "study", "output stem (<stem>.fcmb/.epochs[/.fcmm])");
  cli.add_flag("voxels", "512", "brain voxels (ignored with --grid)");
  cli.add_flag("subjects", "8", "subject count");
  cli.add_flag("epochs-per-subject", "12", "epochs per subject (even)");
  cli.add_flag("informative", "64", "planted informative voxels");
  cli.add_flag("signal", "0.8", "latent loading of informative voxels");
  cli.add_flag("seed", "42", "generator seed");
  cli.add_flag("grid", "",
               "volumetric mode: X,Y,Z grid with an ellipsoid brain mask "
               "and blob-planted ROIs");
  cli.add_flag("blobs", "4", "ROI blob count (volumetric mode)");
  if (!cli.parse(argc, argv)) return 0;

  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.name = cli.get("out");
  spec.voxels = static_cast<std::size_t>(cli.get_int("voxels"));
  spec.subjects = static_cast<std::int32_t>(cli.get_int("subjects"));
  spec.epochs_total = static_cast<std::size_t>(
      cli.get_int("epochs-per-subject") * cli.get_int("subjects"));
  spec.informative = static_cast<std::size_t>(cli.get_int("informative"));
  spec.signal = cli.get_double("signal");
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const std::string stem = cli.get("out");
  const std::string grid = cli.get("grid");
  if (!grid.empty()) {
    int nx = 0;
    int ny = 0;
    int nz = 0;
    FCMA_CHECK(std::sscanf(grid.c_str(), "%d,%d,%d", &nx, &ny, &nz) == 3,
               "--grid expects X,Y,Z");
    const fmri::VolumetricDataset vol = fmri::generate_synthetic_volumetric(
        spec, fmri::VolumeGeometry{nx, ny, nz},
        static_cast<std::size_t>(cli.get_int("blobs")));
    fmri::save_dataset(stem, vol.dataset);
    fmri::save_mask(stem + ".fcmm", vol.mask);
    std::printf("wrote %s.fcmb/.epochs/.fcmm: %zu brain voxels in a "
                "%dx%dx%d grid, %zu planted ROI voxels in %zu blobs\n",
                stem.c_str(), vol.dataset.voxels(), nx, ny, nz,
                vol.dataset.informative_voxels().size(),
                vol.planted_rois.size());
  } else {
    const fmri::Dataset d = fmri::generate_synthetic(spec);
    fmri::save_dataset(stem, d);
    std::printf("wrote %s.fcmb/.epochs: %zu voxels, %d subjects, %zu "
                "epochs, %zu planted informative voxels\n",
                stem.c_str(), d.voxels(), d.subjects(), d.epochs().size(),
                d.informative_voxels().size());
  }
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  Cli cli("fcma info", "summarize a dataset");
  cli.add_flag("in", "study", "dataset stem");
  if (!cli.parse(argc, argv)) return 0;
  // Works on either backend: a shard store is summarized from its manifest
  // and epoch labels without touching the activity payloads.
  const auto view = fmri::open_dataset_view(cli.get("in"), cli.get("in"));
  std::printf("dataset %s (%s)\n", view->name().c_str(),
              fmri::shard_store_exists(cli.get("in")) ? "sharded" : "fcmb");
  std::printf("  voxels:      %zu\n", view->voxels());
  std::printf("  time points: %zu\n", view->timepoints());
  std::printf("  subjects:    %d\n", view->subjects());
  std::printf("  epochs:      %zu (%zu per subject, length %u)\n",
              view->epochs().size(), view->epochs_per_subject(),
              view->epochs().front().length);
  std::size_t ones = 0;
  for (const auto& e : view->epochs()) ones += (e.label == 1);
  std::printf("  label balance: %.2f\n",
              static_cast<double>(ones) /
                  static_cast<double>(view->epochs().size()));
  return 0;
}

int cmd_shard(int argc, const char* const* argv) {
  Cli cli("fcma shard",
          "convert a dataset into a subject-sharded store (fcma.shards.v1)");
  cli.add_flag("in", "study", "input dataset stem (<stem>.fcmb/.epochs)");
  cli.add_flag("out", "", "output stem (defaults to --in)");
  if (!cli.parse(argc, argv)) return 0;
  const std::string in = cli.get("in");
  const std::string out = cli.get("out").empty() ? in : cli.get("out");
  const fmri::Dataset d = fmri::load_dataset(in, in);
  fmri::write_shard_store(out, d);
  // Carry the brain mask along so analyses on the store still cluster ROIs.
  if (out != in) {
    try {
      fmri::save_mask(out + ".fcmm", fmri::load_mask(in + ".fcmm"));
    } catch (const Error&) {
      // No mask alongside the input; nothing to copy.
    }
  }
  std::printf("wrote %s.shards + %d subject shard(s): %zu voxels, %zu "
              "epochs\n",
              out.c_str(), d.subjects(), d.voxels(), d.epochs().size());
  return 0;
}

int cmd_preprocess(int argc, const char* const* argv) {
  Cli cli("fcma preprocess", "detrend, censor, and (with a mask) smooth");
  cli.add_flag("in", "study", "input dataset stem");
  cli.add_flag("out", "clean", "output dataset stem");
  cli.add_flag("detrend", "1", "polynomial detrend order (-1 = off)");
  cli.add_flag("spike-threshold", "8.0",
               "motion-spike threshold in robust SDs (0 = off)");
  cli.add_flag("fwhm", "0", "Gaussian smoothing FWHM in voxels (needs "
                            "<in>.fcmm; 0 = off)");
  if (!cli.parse(argc, argv)) return 0;

  fmri::Dataset d = fmri::load_dataset(cli.get("in"), cli.get("in"));
  const long order = cli.get_int("detrend");
  if (order >= 0) {
    fmri::detrend_dataset(d, static_cast<int>(order));
    std::printf("detrended (order %ld)\n", order);
  }
  const double fwhm = cli.get_double("fwhm");
  if (fwhm > 0.0) {
    const fmri::BrainMask mask = fmri::load_mask(cli.get("in") + ".fcmm");
    fmri::spatial_smooth(d, mask, fwhm);
    fmri::save_mask(cli.get("out") + ".fcmm", mask);
    std::printf("smoothed (FWHM %.1f voxels)\n", fwhm);
  }
  const double thresh = cli.get_double("spike-threshold");
  if (thresh > 0.0) {
    const auto spikes = fmri::detect_motion_spikes(d, thresh);
    const auto censored = fmri::censored_epochs(d, spikes);
    std::printf("motion spikes: %zu -> %zu epoch(s) censored\n",
                spikes.size(), censored.size());
    // Censoring is recorded by *dropping* the epochs from the label file:
    // rebuild the dataset with only usable epochs referenced.
    if (!censored.empty()) {
      const auto usable = fmri::usable_epochs(d, spikes);
      std::vector<fmri::Epoch> keep;
      for (const std::size_t e : usable) keep.push_back(d.epochs()[e]);
      fmri::save_activity(cli.get("out") + ".fcmb", d.data());
      fmri::save_epochs(cli.get("out") + ".epochs", keep);
      std::printf("wrote %s (with %zu usable epochs)\n",
                  cli.get("out").c_str(), keep.size());
      return 0;
    }
  }
  fmri::save_dataset(cli.get("out"), d);
  std::printf("wrote %s\n", cli.get("out").c_str());
  return 0;
}

int cmd_analyze(int argc, const char* const* argv) {
  Cli cli("fcma analyze", "score every voxel and write a report");
  cli.add_flag("in", "study", "dataset stem");
  cli.add_flag("report", "analysis.txt", "report output path");
  cli.add_flag("top-k", "20", "voxels listed in the report");
  cli.add_flag("fdr", "0.05", "FDR level for the selected set");
  cli.add_flag("grouped", "64", "voxels in flight (memory-bounded driver)");
  cli.add_flag("baseline", "false", "use the baseline implementation");
  cli.add_flag("threads", "0",
               "worker threads for every stage (0 = hardware concurrency)");
  cli.add_flag("sched", "steal",
               "task scheduler: steal (work-stealing pool) or serial");
  add_trace_flag(cli);
  add_budget_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::string sched = cli.get("sched");
  FCMA_CHECK(sched == "steal" || sched == "serial",
             "--sched expects 'steal' or 'serial'");
  const std::size_t threads = threads_flag(cli);
  const long long grouped = cli.get_int("grouped");
  FCMA_CHECK(grouped >= 1, "--grouped must be at least 1");

  const std::string trace_dir = setup_tracing(cli);

  const auto view = fmri::open_dataset_view(cli.get("in"), cli.get("in"));
  const std::size_t budget = parse_bytes(cli.get("memory-budget"));
  core::PipelineConfig config = cli.get_bool("baseline")
                                    ? core::PipelineConfig::baseline()
                                    : core::PipelineConfig::optimized();
  std::optional<threading::ThreadPool> pool;
  if (sched == "steal") {
    pool.emplace(threads);
    config.pool = &*pool;
  }
  WallTimer timer;
  // Under a budget, rows stream through budget-counted leases and plan-sized
  // tasks run one at a time; resident, the whole brain is one task swept
  // under --grouped.  Per-voxel results are independent of the task
  // partition, so the report is byte-identical either way.
  core::EpochRun run = core::open_epoch_run(*view, budget);
  if (run.group_voxels == 0) {
    run.group_voxels = static_cast<std::size_t>(grouped);
  }
  const core::Scoreboard board = core::score_epoch_run(run, config);
  std::printf("scored %zu voxels in %.1f s\n", view->voxels(),
              timer.seconds());

  const auto* resident =
      dynamic_cast<const core::ResidentEpochs*>(run.epochs.get());
  if (!trace_dir.empty() && resident != nullptr) {
    // Roofline calibration: a small serial instrumented run whose memsim
    // event counts attach modeled-time / arithmetic-intensity / %-roofline
    // attribution to the gemm/syrk/svm span labels in the exported trace.
    // Resident runs only — it needs the materialized epochs, and a
    // budgeted run must not allocate them.
    memsim::Instrument ins(memsim::Machine::kPhi5110P);
    core::PipelineConfig calib = config;
    calib.pool = nullptr;
    const auto calib_voxels = static_cast<std::uint32_t>(
        std::min<std::size_t>(8, view->voxels()));
    (void)core::run_task_instrumented(
        resident->epochs(), core::VoxelTask{0, calib_voxels}, calib, ins);
  }

  const auto selected = core::significant_voxels(
      board, view->epochs().size(), cli.get_double("fdr"),
      core::Correction::kFdr);
  std::printf("FDR (q = %.3g) selected %zu voxels\n",
              cli.get_double("fdr"), selected.size());

  core::ReportOptions opts;
  opts.cv_total = view->epochs().size();
  opts.top_voxels = static_cast<std::size_t>(cli.get_int("top-k"));
  std::string report;
  // Use the mask for ROI clustering when one exists alongside the data.
  try {
    const fmri::BrainMask mask = fmri::load_mask(cli.get("in") + ".fcmm");
    report = core::render_report(board, selected, &mask, opts);
  } catch (const Error&) {
    report = core::render_report(board, selected, nullptr, opts);
  }
  core::write_report(cli.get("report"), report);
  std::printf("report written to %s\n", cli.get("report").c_str());
  finish_tracing(trace_dir);
  return 0;
}

int cmd_cluster(int argc, const char* const* argv) {
  Cli cli("fcma cluster",
          "fault-tolerant master-worker analysis over in-process ranks");
  cli.add_flag("in", "study", "dataset stem");
  cli.add_flag("report", "cluster.txt", "report output path");
  cli.add_flag("workers", "3", "worker ranks (rank 0 is the master)");
  cli.add_flag("voxels-per-task", "0",
               "voxels per task (0 = one task per worker)");
  cli.add_flag("top-k", "20", "voxels listed in the report");
  cli.add_flag("fdr", "0.05", "FDR level for the selected set");
  cli.add_flag("lease-timeout", "10.0",
               "seconds of silence after which a leased worker is declared "
               "dead and its tasks requeued");
  cli.add_flag("fault-seed", "0", "fault-injection decision seed");
  cli.add_flag("fault-drop", "0", "P(drop) per message");
  cli.add_flag("fault-dup", "0", "P(duplicate) per message");
  cli.add_flag("fault-corrupt", "0", "P(corrupt payload) per message");
  cli.add_flag("fault-delay", "0", "P(delay/reorder) per message");
  cli.add_flag("fault-kill-rank", "0",
               "worker rank to crash mid-run (0 = none)");
  cli.add_flag("fault-kill-after", "0",
               "tasks the doomed rank completes before dying");
  cli.add_flag("fault-kill-master-after", "0",
               "batches the primary master dispatches before crashing "
               "(0 = never; requires --standby 1)");
  cli.add_flag("standby", "1",
               "replicate the control plane to a standby rank that takes "
               "over if the master goes silent");
  cli.add_flag("checkpoint", "",
               "scoreboard checkpoint path (fcma.ckpt.v1; written "
               "periodically and at completion)");
  cli.add_flag("checkpoint-every", "0",
               "task results between periodic checkpoints (0 = final only)");
  cli.add_flag("resume", "",
               "resume from a checkpoint, skipping scored voxel ranges");
  add_trace_flag(cli);
  add_budget_flag(cli);
  if (!cli.parse(argc, argv)) return 0;

  const std::string trace_dir = setup_tracing(cli);

  const auto view = fmri::open_dataset_view(cli.get("in"), cli.get("in"));
  const std::size_t budget = parse_bytes(cli.get("memory-budget"));

  cluster::DriverOptions opts;
  opts.workers = static_cast<std::size_t>(cli.get_int("workers"));
  opts.voxels_per_task =
      static_cast<std::size_t>(cli.get_int("voxels-per-task"));
  opts.lease_timeout_s = cli.get_double("lease-timeout");
  opts.faults.seed = static_cast<std::uint64_t>(cli.get_int("fault-seed"));
  opts.faults.drop = cli.get_double("fault-drop");
  opts.faults.duplicate = cli.get_double("fault-dup");
  opts.faults.corrupt = cli.get_double("fault-corrupt");
  opts.faults.delay = cli.get_double("fault-delay");
  opts.faults.kill_rank =
      static_cast<std::size_t>(cli.get_int("fault-kill-rank"));
  opts.faults.kill_after_tasks =
      static_cast<std::size_t>(cli.get_int("fault-kill-after"));
  opts.faults.kill_master_after_batches =
      static_cast<std::size_t>(cli.get_int("fault-kill-master-after"));
  opts.standby = cli.get_int("standby") != 0;
  opts.checkpoint_path = cli.get("checkpoint");
  opts.checkpoint_every =
      static_cast<std::size_t>(cli.get_int("checkpoint-every"));
  std::optional<core::Scoreboard> resumed;
  if (!cli.get("resume").empty()) {
    resumed = cluster::load_checkpoint(cli.get("resume"), view->voxels());
    opts.resume = &*resumed;
    std::printf("resuming from %s: %zu of %zu voxels already scored\n",
                cli.get("resume").c_str(), resumed->scored(),
                view->voxels());
  }

  WallTimer timer;
  cluster::DriverStats stats;
  const core::EpochRun run = core::open_epoch_run(*view, budget);
  if (run.group_voxels != 0 && opts.voxels_per_task == 0) {
    // Every worker rank holds one task's correlation buffer at a time,
    // so the plan's correlation allowance is split across the ranks.
    opts.voxels_per_task =
        std::max<std::size_t>(1, run.group_voxels / opts.workers);
  }
  const core::Scoreboard board =
      cluster::run_cluster_analysis(*run.epochs, view->voxels(), opts, &stats);
  std::printf("scored %zu voxels on %zu workers in %.1f s "
              "(%zu tasks in %zu batches, %zu work requests)\n",
              view->voxels(), opts.workers, timer.seconds(),
              stats.tasks_dispatched, stats.batches, stats.work_requests);
  std::printf("recovery: deaths=%zu requeued=%zu retries=%zu "
              "heartbeat_misses=%zu corrupt=%zu wall=%.2fs\n",
              stats.workers_died, stats.tasks_requeued, stats.retries,
              stats.heartbeat_misses, stats.corrupt_payloads,
              stats.recovery_wall_s);
  std::printf("control plane: failovers=%zu resurrections=%zu\n",
              stats.failovers, stats.resurrections);
  if (stats.checkpoints_written > 0) {
    std::printf("checkpoint written to %s (%zu snapshot(s))\n",
                opts.checkpoint_path.c_str(), stats.checkpoints_written);
  }

  const auto selected = core::significant_voxels(
      board, view->epochs().size(), cli.get_double("fdr"),
      core::Correction::kFdr);
  std::printf("FDR (q = %.3g) selected %zu voxels\n", cli.get_double("fdr"),
              selected.size());
  core::ReportOptions ropts;
  ropts.cv_total = view->epochs().size();
  ropts.top_voxels = static_cast<std::size_t>(cli.get_int("top-k"));
  std::string report;
  try {
    const fmri::BrainMask mask = fmri::load_mask(cli.get("in") + ".fcmm");
    report = core::render_report(board, selected, &mask, ropts);
  } catch (const Error&) {
    report = core::render_report(board, selected, nullptr, ropts);
  }
  core::write_report(cli.get("report"), report);
  std::printf("report written to %s\n", cli.get("report").c_str());
  finish_tracing(trace_dir);
  return 0;
}

int cmd_offline(int argc, const char* const* argv) {
  Cli cli("fcma offline", "nested leave-one-subject-out study");
  cli.add_flag("in", "study", "dataset stem");
  cli.add_flag("report", "offline.txt", "report output path");
  cli.add_flag("top-k", "32", "voxels selected per fold");
  cli.add_flag("threads", "0",
               "worker threads for the task/stage parallelism (0 = hardware "
               "concurrency)");
  cli.add_flag("voxels-per-task", "64",
               "voxels per pipeline task (0 = the whole brain in one task, "
               "or the budget plan's grain; a budget caps it at that grain)");
  cli.add_flag("sched", "steal",
               "task scheduler: steal (work-stealing pool) or serial");
  add_trace_flag(cli);
  add_budget_flag(cli);
  if (!cli.parse(argc, argv)) return 0;
  const std::string sched = cli.get("sched");
  FCMA_CHECK(sched == "steal" || sched == "serial",
             "--sched expects 'steal' or 'serial'");
  const std::size_t threads = threads_flag(cli);

  const std::string trace_dir = setup_tracing(cli);

  const auto view = fmri::open_dataset_view(cli.get("in"), cli.get("in"));
  core::OfflineOptions opts;
  opts.top_k = static_cast<std::size_t>(cli.get_int("top-k"));
  opts.voxels_per_task =
      static_cast<std::size_t>(cli.get_int("voxels-per-task"));
  opts.memory_budget_bytes = parse_bytes(cli.get("memory-budget"));
  std::optional<threading::ThreadPool> pool;
  if (sched == "steal") {
    pool.emplace(threads);
    opts.pipeline.pool = &*pool;
  }
  WallTimer timer;
  const core::OfflineResult result = core::run_offline_analysis(*view, opts);
  std::printf("%zu folds in %.1f s; mean held-out accuracy %.3f\n",
              result.folds.size(), timer.seconds(),
              result.mean_test_accuracy());
  std::string report;
  try {
    const fmri::BrainMask mask = fmri::load_mask(cli.get("in") + ".fcmm");
    report = core::render_offline_report(result, view->voxels(), &mask,
                                         core::ReportOptions{});
  } catch (const Error&) {
    report = core::render_offline_report(result, view->voxels(), nullptr,
                                         core::ReportOptions{});
  }
  core::write_report(cli.get("report"), report);
  std::printf("report written to %s\n", cli.get("report").c_str());
  finish_tracing(trace_dir);
  return 0;
}

/// Per-span-class rollup of one stream read: the label folds merged by
/// span class (worker ranks folded), for the table and the SLO rules.
std::map<std::string, trace::tlstream::SpanStats> fold_classes(
    const trace::tlstream::StreamRead& read) {
  std::map<std::string, trace::tlstream::SpanStats> classes;
  for (const auto& [label, stats] : trace::tlstream::fold_spans(read)) {
    classes[trace::tlstream::span_class_of(label)].merge(stats);
  }
  return classes;
}

/// Evaluates `rules` against the class rollup; prints one row per rule and
/// returns the violation count.  A rule matching no class is a violation
/// too — a silently-absent span class must not read as "SLO met".
std::size_t evaluate_slo(
    const std::vector<trace::tlstream::SloRule>& rules,
    const std::map<std::string, trace::tlstream::SpanStats>& classes) {
  if (rules.empty()) return 0;
  std::size_t violations = 0;
  std::printf("\n%-44s %10s %12s %12s  %s\n", "slo rule", "count",
              "observed_s", "limit_s", "verdict");
  for (const auto& rule : rules) {
    trace::tlstream::SpanStats merged;
    for (const auto& [name, c] : classes) {
      if (trace::tlstream::rule_matches(rule, name)) merged.merge(c);
    }
    const std::uint64_t count = merged.count;
    double observed = 0.0;
    bool violated = false;
    if (count == 0) {
      violated = true;  // no matching spans: cannot claim the SLO held
    } else {
      observed = merged.quantile(rule.quantile);
      violated = observed >= rule.limit_s;
    }
    if (violated) ++violations;
    std::printf("%-44s %10llu %12.4g %12.4g  %s\n", rule.raw.c_str(),
                static_cast<unsigned long long>(count), observed,
                rule.limit_s,
                violated ? "VIOLATED" : (count == 0 ? "NO-DATA" : "OK"));
  }
  std::printf("slo/violations %zu\n", violations);
  return violations;
}

/// Critical-path attribution: where each dispatched task's wall time went,
/// bucketed by span class family across the whole merged timeline.
void print_attribution(
    const std::map<std::string, trace::tlstream::SpanStats>& classes) {
  struct Bucket {
    const char* name;
    const char* suffix_a;
    const char* suffix_b;
  };
  // Folded classes: worker<N> segments collapse to "worker".
  const Bucket buckets[] = {
      {"dispatch", "cluster/dispatch", nullptr},
      {"comm", "cluster/comm/assign", "cluster/comm/result"},
      {"queue wait", "cluster/queue", nullptr},
      {"compute", "cluster/worker/task", nullptr},
      {"recovery", "cluster/recovery", "cluster/recovery/takeover"},
  };
  double bucket_s[5] = {};
  std::uint64_t bucket_n[5] = {};
  bool any = false;
  for (const auto& [name, c] : classes) {
    for (std::size_t b = 0; b < 5; ++b) {
      const bool match =
          name == buckets[b].suffix_a ||
          (buckets[b].suffix_b != nullptr && name == buckets[b].suffix_b) ||
          name.rfind(std::string(buckets[b].suffix_a) + "/", 0) == 0;
      if (match) {
        bucket_s[b] += c.total_s;
        bucket_n[b] += c.count;
        any = true;
        break;
      }
    }
  }
  if (!any) return;
  double total = 0.0;
  for (const double s : bucket_s) total += s;
  std::printf("\ncritical-path attribution (all ranks, merged):\n");
  for (std::size_t b = 0; b < 5; ++b) {
    if (bucket_n[b] == 0) continue;
    std::printf("  %-12s %10llu spans %12.4g s  %5.1f%%\n", buckets[b].name,
                static_cast<unsigned long long>(bucket_n[b]), bucket_s[b],
                total > 0.0 ? 100.0 * bucket_s[b] / total : 0.0);
  }
}

/// Merges (and optionally tails) an fcma.tlstream.v1 directory, renders
/// per-class percentiles, critical-path attribution, roofline and cluster
/// balance, and evaluates SLO rules.  Returns 2 when any rule is violated.
int cmd_report(int argc, const char* const* argv) {
  Cli cli("fcma report",
          "summarize an fcma.tlstream.v1 stream (a --trace-stream directory)");
  cli.add_flag("stream-in", "",
               "fcma.tlstream.v1 stream directory to merge and summarize "
               "(per-class percentiles, critical-path attribution, "
               "roofline, cluster balance)");
  cli.add_flag("follow", "false",
               "tail a live stream: poll until its stream.done manifest "
               "appears (or --follow-timeout elapses), then report");
  cli.add_flag("follow-timeout", "30",
               "seconds --follow waits for the run to finalize");
  cli.add_flag("poll", "0.2", "seconds between --follow polls");
  cli.add_flag("slo", "",
               "comma-separated SLO rules, e.g. "
               "'cluster/worker/task:p99<250ms,cluster/queue:p95<50ms'; any "
               "violation makes the exit code 2");
  if (!cli.parse(argc, argv)) return 0;
  FCMA_CHECK(!cli.get("stream-in").empty(),
             "report requires --stream-in <dir>");
  const std::string dir = cli.get("stream-in");
  const bool follow = cli.get_bool("follow");
  const double follow_timeout = cli.get_double("follow-timeout");
  const double poll_s = cli.get_double("poll");
  FCMA_CHECK(poll_s > 0.0, "--poll must be positive");
  FCMA_CHECK(follow_timeout >= 0.0, "--follow-timeout must not be negative");
  const std::vector<trace::tlstream::SloRule> rules =
      trace::tlstream::parse_slo_rules(cli.get("slo"));

  trace::tlstream::StreamRead read;
  const auto started = std::chrono::steady_clock::now();
  bool timed_out = false;
  for (;;) {
    read = trace::tlstream::read_stream_dir(dir);
    if (!follow || read.done) break;
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    if (waited >= follow_timeout) {
      timed_out = true;
      break;
    }
    // Live tail: one rolling line per poll so an operator (and the smoke
    // test) can watch the run converge before the final report.
    const auto classes = fold_classes(read);
    double worst_p99 = 0.0;
    std::string worst;
    for (const auto& [name, c] : classes) {
      const double p99 = c.quantile(0.99);
      if (p99 > worst_p99) {
        worst_p99 = p99;
        worst = name;
      }
    }
    std::printf("follow: %zu events in %zu segment(s), %zu class(es)%s\n",
                read.events.size(), read.segments, classes.size(),
                worst.empty()
                    ? ""
                    : ("; worst p99 " + worst + " = " +
                       std::to_string(worst_p99) + " s")
                          .c_str());
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(poll_s));
  }

  std::printf("stream %s (%s)\n", dir.c_str(),
              std::string(trace::tlstream::kSchema).c_str());
  std::printf("  trace id:  %s\n",
              trace::tlstream::trace_hex(read.trace_id).c_str());
  std::printf("  events:    %zu in %zu segment(s)\n", read.events.size(),
              read.segments);
  if (read.done) {
    std::printf("  finalized: yes (%llu events, %llu dropped)\n",
                static_cast<unsigned long long>(read.done_events),
                static_cast<unsigned long long>(read.done_dropped));
  } else {
    std::printf("  finalized: no%s\n",
                timed_out ? " (--follow timed out)" : " (partial stream)");
  }
  for (const auto& w : read.warnings) {
    std::printf("  warning: %s\n", w.c_str());
  }

  for (const auto& [name, v] : read.metrics.meta) {
    std::printf("  meta %-24s %s\n", name.c_str(), v.c_str());
  }

  const auto classes = fold_classes(read);
  std::printf("\n%-36s %10s %12s %12s %12s %12s\n", "span class", "count",
              "total_s", "p50_s", "p95_s", "p99_s");
  for (const auto& [name, c] : classes) {
    std::printf("%-36s %10llu %12.4g %12.4g %12.4g %12.4g\n", name.c_str(),
                static_cast<unsigned long long>(c.count), c.total_s,
                c.quantile(0.50), c.quantile(0.95), c.quantile(0.99));
  }
  print_attribution(classes);

  const trace::Metrics& metrics = read.metrics;
  if (!metrics.roofline.empty()) {
    std::printf("\n%-36s %12s %10s %10s %8s  %s\n", "roofline", "modeled_s",
                "gflops", "ai_f/B", "%roof", "bound");
    for (const auto& [label, r] : metrics.roofline) {
      std::printf("%-36s %12.4g %10.3g %10.3g %8.1f  %s\n", label.c_str(),
                  r.modeled_s, r.gflops, r.ai_flops_per_byte, r.pct_roofline,
                  r.bound.c_str());
    }
  }
  // Cluster balance, when the stream came from a driver run.
  const auto gauge = [&metrics](const char* name) {
    const auto it = metrics.gauges.find(name);
    return it == metrics.gauges.end() ? 0.0 : it->second;
  };
  if (metrics.gauges.count("cluster/imbalance_ratio") != 0) {
    std::printf("\ncluster balance: max %.4g s / mean %.4g s busy "
                "(imbalance %.3f)\n",
                gauge("cluster/max_worker_busy_s"),
                gauge("cluster/mean_worker_busy_s"),
                gauge("cluster/imbalance_ratio"));
  }
  std::printf("\n%zu counter(s), %zu gauge(s)\n", metrics.counters.size(),
              metrics.gauges.size());

  const std::size_t violations = evaluate_slo(rules, classes);
  return violations > 0 ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    usage();
    return argc < 2 ? 1 : 0;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand parses its own flags.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "generate") return cmd_generate(sub_argc, sub_argv);
    if (command == "info") return cmd_info(sub_argc, sub_argv);
    if (command == "preprocess") return cmd_preprocess(sub_argc, sub_argv);
    if (command == "shard") return cmd_shard(sub_argc, sub_argv);
    if (command == "analyze") return cmd_analyze(sub_argc, sub_argv);
    if (command == "cluster") return cmd_cluster(sub_argc, sub_argv);
    if (command == "offline") return cmd_offline(sub_argc, sub_argv);
    if (command == "report") return cmd_report(sub_argc, sub_argv);
    std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
    usage();
    return 1;
  } catch (const fcma::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // A failed run still leaves its --trace-stream directory and views
    // behind (no-op unless a command armed the dump).
    fcma::trace::dump_now();
    return 1;
  }
}
