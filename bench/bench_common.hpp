// Shared infrastructure for the table/figure reproduction benches.
//
// Every bench binary reproduces one table or figure of the paper.  Since the
// paper's machines are modeled (see archsim/) and full-size instrumented
// runs through the cache simulator would take hours, benches run at reduced
// brain sizes by default (--voxels, --subjects) and extrapolate to paper
// dimensions through the calibrated cost model where a paper-scale number
// is required.  Every table prints the paper's values alongside ours.
#pragma once

#include <cstdio>
#include <filesystem>
#include <string>

#include "archsim/arch_model.hpp"
#include "cluster/cost_model.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "common/tlstream.hpp"
#include "common/trace.hpp"
#include "fcma/pipeline.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"
#include "linalg/simd.hpp"

namespace fcma::bench {

/// A generated dataset plus its normalized epochs, ready for the pipeline.
struct Workload {
  fmri::DatasetSpec spec;       ///< the (possibly scaled) generation spec
  fmri::DatasetSpec paper_spec; ///< the unscaled Table 2 spec
  fmri::Dataset dataset;
  fmri::NormalizedEpochs epochs;
};

/// Builds a scaled instance of `paper` with ~`target_voxels` voxels and
/// (optionally) a reduced subject count.
inline Workload make_workload(const fmri::DatasetSpec& paper,
                              std::size_t target_voxels,
                              std::int32_t subjects = 0) {
  fmri::DatasetSpec spec = paper;
  if (subjects > 0) spec = spec.scaled_subjects(subjects);
  const double factor =
      std::min(1.0, static_cast<double>(target_voxels) /
                        static_cast<double>(spec.voxels));
  spec = spec.scaled_voxels(factor);
  Workload w{spec, paper, fmri::generate_synthetic(spec), {}};
  w.epochs = fmri::normalize_epochs(w.dataset);
  return w;
}

/// Task dimensions of one scaled workload run with `task_voxels` voxels.
inline cluster::TaskDims dims_of(const Workload& w, std::size_t task_voxels) {
  return cluster::TaskDims{
      .task_voxels = task_voxels,
      .brain_voxels = w.dataset.voxels(),
      .epochs = w.dataset.epochs().size(),
      .subjects = w.dataset.subjects()};
}

/// Paper-scale task dimensions (full brain, full subject count).
inline cluster::TaskDims paper_dims(const fmri::DatasetSpec& paper,
                                    std::size_t task_voxels) {
  return cluster::TaskDims{.task_voxels = task_voxels,
                           .brain_voxels = paper.voxels,
                           .epochs = paper.epochs_total,
                           .subjects = paper.subjects};
}

/// Runs the instrumented pipeline for a leading task of `task_voxels`.
inline core::InstrumentedTaskResult instrumented_task(
    const Workload& w, std::size_t task_voxels,
    const core::PipelineConfig& config, unsigned model_lanes = 16,
    memsim::Machine machine = memsim::Machine::kPhi5110P) {
  memsim::Instrument ins(machine);
  return core::run_task_instrumented(
      w.epochs,
      core::VoxelTask{0, static_cast<std::uint32_t>(task_voxels)}, config,
      ins, model_lanes);
}

/// Calibrates the cost model from one instrumented task run at the scaled
/// workload's dimensions (see cluster/cost_model.hpp for the scaling laws).
inline cluster::CalibratedCost calibrate(const Workload& w,
                                         const core::PipelineConfig& config,
                                         std::size_t calib_task_voxels = 8,
                                         unsigned model_lanes = 16,
                                         memsim::Machine machine =
                                             memsim::Machine::kPhi5110P) {
  const auto run =
      instrumented_task(w, calib_task_voxels, config, model_lanes, machine);
  return cluster::CalibratedCost(run, dims_of(w, calib_task_voxels));
}

/// Turns tracing on for the bench's lifetime, streaming it to
/// `<argv0>.stream/`, and writes the stream's fcma.trace.v2 view as the
/// metrics sidecar `<argv0>.metrics.json` when main() returns, so every
/// table and figure reproduction leaves a machine-readable stage breakdown
/// next to its printed output.  Declare first in main().
class MetricsSidecar {
 public:
  explicit MetricsSidecar(const std::string& argv0)
      : stream_dir_(argv0 + ".stream"), path_(argv0 + ".metrics.json") {
    // A previous run's lanes would otherwise merge into this run's views.
    std::filesystem::remove_all(stream_dir_);
    trace::set_stream_dir(stream_dir_);
    trace::set_enabled(true);
    trace::set_exit_dump();
    trace::meta_set("simd/isa",
                    linalg::simd::isa_name(linalg::simd::active_isa()));
  }
  ~MetricsSidecar() {
    trace::dump_now();
    std::error_code ec;
    std::filesystem::copy_file(
        stream_dir_ + "/" + std::string(trace::tlstream::kTraceFile), path_,
        std::filesystem::copy_options::overwrite_existing, ec);
    if (ec) {
      std::fprintf(stderr, "metrics sidecar %s not written: %s\n",
                   path_.c_str(), ec.message().c_str());
      return;
    }
    std::printf("\nmetrics sidecar written to %s\n", path_.c_str());
  }

  MetricsSidecar(const MetricsSidecar&) = delete;
  MetricsSidecar& operator=(const MetricsSidecar&) = delete;

  /// The stream this sidecar renders (a bench that arms streams of its own
  /// re-arms this one before main() returns).
  [[nodiscard]] const std::string& stream_dir() const { return stream_dir_; }

 private:
  std::string stream_dir_;
  std::string path_;
};

/// Standard preamble: describes the modeled-machine methodology once per
/// bench so table outputs are self-explanatory.
inline void print_preamble(const std::string& what) {
  std::printf(
      "\n%s\n"
      "(event counts from the deterministic cache/VPU simulator; times and\n"
      " GFLOPS are modeled for the paper's machines via archsim — absolute\n"
      " 2015 wall-clock is not reproducible, shapes and ratios are)\n\n",
      what.c_str());
}

}  // namespace fcma::bench
