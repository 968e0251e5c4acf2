// Voxel scoreboard: collects per-voxel accuracies and ranks them.
//
// The master node "collects all voxels and sorts them by their resulting
// accuracies of cross validation" (paper §3.1.2); the top voxels form the
// ROIs used by the final classifier and the neuroscientific analysis.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fcma/pipeline.hpp"

namespace fcma::core {

/// One voxel's selection score.
struct VoxelScore {
  std::uint32_t voxel = 0;
  double accuracy = 0.0;
};

/// Accumulates task results; thread-compatible (external synchronization).
class Scoreboard {
 public:
  explicit Scoreboard(std::size_t total_voxels);

  /// Records one task's accuracies.  Throws on any already-scored voxel —
  /// the single-node paths dispatch each voxel exactly once, so a repeat is
  /// a scheduling bug there.
  void add(const TaskResult& result);

  /// At-least-once variant for the fault-tolerant cluster driver: an exact
  /// duplicate of an already-recorded score is skipped silently (this is
  /// what makes redelivered kTaskResult messages harmless), but a
  /// *conflicting* re-score throws — under the bit-identity contract two
  /// deliveries of the same voxel must agree, so disagreement means data
  /// corruption slipped past the checksum.  Returns the number of voxels
  /// newly scored by this call (0 for a full duplicate).
  std::size_t add_idempotent(const TaskResult& result);

  /// True once every voxel has been scored.
  [[nodiscard]] bool complete() const { return scored_ == scores_.size(); }
  [[nodiscard]] std::size_t scored() const { return scored_; }
  [[nodiscard]] std::size_t total_voxels() const { return scores_.size(); }

  /// True if voxel `v` has been scored (checkpoint/resume uses this to skip
  /// completed ranges).
  [[nodiscard]] bool voxel_scored(std::uint32_t v) const {
    FCMA_CHECK(v < seen_.size(), "voxel out of range");
    return seen_[v];
  }

  /// All scores, sorted by accuracy descending (ties: lower voxel id first,
  /// for determinism).
  [[nodiscard]] std::vector<VoxelScore> ranked() const;

  /// The top-k voxel ids, sorted ascending for stable downstream use.
  [[nodiscard]] std::vector<std::uint32_t> top_voxels(std::size_t k) const;

  /// Accuracy of one voxel.
  [[nodiscard]] double accuracy_of(std::uint32_t voxel) const;

  /// Mean accuracy of `voxels` (0 when empty), summed in the given order —
  /// the selection summary of the offline and online protocols, over
  /// top_voxels' ascending ids.
  [[nodiscard]] double mean_accuracy_of(
      std::span<const std::uint32_t> voxels) const;

  /// Fraction of `truth` present in the top-|truth| ranked voxels — the
  /// recovery metric used to validate planted synthetic structure.
  [[nodiscard]] double recovery_rate(
      const std::vector<std::uint32_t>& truth) const;

 private:
  std::vector<double> scores_;
  std::vector<bool> seen_;
  std::size_t scored_ = 0;
};

/// Scores every voxel of the run's brain in tasks of run.voxels_per_task,
/// adding each task's result as it completes (run.group_voxels says how
/// the tasks share the pool).  Bit-identical for any task grain, group size
/// and pool.
[[nodiscard]] Scoreboard score_epoch_run(EpochRun& run,
                                         const PipelineConfig& config);

}  // namespace fcma::core
