#include "fcma/scoreboard.hpp"

#include <algorithm>
#include <unordered_set>

namespace fcma::core {

Scoreboard::Scoreboard(std::size_t total_voxels)
    : scores_(total_voxels, 0.0), seen_(total_voxels, false) {}

void Scoreboard::add(const TaskResult& result) {
  // size_t arithmetic: a uint32 first + count near 2^32 must not wrap.
  FCMA_CHECK(std::size_t{result.task.first} + result.task.count <=
                 scores_.size(),
             "task exceeds scoreboard range");
  FCMA_CHECK(result.accuracy.size() == result.task.count,
             "task result size mismatch");
  for (std::size_t i = 0; i < result.task.count; ++i) {
    const std::size_t v = result.task.first + i;
    FCMA_CHECK(!seen_[v], "voxel scored twice");
    seen_[v] = true;
    scores_[v] = result.accuracy[i];
    ++scored_;
  }
}

std::size_t Scoreboard::add_idempotent(const TaskResult& result) {
  FCMA_CHECK(std::size_t{result.task.first} + result.task.count <=
                 scores_.size(),
             "task exceeds scoreboard range");
  FCMA_CHECK(result.accuracy.size() == result.task.count,
             "task result size mismatch");
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < result.task.count; ++i) {
    const std::size_t v = result.task.first + i;
    if (seen_[v]) {
      FCMA_CHECK(scores_[v] == result.accuracy[i],
                 "duplicate voxel score disagrees with recorded value");
      continue;
    }
    seen_[v] = true;
    scores_[v] = result.accuracy[i];
    ++scored_;
    ++fresh;
  }
  return fresh;
}

std::vector<VoxelScore> Scoreboard::ranked() const {
  std::vector<VoxelScore> out(scores_.size());
  for (std::size_t v = 0; v < scores_.size(); ++v) {
    out[v] = VoxelScore{static_cast<std::uint32_t>(v), scores_[v]};
  }
  std::sort(out.begin(), out.end(),
            [](const VoxelScore& a, const VoxelScore& b) {
              if (a.accuracy != b.accuracy) return a.accuracy > b.accuracy;
              return a.voxel < b.voxel;
            });
  return out;
}

std::vector<std::uint32_t> Scoreboard::top_voxels(std::size_t k) const {
  const auto r = ranked();
  k = std::min(k, r.size());
  std::vector<std::uint32_t> out(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = r[i].voxel;
  std::sort(out.begin(), out.end());
  return out;
}

double Scoreboard::accuracy_of(std::uint32_t voxel) const {
  FCMA_CHECK(voxel < scores_.size(), "voxel out of range");
  return scores_[voxel];
}

double Scoreboard::mean_accuracy_of(
    std::span<const std::uint32_t> voxels) const {
  if (voxels.empty()) return 0.0;
  double sum = 0.0;
  for (const std::uint32_t v : voxels) sum += accuracy_of(v);
  return sum / static_cast<double>(voxels.size());
}

double Scoreboard::recovery_rate(
    const std::vector<std::uint32_t>& truth) const {
  if (truth.empty()) return 0.0;
  const auto top = top_voxels(truth.size());
  const std::unordered_set<std::uint32_t> truth_set(truth.begin(),
                                                    truth.end());
  std::size_t hits = 0;
  for (const std::uint32_t v : top) hits += truth_set.count(v);
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

Scoreboard score_epoch_run(EpochRun& run, const PipelineConfig& config) {
  Scoreboard board(run.epochs->voxels());
  const std::vector<VoxelTask> tasks =
      partition_voxels(run.epochs->voxels(), run.voxels_per_task);
  if (run.group_voxels == 0) {
    for (const TaskResult& tr : run_tasks(*run.epochs, tasks, config)) {
      board.add(tr);
    }
    return board;
  }
  // One task at a time with the pool inside it, so a single
  // group_voxels-capped correlation block is in flight: the accounting a
  // budget plan assumes.  Each result is folded in as it completes:
  // holding every task's result until the end fragments the heap and
  // raises the peak RSS of a budgeted run (EXPERIMENTS.md).
  for (const VoxelTask& task : tasks) {
    board.add(run_task_grouped(*run.epochs, task, config, run.group_voxels));
  }
  return board;
}

}  // namespace fcma::core
