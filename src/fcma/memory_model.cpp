#include "fcma/memory_model.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"

namespace fcma::core {

namespace {

std::size_t sat_add(std::size_t a, std::size_t b) {
  return a > SIZE_MAX - b ? SIZE_MAX : a + b;
}

std::size_t sat_mul(std::size_t a, std::size_t b) {
  return b != 0 && a > SIZE_MAX / b ? SIZE_MAX : a * b;
}

}  // namespace

std::size_t corr_bytes_per_voxel(std::size_t epochs,
                                 std::size_t brain_voxels) {
  return epochs * brain_voxels * sizeof(float);
}

std::size_t kernel_bytes_per_voxel(std::size_t epochs) {
  return epochs * epochs * sizeof(float);
}

std::size_t baseline_max_voxels(std::size_t epochs, std::size_t brain_voxels,
                                std::size_t available_bytes) {
  const std::size_t per_voxel = corr_bytes_per_voxel(epochs, brain_voxels);
  return per_voxel == 0 ? 0 : available_bytes / per_voxel;
}

std::size_t optimized_max_voxels(std::size_t epochs, std::size_t brain_voxels,
                                 std::size_t available_bytes,
                                 std::size_t group) {
  const std::size_t in_flight =
      group * corr_bytes_per_voxel(epochs, brain_voxels);
  if (in_flight >= available_bytes) return 0;
  const std::size_t per_voxel = kernel_bytes_per_voxel(epochs);
  return per_voxel == 0 ? 0 : (available_bytes - in_flight) / per_voxel;
}

ColumnSweep column_sweep(std::size_t task_voxels, std::size_t brain_voxels,
                         std::size_t group_voxels) {
  FCMA_CHECK(group_voxels > 0, "group size must be positive");
  FCMA_CHECK(brain_voxels > 0, "column sweep needs brain voxels");
  if (task_voxels <= group_voxels) return {task_voxels, brain_voxels};
  // Columns of one epoch row the in-flight correlation may hold.
  const std::size_t cap = sat_mul(group_voxels, brain_voxels);
  const std::size_t widest = cap / task_voxels / kSweepBlockCols *
                             kSweepBlockCols;
  if (widest > 0) return {task_voxels, std::min(widest, brain_voxels)};
  const std::size_t block = std::min(brain_voxels, kSweepBlockCols);
  return {cap / block, block};
}

BudgetPlan plan_residency(std::size_t total_epochs,
                          std::size_t epochs_per_subject,
                          std::size_t brain_voxels, std::size_t epoch_length,
                          std::size_t budget_bytes) {
  FCMA_CHECK(total_epochs > 0 && epochs_per_subject > 0 && brain_voxels > 0 &&
                 epoch_length > 0,
             "residency plan needs a non-empty dataset shape");
  FCMA_CHECK(budget_bytes > 0, "memory budget must be positive");

  const std::size_t panel_bytes =
      sat_mul(sat_mul(brain_voxels, epoch_length), sizeof(float));
  // A whole-panel lease of one subject run, +1 panel of lookahead.
  const std::size_t min_cache = sat_mul(epochs_per_subject + 1, panel_bytes);
  const std::size_t corr_voxel =
      sat_mul(sat_mul(total_epochs, brain_voxels), sizeof(float));
  const std::size_t kernel_voxel =
      sat_mul(sat_mul(total_epochs, total_epochs), sizeof(float));

  // Plan against 5/8 of the budget (split so no budget wraps); see the
  // header for what the remaining 3/8 of headroom absorbs.
  const std::size_t usable = budget_bytes / 8 * 5 + budget_bytes % 8 * 5 / 8;
  FCMA_CHECK(sat_add(sat_add(min_cache, corr_voxel), kernel_voxel) <= usable,
             "memory budget too small for one subject's panels plus a "
             "one-voxel working set");

  BudgetPlan plan;
  plan.budget_bytes = budget_bytes;
  plan.panel_cache_bytes = min_cache;
  // The rest is split evenly between in-flight correlation (group size)
  // and per-task kernel accumulation (task grain), the grain capped at
  // what one pass of kSweepBlockCols-wide blocks holds.
  const std::size_t rest = usable - min_cache;
  plan.group_voxels = std::max<std::size_t>(1, rest / 2 / corr_voxel);
  const std::size_t one_pass = sat_mul(plan.group_voxels, brain_voxels) /
                               std::min(brain_voxels, kSweepBlockCols);
  plan.voxels_per_task = std::max(
      plan.group_voxels,
      std::min(one_pass, std::max<std::size_t>(1, rest / 2 / kernel_voxel)));
  return plan;
}

}  // namespace fcma::core
