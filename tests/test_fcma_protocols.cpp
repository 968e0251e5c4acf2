// Tests for the scoreboard and the offline/online analysis protocols: the
// "science" layer that must recover planted connectivity and beat chance on
// held-out subjects.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <system_error>

#include "common/timeline.hpp"
#include "common/trace.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/offline.hpp"
#include "fcma/online.hpp"
#include "fcma/scoreboard.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"
#include "fold_loop_oracle.hpp"
#include "stats/normalization.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::core {
namespace {

fmri::Dataset protocol_dataset() {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 96;
  spec.informative = 16;
  spec.subjects = 4;
  spec.epochs_total = 48;  // 12 per subject
  return fmri::generate_synthetic(spec);
}

// Runs `fn` with a trace stream armed and returns the pipeline tasks it ran
// (the `pipeline/tasks` counter).
template <typename Fn>
std::int64_t count_tasks(const std::string& name, Fn&& fn) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  trace::global().reset();
  trace::Timeline::global().reset();
  trace::set_stream_dir(dir);
  trace::set_enabled(true);
  fn();
  const std::int64_t tasks = trace::global().counter("pipeline/tasks");
  trace::set_enabled(false);
  trace::Timeline::global().finalize_stream();
  trace::set_stream_dir("");
  trace::global().reset();
  trace::Timeline::global().reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return tasks;
}

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

TEST(Scoreboard, TracksCompletion) {
  Scoreboard board(10);
  EXPECT_FALSE(board.complete());
  TaskResult r;
  r.task = VoxelTask{0, 10};
  r.accuracy.assign(10, 0.5);
  board.add(r);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(board.scored(), 10u);
}

TEST(Scoreboard, RejectsDoubleScoring) {
  Scoreboard board(4);
  TaskResult r;
  r.task = VoxelTask{0, 2};
  r.accuracy = {0.5, 0.6};
  board.add(r);
  EXPECT_THROW(board.add(r), Error);
}

TEST(Scoreboard, RejectsOutOfRangeTask) {
  Scoreboard board(4);
  TaskResult r;
  r.task = VoxelTask{2, 5};
  r.accuracy.assign(5, 0.5);
  EXPECT_THROW(board.add(r), Error);
}

TEST(Scoreboard, RankedSortsByAccuracyThenVoxel) {
  Scoreboard board(4);
  TaskResult r;
  r.task = VoxelTask{0, 4};
  r.accuracy = {0.7, 0.9, 0.7, 0.5};
  board.add(r);
  const auto ranked = board.ranked();
  EXPECT_EQ(ranked[0].voxel, 1u);
  EXPECT_EQ(ranked[1].voxel, 0u);  // tie broken by lower id
  EXPECT_EQ(ranked[2].voxel, 2u);
  EXPECT_EQ(ranked[3].voxel, 3u);
}

TEST(Scoreboard, TopVoxelsSortedAscending) {
  Scoreboard board(5);
  TaskResult r;
  r.task = VoxelTask{0, 5};
  r.accuracy = {0.1, 0.9, 0.3, 0.8, 0.2};
  board.add(r);
  EXPECT_EQ(board.top_voxels(2), (std::vector<std::uint32_t>{1, 3}));
}

TEST(Scoreboard, RecoveryRateCountsOverlap) {
  Scoreboard board(6);
  TaskResult r;
  r.task = VoxelTask{0, 6};
  r.accuracy = {0.9, 0.8, 0.1, 0.2, 0.7, 0.1};
  board.add(r);
  // top-3 = {0, 1, 4}; truth {0, 4, 5} -> 2/3 recovered.
  EXPECT_NEAR(board.recovery_rate({0, 4, 5}), 2.0 / 3.0, 1e-12);
}

TEST(Scoreboard, MeanAccuracyOfSumsInGivenOrder) {
  Scoreboard board(4);
  TaskResult r;
  r.task = VoxelTask{0, 4};
  r.accuracy = {0.1, 0.2, 0.7, 0.3};
  board.add(r);
  const std::vector<std::uint32_t> picked{0, 1, 3};
  EXPECT_EQ(board.mean_accuracy_of(picked), (0.1 + 0.2 + 0.3) / 3.0);
  EXPECT_EQ(board.mean_accuracy_of({}), 0.0);
  EXPECT_THROW((void)board.mean_accuracy_of(std::vector<std::uint32_t>{4}),
               Error);
}

// ---------------------------------------------------------------------------
// open_epoch_run: one way to open a run's epochs and size its tasks
// ---------------------------------------------------------------------------

TEST(EpochRun, ResidentRunsTakeTheRequestedGrain) {
  const fmri::Dataset d = protocol_dataset();
  const fmri::InMemoryView view(d);
  const EpochRun whole = open_epoch_run(view, 0);
  EXPECT_NE(dynamic_cast<ResidentEpochs*>(whole.epochs.get()), nullptr);
  EXPECT_EQ(whole.epochs->meta().size(), d.epochs().size());
  // A run that would be one task sweeps under the in-flight constant, the
  // pool inside; a smaller grain is kept and spread over the pool.
  EXPECT_EQ(whole.voxels_per_task, d.voxels());
  EXPECT_EQ(whole.group_voxels, kInFlightVoxels);
  EXPECT_EQ(open_epoch_run(view, 0, 2 * d.voxels()).group_voxels,
            kInFlightVoxels);
  const EpochRun split = open_epoch_run(view, view.epochs_of_subject(1), 0, 17);
  EXPECT_EQ(split.voxels_per_task, 17u);
  EXPECT_EQ(split.group_voxels, 0u);
  EXPECT_EQ(split.epochs->meta().size(), d.epochs_per_subject());
  EXPECT_EQ(split.epochs->meta().front().subject, 1);
}

TEST(EpochRun, ClusterLanesSplitTheInFlightShare) {
  const fmri::Dataset d = protocol_dataset();
  const fmri::InMemoryView view(d);
  // Resident: each of three lanes holds at most 64 / 3 voxels whole.
  const EpochRun resident = open_epoch_run(view, 0, 0, 3);
  EXPECT_EQ(resident.voxels_per_task, kInFlightVoxels / 3);
  EXPECT_EQ(resident.group_voxels, kInFlightVoxels / 3);
  EXPECT_EQ(open_epoch_run(view, 0, 40, 3).voxels_per_task,
            kInFlightVoxels / 3);
  EXPECT_EQ(open_epoch_run(view, 0, 5, 3).voxels_per_task, 5u);
  EXPECT_EQ(open_epoch_run(view, 0, 0, 1).voxels_per_task, kInFlightVoxels);
  EXPECT_EQ(open_epoch_run(view, 0, 0, 1000).voxels_per_task, 1u);
  // Budgeted: each lane is planned over budget / lanes, and a task is no
  // wider than that plan's in-flight correlation.
  const std::size_t budget = 768u << 10;
  const BudgetPlan lane = plan_residency(d.epochs().size(),
                                         d.epochs_per_subject(), d.voxels(),
                                         d.epochs().front().length,
                                         budget / 3);
  const EpochRun budgeted = open_epoch_run(view, budget, 0, 3);
  EXPECT_NE(dynamic_cast<StreamedEpochs*>(budgeted.epochs.get()), nullptr);
  EXPECT_EQ(budgeted.group_voxels, lane.group_voxels);
  EXPECT_EQ(budgeted.voxels_per_task, lane.group_voxels);
  // One lane of a whole budget.
  const BudgetPlan whole = plan_residency(d.epochs().size(),
                                          d.epochs_per_subject(), d.voxels(),
                                          d.epochs().front().length, budget);
  EXPECT_EQ(open_epoch_run(view, budget, 0, 1).voxels_per_task,
            whole.group_voxels);
  // A lane's share of an impossible budget fails as the whole would.
  EXPECT_THROW((void)open_epoch_run(view, 256u << 10, 0, 64), Error);
}

TEST(EpochRun, BudgetCapsTheTaskGrainAtThePlan) {
  const fmri::Dataset d = protocol_dataset();
  const fmri::InMemoryView view(d);
  const std::size_t budget = 256u << 10;
  const BudgetPlan plan = plan_residency(d.epochs().size(),
                                         d.epochs_per_subject(), d.voxels(),
                                         d.epochs().front().length, budget);
  ASSERT_GT(plan.voxels_per_task, 1u);
  const EpochRun planned = open_epoch_run(view, budget);
  EXPECT_NE(dynamic_cast<StreamedEpochs*>(planned.epochs.get()), nullptr);
  EXPECT_EQ(planned.voxels_per_task, plan.voxels_per_task);
  EXPECT_EQ(planned.group_voxels, plan.group_voxels);
  // Larger requests are capped; smaller ones are kept.
  EXPECT_EQ(open_epoch_run(view, budget, d.voxels()).voxels_per_task,
            plan.voxels_per_task);
  EXPECT_EQ(open_epoch_run(view, budget, 1).voxels_per_task, 1u);
  EXPECT_THROW((void)open_epoch_run(view, 1u << 10), Error);
  EXPECT_THROW((void)open_epoch_run(view, std::vector<std::size_t>{}, budget),
               Error);
}

TEST(KfoldGroups, InterleavesSamples) {
  const auto folds = kfold_groups(10, 3);
  ASSERT_EQ(folds.size(), 3u);
  EXPECT_EQ(folds[0], (std::vector<std::size_t>{0, 3, 6, 9}));
  EXPECT_EQ(folds[1], (std::vector<std::size_t>{1, 4, 7}));
  EXPECT_EQ(folds[2], (std::vector<std::size_t>{2, 5, 8}));
}

TEST(KfoldGroups, RejectsBadFoldCounts) {
  EXPECT_THROW(kfold_groups(4, 1), Error);
  EXPECT_THROW(kfold_groups(4, 5), Error);
}

// ---------------------------------------------------------------------------
// Offline protocol
// ---------------------------------------------------------------------------

TEST(Offline, RecoversPlantedVoxelsAndBeatsChance) {
  const fmri::Dataset d = protocol_dataset();
  OfflineOptions opts;
  opts.top_k = 16;
  const OfflineResult result = run_offline_analysis(d, opts);
  ASSERT_EQ(result.folds.size(), static_cast<std::size_t>(d.subjects()));

  // Selection quality: most selected voxels should be planted informative.
  const std::set<std::uint32_t> truth(d.informative_voxels().begin(),
                                      d.informative_voxels().end());
  double hit_rate_sum = 0.0;
  for (const FoldResult& f : result.folds) {
    std::size_t hits = 0;
    for (const std::uint32_t v : f.selected) hits += truth.count(v);
    hit_rate_sum +=
        static_cast<double>(hits) / static_cast<double>(f.selected.size());
    EXPECT_GT(f.mean_selected_cv_accuracy, 0.7);
  }
  EXPECT_GT(hit_rate_sum / static_cast<double>(result.folds.size()), 0.7);

  // Generalization: the final classifier must beat chance on held-out
  // subjects (the paper "reproduced the results of [30] and [16]").
  EXPECT_GT(result.mean_test_accuracy(), 0.7);
}

TEST(Offline, ReliableVoxelsIntersectFolds) {
  const fmri::Dataset d = protocol_dataset();
  OfflineOptions opts;
  opts.top_k = 16;
  const OfflineResult result = run_offline_analysis(d, opts);
  const auto reliable =
      result.reliable_voxels(result.folds.size(), d.voxels());
  // Every always-selected voxel must appear in each fold's selection.
  for (const std::uint32_t v : reliable) {
    for (const FoldResult& f : result.folds) {
      EXPECT_TRUE(std::find(f.selected.begin(), f.selected.end(), v) !=
                  f.selected.end());
    }
  }
  // And with planted structure there should be a non-trivial stable core.
  EXPECT_GE(reliable.size(), 4u);
}

TEST(Offline, TaskPartitioningDoesNotChangeSelection) {
  const fmri::Dataset d = protocol_dataset();
  OfflineOptions one_task;
  one_task.top_k = 8;
  OfflineOptions many_tasks;
  many_tasks.top_k = 8;
  many_tasks.voxels_per_task = 17;  // uneven split
  const OfflineResult a = run_offline_analysis(d, one_task);
  const OfflineResult b = run_offline_analysis(d, many_tasks);
  ASSERT_EQ(a.folds.size(), b.folds.size());
  for (std::size_t f = 0; f < a.folds.size(); ++f) {
    EXPECT_EQ(a.folds[f].selected, b.folds[f].selected);
  }
}

TEST(Offline, PooledTasksBitIdenticalToSerial) {
  // Task-parallel execution must be invisible in the result: each task is
  // computed serially on one worker and the merge is in task order, so the
  // OfflineResult has to match the single-thread run bit for bit.
  const fmri::Dataset d = protocol_dataset();
  OfflineOptions serial;
  serial.top_k = 8;
  serial.voxels_per_task = 24;
  OfflineOptions pooled = serial;
  threading::ThreadPool pool(4);
  pooled.pipeline.pool = &pool;
  const OfflineResult a = run_offline_analysis(d, serial);
  const OfflineResult b = run_offline_analysis(d, pooled);
  ASSERT_EQ(a.folds.size(), b.folds.size());
  for (std::size_t f = 0; f < a.folds.size(); ++f) {
    EXPECT_EQ(a.folds[f].left_out_subject, b.folds[f].left_out_subject);
    EXPECT_EQ(a.folds[f].selected, b.folds[f].selected);
    EXPECT_EQ(a.folds[f].mean_selected_cv_accuracy,
              b.folds[f].mean_selected_cv_accuracy);
    EXPECT_EQ(a.folds[f].test_accuracy, b.folds[f].test_accuracy);
  }
}

TEST(Offline, BudgetedRunMatchesResidentInPlanSizedTasks) {
  // Under a budget, tasks are capped at the plan's grain even when a larger
  // one is asked for, run one at a time with the pool inside each, and the
  // result is the resident run's bit for bit.
  const fmri::Dataset d = protocol_dataset();
  OfflineOptions resident;
  resident.top_k = 8;
  resident.voxels_per_task = 64;
  OfflineOptions budgeted = resident;
  budgeted.memory_budget_bytes = 256u << 10;
  threading::ThreadPool pool(2);
  budgeted.pipeline.pool = &pool;
  const OfflineResult want = run_offline_analysis(d, resident);
  OfflineResult got;
  const std::int64_t tasks = count_tasks("fcma_offline_budget", [&] {
    got = run_offline_analysis(d, budgeted);
  });

  // Each fold plans for its training epochs: every subject but one.
  const std::size_t folds = static_cast<std::size_t>(d.subjects());
  const BudgetPlan plan = plan_residency(
      d.epochs().size() - d.epochs_per_subject(), d.epochs_per_subject(),
      d.voxels(), d.epochs().front().length, budgeted.memory_budget_bytes);
  ASSERT_LT(plan.voxels_per_task, budgeted.voxels_per_task);
  EXPECT_EQ(static_cast<std::size_t>(tasks),
            folds * ceil_div(d.voxels(), plan.voxels_per_task));
  ASSERT_EQ(got.folds.size(), want.folds.size());
  for (std::size_t f = 0; f < want.folds.size(); ++f) {
    EXPECT_EQ(got.folds[f].left_out_subject, want.folds[f].left_out_subject);
    EXPECT_EQ(got.folds[f].selected, want.folds[f].selected);
    EXPECT_EQ(got.folds[f].mean_selected_cv_accuracy,
              want.folds[f].mean_selected_cv_accuracy);
    EXPECT_EQ(got.folds[f].test_accuracy, want.folds[f].test_accuracy);
  }
}

TEST(Offline, FinalClassifierMatchesTheFoldLoop) {
  // One cross_validate fold over one Gram matrix scores each held-out
  // subject exactly as the per-fold loop did.
  const fmri::Dataset d = protocol_dataset();
  OfflineOptions opts;
  opts.top_k = 8;
  opts.voxels_per_task = 32;
  const OfflineResult result = run_offline_analysis(d, opts);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::vector<fmri::Epoch>& meta = d.epochs();
  for (const FoldResult& fr : result.folds) {
    linalg::Matrix features = selected_correlation_features(ne, fr.selected);
    for (std::size_t first = 0, e = 1; e <= meta.size(); ++e) {
      if (e == meta.size() || meta[e].subject != meta[first].subject) {
        stats::fisher_zscore_block(features.row(first), e - first,
                                   features.cols(), features.ld());
        first = e;
      }
    }
    std::vector<std::size_t> test;
    for (std::size_t e = 0; e < meta.size(); ++e) {
      if (meta[e].subject == fr.left_out_subject) test.push_back(e);
    }
    EXPECT_EQ(fr.test_accuracy,
              oracle::fold_loop_accuracy(
                  features, meta, oracle::train_indices(meta.size(), test),
                  test, opts.pipeline.svm_options));
  }
}

TEST(SelectedFeatures, UpperTriangleDimensions) {
  const fmri::Dataset d = protocol_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::vector<std::uint32_t> sel{1, 5, 9, 20};
  const linalg::Matrix f = selected_correlation_features(ne, sel);
  EXPECT_EQ(f.rows(), ne.per_epoch.size());
  EXPECT_EQ(f.cols(), 6u);  // C(4,2)
}

TEST(SelectedFeatures, ValuesAreCorrelations) {
  const fmri::Dataset d = protocol_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::vector<std::uint32_t> sel{3, 7};
  const linalg::Matrix f = selected_correlation_features(ne, sel);
  for (std::size_t e = 0; e < f.rows(); ++e) {
    EXPECT_GE(f(e, 0), -1.01f);
    EXPECT_LE(f(e, 0), 1.01f);
  }
}

// ---------------------------------------------------------------------------
// Online protocol
// ---------------------------------------------------------------------------

TEST(Online, SelectsInformativeVoxelsForOneSubject) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 96;
  spec.informative = 16;
  spec.subjects = 2;
  spec.epochs_total = 96;  // 48 epochs for the scanned subject: online
                           // selection sees far fewer samples than the
                           // offline protocol, so give it a full session
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  OnlineOptions opts;
  opts.top_k = 16;
  opts.k_folds = 4;
  const OnlineResult r = run_online_selection(d, 0, opts);
  ASSERT_EQ(r.selected.size(), 16u);
  const std::set<std::uint32_t> truth(d.informative_voxels().begin(),
                                      d.informative_voxels().end());
  std::size_t hits = 0;
  for (const std::uint32_t v : r.selected) hits += truth.count(v);
  EXPECT_GT(static_cast<double>(hits) / 16.0, 0.6);
  EXPECT_GT(r.mean_selected_cv_accuracy, 0.7);
  EXPECT_GT(r.classifier_cv_accuracy, 0.6);
}

TEST(Online, BudgetedRunMatchesResidentInPlanSizedTasks) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.subjects = 2;
  spec.epochs_total = 96;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  OnlineOptions resident;
  resident.top_k = 8;
  resident.voxels_per_task = 64;
  OnlineOptions budgeted = resident;
  budgeted.memory_budget_bytes = 512u << 10;
  threading::ThreadPool pool(2);
  budgeted.pipeline.pool = &pool;
  const OnlineResult want = run_online_selection(d, 1, resident);
  OnlineResult got;
  const std::int64_t tasks = count_tasks("fcma_online_budget", [&] {
    got = run_online_selection(d, 1, budgeted);
  });

  // The plan sees one subject's epochs.
  const BudgetPlan plan = plan_residency(
      d.epochs_per_subject(), d.epochs_per_subject(), d.voxels(),
      d.epochs().front().length, budgeted.memory_budget_bytes);
  ASSERT_LT(plan.voxels_per_task, budgeted.voxels_per_task);
  EXPECT_EQ(static_cast<std::size_t>(tasks),
            ceil_div(d.voxels(), plan.voxels_per_task));
  EXPECT_EQ(got.selected, want.selected);
  EXPECT_EQ(got.mean_selected_cv_accuracy, want.mean_selected_cv_accuracy);
  EXPECT_EQ(got.classifier_cv_accuracy, want.classifier_cv_accuracy);
}

TEST(Online, ClassifierCvMatchesTheFoldLoop) {
  // A weaker signal and four voxels score 37 of 48 epochs: not a multiple
  // of 4, so a fold scored differently, or skipped, moves the estimate.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.subjects = 2;
  spec.epochs_total = 96;
  spec.signal = 0.7;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  OnlineOptions opts;
  opts.top_k = 4;
  opts.k_folds = 4;
  const OnlineResult r = run_online_selection(d, 1, opts);
  ASSERT_EQ(r.classifier_cv_accuracy, 37.0 / 48.0);

  const fmri::InMemoryView view(d);
  const fmri::NormalizedEpochs ne =
      fmri::normalize_epochs(view, view.epochs_of_subject(1));
  linalg::Matrix features = selected_correlation_features(ne, r.selected);
  stats::fisher_zscore_block(features.row(0), features.rows(),
                             features.cols(), features.ld());
  std::size_t correct = 0;
  std::size_t total = 0;
  for (const auto& test : kfold_groups(features.rows(), opts.k_folds)) {
    const double acc = oracle::fold_loop_accuracy(
        features, ne.meta, oracle::train_indices(features.rows(), test), test,
        opts.pipeline.svm_options);
    correct += static_cast<std::size_t>(
        std::llround(acc * static_cast<double>(test.size())));
    total += test.size();
  }
  EXPECT_EQ(r.classifier_cv_accuracy,
            static_cast<double>(correct) / static_cast<double>(total));
}

TEST(Online, RejectsBadSubject) {
  const fmri::Dataset d = protocol_dataset();
  OnlineOptions opts;
  EXPECT_THROW(run_online_selection(d, -1, opts), Error);
  EXPECT_THROW(run_online_selection(d, d.subjects(), opts), Error);
}

TEST(Online, UsesOnlyTheScannedSubjectsData) {
  // Corrupting other subjects' data must not change the selection.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 64;
  spec.informative = 12;
  const fmri::Dataset clean = fmri::generate_synthetic(spec);
  fmri::Dataset dirty = fmri::generate_synthetic(spec);
  for (const fmri::Epoch& e : dirty.epochs()) {
    if (e.subject == 0) continue;
    for (std::size_t v = 0; v < dirty.voxels(); ++v) {
      for (std::uint32_t t = 0; t < e.length; ++t) {
        dirty.data()(v, e.start + t) = -999.0f;
      }
    }
  }
  OnlineOptions opts;
  opts.top_k = 8;
  const OnlineResult a = run_online_selection(clean, 0, opts);
  const OnlineResult b = run_online_selection(dirty, 0, opts);
  EXPECT_EQ(a.selected, b.selected);
}

}  // namespace
}  // namespace fcma::core
