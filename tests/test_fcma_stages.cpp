// Tests for the FCMA pipeline stages: correlation buffer layout, equality of
// the baseline and optimized stage-1/2 implementations, merged-vs-separated
// equivalence (the Table 7 correctness precondition), the per-voxel SVM
// stage, the memory model's paper regimes, and the instrumented pipeline's
// event orderings.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/timeline.hpp"
#include "common/tlstream.hpp"
#include "common/trace.hpp"
#include "fcma/corr_norm.hpp"
#include "fcma/memory_model.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/task.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"
#include "stats/stats.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::core {
namespace {

fmri::Dataset small_dataset() {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 128;
  spec.informative = 24;
  return fmri::generate_synthetic(spec);
}

// Large enough that one task's correlation buffer exceeds the simulated
// Phi L2 (512KB) — the regime where the paper's cache effects live.
fmri::Dataset cache_pressure_dataset() {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 2048;
  spec.informative = 64;
  return fmri::generate_synthetic(spec);
}

float max_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
    }
  }
  return worst;
}

TEST(Partition, SplitsVoxelsEvenly) {
  const auto tasks = partition_voxels(100, 30);
  ASSERT_EQ(tasks.size(), 4u);
  EXPECT_EQ(tasks[0].first, 0u);
  EXPECT_EQ(tasks[0].count, 30u);
  EXPECT_EQ(tasks[3].first, 90u);
  EXPECT_EQ(tasks[3].count, 10u);
}

TEST(Partition, CoversEveryVoxelExactlyOnce) {
  const auto tasks = partition_voxels(77, 13);
  std::vector<int> hits(77, 0);
  for (const auto& t : tasks) {
    for (std::uint32_t v = t.first; v < t.first + t.count; ++v) ++hits[v];
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Partition, ZeroPerTaskThrows) {
  EXPECT_THROW(partition_voxels(10, 0), Error);
}

TEST(Partition, RejectsVoxelCountsBeyondThe32BitTaskRange) {
  // Regression: the old code cast total_voxels straight into the uint32_t
  // VoxelTask fields, silently wrapping for brains (or stress configs)
  // beyond 2^32 voxels.  The guard must throw instead of truncating.
  if constexpr (sizeof(std::size_t) > 4) {
    const std::size_t beyond =
        static_cast<std::size_t>(UINT32_MAX) + std::size_t{7};
    EXPECT_THROW(partition_voxels(beyond, 1u << 20), Error);
  }
}

// ---------------------------------------------------------------------------
// Stage 1/2: layout and cross-implementation equality
// ---------------------------------------------------------------------------

TEST(CorrStage, BufferRowsHoldPearsonCorrelations) {
  // Spot-check the un-normalized correlation values against stats::pearson
  // by re-deriving them from the Fisher/z-scored buffer is hard; instead
  // run stage 1 only (via the optimized separated path before
  // normalization is applied: use baseline gemm directly on a single
  // epoch).  Here we verify through the public API: compute the buffer,
  // then check voxel grouping/interleaving by comparing two tasks.
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();

  // Full-brain task vs a 1-voxel task at voxel 5: rows must match.
  const VoxelTask all{0, 16};
  const VoxelTask one{5, 1};
  linalg::Matrix buf_all = make_corr_buffer(all, m, d.voxels());
  linalg::Matrix buf_one = make_corr_buffer(one, m, d.voxels());
  optimized_correlate_normalize(ne, all, buf_all.view(), NormMode::kMerged);
  optimized_correlate_normalize(ne, one, buf_one.view(), NormMode::kMerged);
  for (std::size_t e = 0; e < m; ++e) {
    for (std::size_t j = 0; j < d.voxels(); ++j) {
      EXPECT_EQ(buf_one(e, j), buf_all(5 * m + e, j));
    }
  }
}

TEST(CorrStage, BaselineAndOptimizedAgree) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();
  const VoxelTask task{8, 12};
  linalg::Matrix base = make_corr_buffer(task, m, d.voxels());
  linalg::Matrix opt = make_corr_buffer(task, m, d.voxels());
  baseline_correlate_normalize(ne, task, base.view());
  optimized_correlate_normalize(ne, task, opt.view(), NormMode::kSeparated);
  EXPECT_LE(max_diff(base, opt), 2e-3f);
}

TEST(CorrStage, MergedAndSeparatedAgree) {
  // The Table 7 precondition: fusing stage 2 into stage 1 must not change
  // results.
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();
  const VoxelTask task{0, 16};
  linalg::Matrix merged = make_corr_buffer(task, m, d.voxels());
  linalg::Matrix separated = make_corr_buffer(task, m, d.voxels());
  optimized_correlate_normalize(ne, task, merged.view(), NormMode::kMerged);
  optimized_correlate_normalize(ne, task, separated.view(),
                                NormMode::kSeparated);
  EXPECT_LE(max_diff(merged, separated), 2e-3f);
}

TEST(CorrStage, PooledMergedSweepKeepsStageSpansValid) {
  // The pooled sweep still records task/correlation and task/normalization
  // on the calling thread, one pair per subject run.  Worker seconds add
  // up past the wall, so the normalization share is scaled to it: each
  // pair is laid back to back inside its run, correlation first, so
  // neither goes negative and together they never exceed the fused call's
  // wall time.
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 1100;
  const fmri::Dataset d = fmri::generate_synthetic(spec);
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();
  const VoxelTask task{0, 24};
  linalg::Matrix buf = make_corr_buffer(task, m, d.voxels());
  ResidentEpochs source(ne);
  threading::ThreadPool pool(3);

  const std::string dir = ::testing::TempDir() + "fcma_corr_stage_spans";
  std::filesystem::remove_all(dir);
  trace::global().reset();
  trace::Timeline::global().reset();
  trace::set_stream_dir(dir);
  trace::set_enabled(true);
  const std::uint64_t start = trace::now_ns();
  {
    const trace::Span task_span("task");
    optimized_correlate_normalize(source, task, buf.view(), NormMode::kMerged,
                                  &pool);
  }
  const std::uint64_t end = trace::now_ns();
  trace::set_enabled(false);
  trace::Timeline::global().finalize_stream();
  const trace::tlstream::StreamRead read =
      trace::tlstream::read_stream_dir(dir);
  trace::set_stream_dir("");
  trace::global().reset();
  trace::Timeline::global().reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  std::vector<trace::tlstream::StreamEvent> corr;
  std::vector<trace::tlstream::StreamEvent> norm;
  for (const auto& ev : read.events) {
    if (ev.label == "task/correlation") corr.push_back(ev);
    if (ev.label == "task/normalization") norm.push_back(ev);
  }
  const auto runs = static_cast<std::size_t>(d.subjects());
  ASSERT_EQ(corr.size(), runs);
  ASSERT_EQ(norm.size(), runs);
  std::uint64_t covered = 0;
  std::uint64_t previous_end = start;
  for (std::size_t r = 0; r < runs; ++r) {
    EXPECT_GE(corr[r].start_ns, previous_end);
    EXPECT_LE(corr[r].start_ns, corr[r].end_ns);
    EXPECT_EQ(corr[r].end_ns, norm[r].start_ns);  // back to back
    EXPECT_LE(norm[r].start_ns, norm[r].end_ns);
    previous_end = norm[r].end_ns;
    covered += norm[r].end_ns - corr[r].start_ns;
  }
  EXPECT_LE(previous_end, end);
  EXPECT_LE(covered, end - start);
}

TEST(CorrStage, InstrumentedTwinsMatchFastPaths) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();
  const VoxelTask task{4, 6};
  linalg::Matrix fast = make_corr_buffer(task, m, d.voxels());
  linalg::Matrix slow = make_corr_buffer(task, m, d.voxels());

  optimized_correlate_normalize(ne, task, fast.view(), NormMode::kMerged);
  memsim::Instrument ins;
  optimized_correlate_normalize_instrumented(ne, task, slow.view(),
                                             NormMode::kMerged, ins);
  EXPECT_LE(max_diff(fast, slow), 2e-3f);

  baseline_correlate_normalize(ne, task, fast.view());
  memsim::Instrument ins2;
  baseline_correlate_normalize_instrumented(ne, task, slow.view(), ins2);
  EXPECT_LE(max_diff(fast, slow), 2e-3f);
}

TEST(CorrStage, NormalizationPopulationIsPerSubjectColumn) {
  // After stage 2, for any (voxel, column), the values across one subject's
  // epochs must be z-scored: zero mean, unit variance.
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();
  const std::size_t eps = d.epochs_per_subject();
  const VoxelTask task{0, 4};
  linalg::Matrix buf = make_corr_buffer(task, m, d.voxels());
  optimized_correlate_normalize(ne, task, buf.view(), NormMode::kMerged);
  for (std::size_t v = 0; v < task.count; ++v) {
    for (std::int32_t s = 0; s < d.subjects(); ++s) {
      for (std::size_t j = 10; j < 13; ++j) {  // spot-check columns
        double sum = 0.0;
        double sq = 0.0;
        for (std::size_t e = 0; e < eps; ++e) {
          const float z = buf(v * m + s * eps + e, j);
          sum += z;
          sq += static_cast<double>(z) * z;
        }
        EXPECT_NEAR(sum / eps, 0.0, 1e-3);
        EXPECT_NEAR(sq / eps, 1.0, 1e-2);
      }
    }
  }
}

TEST(CorrStage, MergedSavesL2MissesUnderCachePressure) {
  // The Table 7 effect: once the correlation buffer exceeds L2, the
  // separated variant's write-out/read-back round trip turns into extra
  // L2 misses that the merged variant avoids.  (Both variants issue the
  // same load/store instructions in our kernels, so refs are ~equal; the
  // paper's ref gap came from its separated code path's extra data
  // reorganization — see EXPERIMENTS.md.)
  const fmri::Dataset d = cache_pressure_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();
  const VoxelTask task{0, 16};
  linalg::Matrix buf = make_corr_buffer(task, m, d.voxels());
  memsim::Instrument merged_ins;
  optimized_correlate_normalize_instrumented(ne, task, buf.view(),
                                             NormMode::kMerged, merged_ins);
  memsim::Instrument sep_ins;
  optimized_correlate_normalize_instrumented(ne, task, buf.view(),
                                             NormMode::kSeparated, sep_ins);
  EXPECT_LE(merged_ins.events().mem_refs, sep_ins.events().mem_refs);
  EXPECT_LT(static_cast<double>(merged_ins.events().l2_misses),
            0.8 * static_cast<double>(sep_ins.events().l2_misses));
}

// ---------------------------------------------------------------------------
// Stage 3
// ---------------------------------------------------------------------------

TEST(SvmStage, KernelMatrixIsGramOfCorrRows) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();
  const VoxelTask task{2, 3};
  linalg::Matrix buf = make_corr_buffer(task, m, d.voxels());
  optimized_correlate_normalize(ne, task, buf.view(), NormMode::kMerged);
  linalg::Matrix k(m, m);
  compute_voxel_kernel(buf.view(), m, 1, Impl::kOptimized, k.view());
  // Check one entry against a direct dot product of the voxel's rows.
  const float* r0 = buf.row(1 * m + 0);
  const float* r3 = buf.row(1 * m + 3);
  double dot = 0.0;
  for (std::size_t j = 0; j < d.voxels(); ++j) {
    dot += static_cast<double>(r0[j]) * r3[j];
  }
  EXPECT_NEAR(k(0, 3), dot, 1e-2 * (1.0 + std::abs(dot)));
  EXPECT_EQ(k(0, 3), k(3, 0));
}

TEST(SvmStage, BaselineAndOptimizedKernelsAgree) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();
  const VoxelTask task{0, 2};
  linalg::Matrix buf = make_corr_buffer(task, m, d.voxels());
  optimized_correlate_normalize(ne, task, buf.view(), NormMode::kMerged);
  linalg::Matrix kb(m, m);
  linalg::Matrix ko(m, m);
  compute_voxel_kernel(buf.view(), m, 0, Impl::kBaseline, kb.view());
  compute_voxel_kernel(buf.view(), m, 0, Impl::kOptimized, ko.view());
  EXPECT_LE(max_diff(kb, ko), 1e-2f);
}

TEST(SvmStage, PlannedGeometryMatchesDefaultAndOthersThrow) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const std::size_t m = ne.per_epoch.size();
  const VoxelTask task{0, 2};
  linalg::Matrix buf = make_corr_buffer(task, m, d.voxels());
  optimized_correlate_normalize(ne, task, buf.view(), NormMode::kMerged);
  const linalg::tune::SyrkGeometry geo = linalg::tune::syrk_plan(m, d.voxels());
  linalg::Matrix planned(m, m);
  linalg::Matrix plain(m, m);
  compute_voxel_kernel(buf.view(), m, 1, Impl::kOptimized, planned.view(),
                       &geo);
  compute_voxel_kernel(buf.view(), m, 1, Impl::kOptimized, plain.view());
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) EXPECT_EQ(planned(i, j), plain(i, j));
  }
  const linalg::tune::SyrkGeometry other{48, 6};
  EXPECT_THROW(compute_voxel_kernel(buf.view(), m, 1, Impl::kOptimized,
                                    planned.view(), &other),
               Error);
}

TEST(SvmStage, InformativeVoxelsScoreAboveNoise) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const VoxelTask task{0, static_cast<std::uint32_t>(d.voxels())};
  const TaskResult r = run_task(ne, task, PipelineConfig::optimized());
  const auto& inf = d.informative_voxels();
  std::set<std::uint32_t> inf_set(inf.begin(), inf.end());
  double inf_mean = 0.0;
  double noise_mean = 0.0;
  std::size_t n_noise = 0;
  for (std::size_t v = 0; v < d.voxels(); ++v) {
    if (inf_set.count(static_cast<std::uint32_t>(v))) {
      inf_mean += r.accuracy[v];
    } else {
      noise_mean += r.accuracy[v];
      ++n_noise;
    }
  }
  inf_mean /= static_cast<double>(inf.size());
  noise_mean /= static_cast<double>(n_noise);
  EXPECT_GT(inf_mean, 0.75);
  EXPECT_LT(noise_mean, 0.65);
  EXPECT_GT(inf_mean, noise_mean + 0.15);
}

TEST(EpochLabels, MapsToPlusMinusOne) {
  std::vector<fmri::Epoch> meta{{0, 0, 0, 4}, {0, 1, 4, 4}};
  const auto labels = epoch_labels(meta);
  EXPECT_EQ(labels[0], -1);
  EXPECT_EQ(labels[1], 1);
}

// ---------------------------------------------------------------------------
// Full pipeline
// ---------------------------------------------------------------------------

TEST(Pipeline, BaselineAndOptimizedProduceSameAccuracies) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const VoxelTask task{0, 24};
  PipelineConfig base = PipelineConfig::baseline();
  PipelineConfig opt = PipelineConfig::optimized();
  const TaskResult rb = run_task(ne, task, base);
  const TaskResult ro = run_task(ne, task, opt);
  ASSERT_EQ(rb.accuracy.size(), ro.accuracy.size());
  // Different solvers/precision may flip individual near-boundary epochs;
  // accuracies must still agree closely per voxel.
  for (std::size_t v = 0; v < rb.accuracy.size(); ++v) {
    EXPECT_NEAR(rb.accuracy[v], ro.accuracy[v], 0.12) << "voxel " << v;
  }
}

TEST(Pipeline, InstrumentedMatchesFastAccuracies) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const VoxelTask task{16, 8};
  const PipelineConfig config = PipelineConfig::optimized();
  const TaskResult fast = run_task(ne, task, config);
  memsim::Instrument ins;
  const InstrumentedTaskResult slow =
      run_task_instrumented(ne, task, config, ins);
  ASSERT_EQ(fast.accuracy.size(), slow.result.accuracy.size());
  // The instrumented path recomputes with scalar float arithmetic, so a
  // near-boundary epoch can flip; with 8 test epochs per fold one flip is
  // 0.125 of a fold's accuracy.
  double mean_diff = 0.0;
  for (std::size_t v = 0; v < fast.accuracy.size(); ++v) {
    EXPECT_NEAR(fast.accuracy[v], slow.result.accuracy[v], 0.15);
    mean_diff += std::abs(fast.accuracy[v] - slow.result.accuracy[v]);
  }
  EXPECT_LE(mean_diff / static_cast<double>(fast.accuracy.size()), 0.05);
}

TEST(Pipeline, OptimizedBeatsBaselineOnEveryEventAxis) {
  // The Fig 9 substance: for the same task, the optimized pipeline issues
  // fewer memory references, fewer L2 misses and higher vector intensity.
  // Needs cache pressure: at toy sizes everything is L2 resident and the
  // orderings are meaningless.
  const fmri::Dataset d = cache_pressure_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const VoxelTask task{0, 32};  // enough voxels to amortize panel packing
  memsim::Instrument bi;
  const auto base =
      run_task_instrumented(ne, task, PipelineConfig::baseline(), bi);
  memsim::Instrument oi;
  const auto opt =
      run_task_instrumented(ne, task, PipelineConfig::optimized(), oi);
  EXPECT_LT(opt.total().mem_refs, base.total().mem_refs);
  EXPECT_LT(opt.total().l2_misses, base.total().l2_misses);
  EXPECT_GT(opt.total().vector_intensity(),
            base.total().vector_intensity());
}

TEST(Pipeline, StageEventsSumToTotal) {
  const fmri::Dataset d = small_dataset();
  const fmri::NormalizedEpochs ne = fmri::normalize_epochs(d);
  const VoxelTask task{0, 4};
  memsim::Instrument ins;
  const auto r =
      run_task_instrumented(ne, task, PipelineConfig::optimized(), ins);
  const auto total = r.total();
  EXPECT_EQ(total.mem_refs, ins.events().mem_refs);
  EXPECT_EQ(total.flops, ins.events().flops);
  EXPECT_EQ(total.l2_misses, ins.events().l2_misses);
}

// ---------------------------------------------------------------------------
// Memory model: the paper's §3.3.3/§5.4.1 regimes
// ---------------------------------------------------------------------------

TEST(MemoryModel, PaperRegimesReproduce) {
  // face-scene: 216 epochs x 34,470 voxels.
  const std::size_t fs_base = baseline_max_voxels(216, 34470,
                                                  kPhiAvailableBytes);
  // The baseline cannot feed all 240 hardware threads...
  EXPECT_LT(fs_base, 240u);
  // ...while the optimized kernel-matrix reduction can.
  EXPECT_GE(optimized_max_voxels(216, 34470, kPhiAvailableBytes), 240u);

  // attention: 540 epochs x 25,260 voxels — even tighter for the baseline.
  const std::size_t att_base = baseline_max_voxels(540, 25260,
                                                   kPhiAvailableBytes);
  EXPECT_LT(att_base, fs_base);
  EXPECT_GE(optimized_max_voxels(540, 25260, kPhiAvailableBytes), 240u);
}

TEST(MemoryModel, PaperMemoryFootprintNumbers) {
  // §3.3.3: "240 voxels' correlation vectors will consume 8.3GB" — our
  // model gives 240 * 216 * 34470 * 4B = 7.15GB; the paper's figure
  // includes allocator overhead, so check the right ballpark.
  const double gb = 240.0 * static_cast<double>(
                        corr_bytes_per_voxel(216, 34470)) /
                    (1024.0 * 1024.0 * 1024.0);
  EXPECT_GT(gb, 6.0);
  EXPECT_LT(gb, 9.0);
  // §4.4: "a data matrix is typically ~60MB (400 epochs x 35,000 voxels)".
  EXPECT_NEAR(static_cast<double>(corr_bytes_per_voxel(400, 35000)) /
                  (1024.0 * 1024.0),
              53.4, 1.0);
}

TEST(MemoryModel, KernelReductionShrinksFootprint) {
  EXPECT_LT(kernel_bytes_per_voxel(216) * 100,
            corr_bytes_per_voxel(216, 34470));
}

}  // namespace
}  // namespace fcma::core
