#include "fcma/corr_norm.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/trace.hpp"
#include "fcma/memory_model.hpp"
#include "linalg/baseline.hpp"
#include "linalg/opt.hpp"
#include "stats/normalization.hpp"

namespace fcma::core {

namespace {

/// Contiguous run of epochs belonging to one subject: [first, last).
struct SubjectRun {
  std::size_t first;
  std::size_t last;
};

// Datasets store epochs subject-major, so each subject is one run; this
// helper also guards that assumption.
std::vector<SubjectRun> subject_runs(const std::vector<fmri::Epoch>& meta) {
  std::vector<SubjectRun> runs;
  std::size_t start = 0;
  for (std::size_t m = 1; m <= meta.size(); ++m) {
    if (m == meta.size() || meta[m].subject != meta[start].subject) {
      runs.push_back(SubjectRun{start, m});
      start = m;
    }
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    FCMA_CHECK(meta[runs[r].first].subject != meta[runs[r - 1].first].subject,
               "epochs must be grouped by subject");
  }
  return runs;
}

// View of epoch m's interleaved destination: rows = task voxels, ld jumps
// one whole voxel group (the cblas ldc trick of §3.2).
linalg::MatrixView epoch_slice(linalg::MatrixView out, const VoxelTask& task,
                               std::size_t epochs, std::size_t m) {
  return linalg::MatrixView{out.data + m * out.ld, task.count, out.cols,
                            epochs * out.ld};
}

// View of the task's rows of epoch e's normalized activity.
linalg::ConstMatrixView task_rows(linalg::ConstMatrixView epoch,
                                  const VoxelTask& task) {
  return linalg::ConstMatrixView{epoch.row(task.first), task.count,
                                 epoch.cols, epoch.ld};
}

}  // namespace

linalg::Matrix make_corr_buffer(const VoxelTask& task, std::size_t epochs,
                                std::size_t brain_voxels) {
  return linalg::Matrix(static_cast<std::size_t>(task.count) * epochs,
                        brain_voxels);
}

void normalize_corr_buffer(const std::vector<fmri::Epoch>& meta,
                           const VoxelTask& task, linalg::MatrixView buf) {
  const trace::Span span("normalization");
  const std::size_t m_total = meta.size();
  const auto runs = subject_runs(meta);
  for (std::size_t v = 0; v < task.count; ++v) {
    for (const SubjectRun& run : runs) {
      float* block = buf.row(v * m_total + run.first);
      stats::fisher_zscore_block(block, run.last - run.first, buf.cols,
                                 buf.ld);
    }
  }
}

void baseline_correlate_normalize(EpochSource& epochs, const VoxelTask& task,
                                  linalg::MatrixView out) {
  const std::size_t m_total = epochs.meta().size();
  FCMA_CHECK(out.rows == task.count * m_total, "bad corr buffer shape");
  {
    const trace::Span span("correlation");
    for (std::size_t m = 0; m < m_total; ++m) {
      const auto lease = epochs.acquire(m, m + 1);
      const linalg::ConstMatrixView act = lease.epoch(m);
      linalg::baseline::gemm_nt(task_rows(act, task), act,
                                epoch_slice(out, task, m_total, m));
    }
  }
  normalize_corr_buffer(epochs.meta(), task, out);
}

void baseline_correlate_normalize(const fmri::NormalizedEpochs& epochs,
                                  const VoxelTask& task,
                                  linalg::MatrixView out) {
  ResidentEpochs source(epochs);
  baseline_correlate_normalize(source, task, out);
}

void optimized_correlate_normalize(EpochSource& epochs, const VoxelTask& task,
                                   linalg::MatrixView out, NormMode mode,
                                   threading::ThreadPool* pool) {
  const std::size_t m_total = epochs.meta().size();
  FCMA_CHECK(out.rows == task.count * m_total, "bad corr buffer shape");
  if (mode == NormMode::kSeparated) {
    {
      const trace::Span span("correlation");
      for (std::size_t m = 0; m < m_total; ++m) {
        const auto lease = epochs.acquire(m, m + 1);
        const linalg::ConstMatrixView act = lease.epoch(m);
        linalg::opt::gemm_nt(task_rows(act, task), act,
                             epoch_slice(out, task, m_total, m));
      }
    }
    normalize_corr_buffer(epochs.meta(), task, out);
    return;
  }

  const auto rows = epochs.acquire_rows(0, m_total, task.first,
                                        task.first + task.count, pool);
  correlate_normalize_block(epochs, rows, task, 0, out.cols, out, pool);
}

void correlate_normalize_block(EpochSource& epochs,
                               const EpochSource::RowLease& task_lease,
                               const VoxelTask& task, std::size_t n0,
                               std::size_t n1, linalg::MatrixView out,
                               threading::ThreadPool* pool) {
  const std::size_t m_total = epochs.meta().size();
  FCMA_CHECK(n0 <= n1 && n1 <= epochs.voxels() &&
                 out.rows == task.count * m_total && out.cols == n1 - n0,
             "bad corr block shape");
  // Merged (idea #2): per subject run, pack the run's B^T panels once,
  // then compute each (panel, voxel block) unit's E epoch rows and
  // normalize them at once, while the freshly-written panel is still cache
  // resident.  A unit runs its epoch loop outside its voxel loop, so each
  // epoch's packed panel serves the block's rows from L1 (the paper's §4.2
  // tall-skinny blocking).  The run is the streaming granularity: its lease
  // is the only one held (a streamed source normalizes the lease's epochs
  // across the pool).  Units write disjoint outputs, so both loops spread
  // across the pool when one is given.
  //
  // Each run's B^T packing is one `pack` span on the calling thread, and
  // each unit records its correlation and normalization spans on the lane
  // that ran it, all under the caller's span; the run's lease comes before
  // its loops, so a streamed source's fill spans overlap neither.
  const std::size_t n = n1 - n0;
  const auto runs = subject_runs(epochs.meta());
  const auto t_len = static_cast<std::size_t>(epochs.meta().front().length);
  constexpr std::size_t kUnitVoxels = 8;
  const std::size_t panels = (n + kSweepPanelCols - 1) / kSweepPanelCols;
  const std::size_t voxel_blocks =
      (task.count + kUnitVoxels - 1) / kUnitVoxels;
  std::size_t max_e = 0;
  for (const SubjectRun& r : runs) max_e = std::max(max_e, r.last - r.first);
  // Panel p of the run holds its epochs' packed panels, epoch e at
  // e * t_len * width; only the last panel is narrower than kSweepPanelCols.
  AlignedBuffer<float> bt(max_e * t_len * n);
  const auto panel_of = [&](std::size_t p) {  // first column and width
    const std::size_t j0 = p * kSweepPanelCols;
    return std::pair{j0, std::min(n, j0 + kSweepPanelCols) - j0};
  };
  const bool tracing = trace::enabled();
  const trace::Context context = trace::current_context();
  for (const SubjectRun& run : runs) {
    const auto lease = epochs.acquire_rows(run.first, run.last, n0, n1, pool);
    const std::size_t e_count = run.last - run.first;
    {
      const trace::Span pack_span("pack");
      threading::for_each_index(pool, 0, panels, [&](std::size_t p) {
        const auto [j0, width] = panel_of(p);
        float* panel = bt.data() + e_count * t_len * j0;
        for (std::size_t e = 0; e < e_count; ++e) {
          linalg::opt::pack_bt_panel(lease.epoch(run.first + e), j0,
                                     j0 + width, panel + e * t_len * width);
        }
      });
    }
    threading::for_each_index(
        pool, 0, panels * voxel_blocks, [&](std::size_t unit) {
          const auto [j0, width] = panel_of(unit / voxel_blocks);
          const float* panel = bt.data() + e_count * t_len * j0;
          const std::size_t v0 = unit % voxel_blocks * kUnitVoxels;
          const std::size_t v1 = std::min<std::size_t>(task.count,
                                                       v0 + kUnitVoxels);
          const trace::ScopedContext lane_context(context);
          const std::uint64_t t0 = tracing ? trace::now_ns() : 0;
          for (std::size_t e = 0; e < e_count; ++e) {
            const linalg::ConstMatrixView rows =
                task_lease.epoch(run.first + e);
            for (std::size_t v = v0; v < v1; ++v) {
              linalg::opt::gemm_row_panel(
                  rows.row(v), t_len, panel + e * t_len * width, width,
                  out.row(v * m_total + run.first + e) + j0);
            }
          }
          const std::uint64_t t1 = tracing ? trace::now_ns() : 0;
          for (std::size_t v = v0; v < v1; ++v) {
            stats::fisher_zscore_block(out.row(v * m_total + run.first) + j0,
                                       e_count, width, out.ld);
          }
          if (tracing) {
            trace::record_interval_ns("correlation", t0, t1);
            trace::record_interval_ns("normalization", t1, trace::now_ns());
          }
        });
  }
}

void optimized_correlate_normalize(const fmri::NormalizedEpochs& epochs,
                                   const VoxelTask& task,
                                   linalg::MatrixView out, NormMode mode) {
  ResidentEpochs source(epochs);
  optimized_correlate_normalize(source, task, out, mode);
}

void baseline_correlate_normalize_instrumented(
    const fmri::NormalizedEpochs& epochs, const VoxelTask& task,
    linalg::MatrixView out, memsim::Instrument& ins, unsigned model_lanes) {
  const std::size_t m_total = epochs.per_epoch.size();
  FCMA_CHECK(out.rows == task.count * m_total, "bad corr buffer shape");
  // One span for the fused stage 1+2; wall time here includes the cache
  // simulator, so use the sidecar for call counts and relative shares.
  const trace::Span span("corr_norm");
  for (std::size_t m = 0; m < m_total; ++m) {
    const linalg::ConstMatrixView act = epochs.per_epoch[m].view();
    linalg::baseline::gemm_nt_instrumented(
        task_rows(act, task), act, epoch_slice(out, task, m_total, m), ins,
        model_lanes);
  }
  const auto runs = subject_runs(epochs.meta);
  for (std::size_t v = 0; v < task.count; ++v) {
    for (const SubjectRun& run : runs) {
      stats::fisher_zscore_block_instrumented(
          out.row(v * m_total + run.first), run.last - run.first, out.cols,
          out.ld, ins, model_lanes);
    }
  }
}

void optimized_correlate_normalize_instrumented(
    const fmri::NormalizedEpochs& epochs, const VoxelTask& task,
    linalg::MatrixView out, NormMode mode, memsim::Instrument& ins,
    unsigned model_lanes) {
  const std::size_t m_total = epochs.per_epoch.size();
  FCMA_CHECK(out.rows == task.count * m_total, "bad corr buffer shape");
  const trace::Span span("corr_norm");
  if (mode == NormMode::kSeparated) {
    // One B^T panel for every epoch's gemm (see gemm_nt_instrumented).
    AlignedBuffer<float> bt(epochs.per_epoch.front().cols() *
                            linalg::opt::kGemmPanelCols);
    for (std::size_t m = 0; m < m_total; ++m) {
      const linalg::ConstMatrixView act = epochs.per_epoch[m].view();
      linalg::opt::gemm_nt_instrumented(
          task_rows(act, task), act, epoch_slice(out, task, m_total, m), ins,
          model_lanes, bt.data());
    }
    const auto runs = subject_runs(epochs.meta);
    for (std::size_t v = 0; v < task.count; ++v) {
      for (const SubjectRun& run : runs) {
        stats::fisher_zscore_block_instrumented(
            out.row(v * m_total + run.first), run.last - run.first, out.cols,
            out.ld, ins, model_lanes);
      }
    }
    return;
  }

  const std::size_t n = out.cols;
  const auto runs = subject_runs(epochs.meta);
  std::size_t max_e = 0;
  for (const SubjectRun& r : runs) max_e = std::max(max_e, r.last - r.first);
  const std::size_t t_len = epochs.per_epoch.front().cols();
  AlignedBuffer<float> bt(max_e * t_len * linalg::opt::kGemmPanelCols);
  for (const SubjectRun& run : runs) {
    const std::size_t e_count = run.last - run.first;
    for (std::size_t j0 = 0; j0 < n; j0 += linalg::opt::kGemmPanelCols) {
      const std::size_t j1 = std::min(n, j0 + linalg::opt::kGemmPanelCols);
      const std::size_t width = j1 - j0;
      for (std::size_t e = 0; e < e_count; ++e) {
        linalg::opt::pack_bt_panel_instrumented(
            epochs.per_epoch[run.first + e].view(), j0, j1,
            bt.data() + e * t_len * width, ins, model_lanes);
      }
      for (std::size_t v = 0; v < task.count; ++v) {
        for (std::size_t e = 0; e < e_count; ++e) {
          const linalg::Matrix& act = epochs.per_epoch[run.first + e];
          linalg::opt::gemm_row_panel_instrumented(
              act.row(task.first + v), act.cols(),
              bt.data() + e * t_len * width, width,
              out.row(v * m_total + run.first + e) + j0, ins, model_lanes);
        }
        stats::fisher_zscore_block_instrumented(
            out.row(v * m_total + run.first) + j0, e_count, width, out.ld,
            ins, model_lanes);
      }
    }
  }
}

}  // namespace fcma::core
