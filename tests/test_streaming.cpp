// Tests for the streaming closed-loop analyzer: TR-by-TR ingestion, epoch
// bookkeeping, online training, and feedback classification consistency
// with the batch pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "fcma/offline.hpp"
#include "fcma/online.hpp"
#include "fcma/streaming.hpp"
#include "fmri/dataset_view.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"
#include "fold_loop_oracle.hpp"
#include "stats/stats.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::core {
namespace {

// A single-subject session to stream: big enough for the online protocol.
fmri::Dataset session_dataset() {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = 96;
  spec.informative = 16;
  spec.subjects = 1;
  spec.epochs_total = 48;
  spec.signal = 1.0;
  return fmri::generate_synthetic(spec);
}

StreamingAnalyzer::Options options_for(const fmri::Dataset& d) {
  StreamingAnalyzer::Options o;
  o.voxels = d.voxels();
  o.epoch_length = d.epochs().front().length;
  o.top_k = 12;
  o.k_folds = 4;
  return o;
}

// Pushes epoch `e` of the dataset TR by TR.
void push_epoch(StreamingAnalyzer& analyzer, const fmri::Dataset& d,
                std::size_t e) {
  const fmri::Epoch& ep = d.epochs()[e];
  std::vector<float> volume(d.voxels());
  for (std::uint32_t t = 0; t < ep.length; ++t) {
    for (std::size_t v = 0; v < d.voxels(); ++v) {
      volume[v] = d.data()(v, ep.start + t);
    }
    analyzer.push_volume(volume);
  }
}

TEST(Streaming, TracksPendingAndCommitted) {
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer analyzer(options_for(d));
  EXPECT_EQ(analyzer.pending_volumes(), 0u);
  push_epoch(analyzer, d, 0);
  EXPECT_EQ(analyzer.pending_volumes(), d.epochs()[0].length);
  analyzer.commit_epoch(d.epochs()[0].label);
  EXPECT_EQ(analyzer.pending_volumes(), 0u);
  EXPECT_EQ(analyzer.epochs_buffered(), 1u);
}

TEST(Streaming, DiscardDropsPendingOnly) {
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer analyzer(options_for(d));
  push_epoch(analyzer, d, 0);
  analyzer.commit_epoch(0);
  push_epoch(analyzer, d, 1);
  analyzer.discard_pending();
  EXPECT_EQ(analyzer.pending_volumes(), 0u);
  EXPECT_EQ(analyzer.epochs_buffered(), 1u);
}

TEST(Streaming, GuardsProtocolErrors) {
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer analyzer(options_for(d));
  std::vector<float> wrong(d.voxels() + 1);
  EXPECT_THROW(analyzer.push_volume(wrong), Error);
  EXPECT_THROW(analyzer.commit_epoch(0), Error);  // nothing pending
  push_epoch(analyzer, d, 0);
  std::vector<float> volume(d.voxels());
  EXPECT_THROW(analyzer.push_volume(volume), Error);  // epoch complete
  EXPECT_THROW(analyzer.commit_epoch(5), Error);      // bad label
  EXPECT_THROW(analyzer.train(), Error);              // too few epochs
  EXPECT_THROW((void)analyzer.classify_pending(), Error);  // not trained
}

TEST(Streaming, TrainSelectsInformativeVoxels) {
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer analyzer(options_for(d));
  for (std::size_t e = 0; e < 32; ++e) {
    push_epoch(analyzer, d, e);
    analyzer.commit_epoch(d.epochs()[e].label);
  }
  analyzer.train();
  ASSERT_TRUE(analyzer.trained());
  const auto& truth = d.informative_voxels();
  std::size_t hits = 0;
  for (const auto v : analyzer.selected_voxels()) {
    hits += std::binary_search(truth.begin(), truth.end(), v);
  }
  EXPECT_GE(static_cast<double>(hits) /
                static_cast<double>(analyzer.selected_voxels().size()),
            0.6);
  EXPECT_GT(analyzer.training_cv_accuracy(), 0.6);
}

TEST(Streaming, FeedbackBeatsChanceOnHeldOutEpochs) {
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer analyzer(options_for(d));
  const std::size_t localizer = 36;
  for (std::size_t e = 0; e < localizer; ++e) {
    push_epoch(analyzer, d, e);
    analyzer.commit_epoch(d.epochs()[e].label);
  }
  analyzer.train();
  std::size_t correct = 0;
  std::size_t total = 0;
  for (std::size_t e = localizer; e < d.epochs().size(); ++e) {
    push_epoch(analyzer, d, e);
    const Feedback f = analyzer.classify_pending();
    correct += (f.label == d.epochs()[e].label);
    ++total;
    analyzer.discard_pending();
  }
  EXPECT_GE(total, 8u);
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total),
            0.75);
}

TEST(Streaming, ClassifyIsSignConsistentWithDecision) {
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer analyzer(options_for(d));
  for (std::size_t e = 0; e < 32; ++e) {
    push_epoch(analyzer, d, e);
    analyzer.commit_epoch(d.epochs()[e].label);
  }
  analyzer.train();
  push_epoch(analyzer, d, 33);
  const Feedback f = analyzer.classify_pending();
  EXPECT_EQ(f.label, f.decision >= 0.0 ? 1 : 0);
}

TEST(Streaming, RetrainingAfterMoreDataIsAllowed) {
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer analyzer(options_for(d));
  for (std::size_t e = 0; e < 16; ++e) {
    push_epoch(analyzer, d, e);
    analyzer.commit_epoch(d.epochs()[e].label);
  }
  analyzer.train();
  const double first = analyzer.training_cv_accuracy();
  for (std::size_t e = 16; e < 40; ++e) {
    push_epoch(analyzer, d, e);
    analyzer.commit_epoch(d.epochs()[e].label);
  }
  analyzer.train();  // retrain with 40 epochs
  EXPECT_TRUE(analyzer.trained());
  // More data should not catastrophically hurt the estimate.
  EXPECT_GT(analyzer.training_cv_accuracy(), first - 0.15);
}

TEST(Streaming, PooledTrainIsBitIdenticalToSerial) {
  // Training on a pool must give the same result as the serial path: task
  // partitioning fixes the arithmetic, the pool only moves tasks between
  // lanes.
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer::Options serial_opts = options_for(d);
  serial_opts.voxels_per_task = 16;  // same partition, no pool
  StreamingAnalyzer serial(serial_opts);
  threading::ThreadPool pool(3);
  StreamingAnalyzer::Options pooled_opts = options_for(d);
  pooled_opts.pool = &pool;
  pooled_opts.voxels_per_task = 16;
  StreamingAnalyzer pooled(pooled_opts);
  for (std::size_t e = 0; e < 32; ++e) {
    push_epoch(serial, d, e);
    serial.commit_epoch(d.epochs()[e].label);
    push_epoch(pooled, d, e);
    pooled.commit_epoch(d.epochs()[e].label);
  }
  serial.train();
  pooled.train();
  EXPECT_EQ(serial.selected_voxels(), pooled.selected_voxels());
  EXPECT_EQ(serial.training_cv_accuracy(), pooled.training_cv_accuracy());
  push_epoch(serial, d, 33);
  push_epoch(pooled, d, 33);
  const Feedback fs = serial.classify_pending();
  const Feedback fp = pooled.classify_pending();
  EXPECT_EQ(fs.label, fp.label);
  EXPECT_EQ(fs.decision, fp.decision);
}

TEST(Streaming, TrainingEstimateMatchesTheFoldLoop) {
  // train() scores its CV folds with svm::cross_validate over one Gram
  // matrix; the estimate equals the per-fold loop's, which rebuilt the Gram
  // for every fold and summed accuracy x fold size.
  // Eight voxels score 29 of 32 epochs: not a multiple of 4, so a fold
  // scored differently, or skipped, moves the estimate.
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer::Options o = options_for(d);
  o.top_k = 8;
  StreamingAnalyzer analyzer(o);
  const std::size_t m = 32;
  for (std::size_t e = 0; e < m; ++e) {
    push_epoch(analyzer, d, e);
    analyzer.commit_epoch(d.epochs()[e].label);
  }
  analyzer.train();
  ASSERT_EQ(analyzer.training_cv_accuracy(), 29.0 / 32.0);

  // The analyzer's frozen features over the committed epochs.
  std::vector<std::size_t> committed(m);
  for (std::size_t e = 0; e < m; ++e) committed[e] = e;
  const fmri::NormalizedEpochs ne =
      fmri::normalize_epochs(fmri::InMemoryView(d), committed);
  linalg::Matrix features =
      selected_correlation_features(ne, analyzer.selected_voxels());
  const std::size_t dim = features.cols();
  std::vector<float> mean(dim, 0.0f);
  for (std::size_t e = 0; e < m; ++e) {
    stats::fisher_z({features.row(e), dim});
    for (std::size_t x = 0; x < dim; ++x) mean[x] += features(e, x);
  }
  for (std::size_t x = 0; x < dim; ++x) mean[x] /= static_cast<float>(m);
  for (std::size_t x = 0; x < dim; ++x) {
    double var = 0.0;
    for (std::size_t e = 0; e < m; ++e) {
      const double diff = features(e, x) - mean[x];
      var += diff * diff;
    }
    var /= static_cast<double>(m);
    const float inv_sd =
        var > 0.0 ? static_cast<float>(1.0 / std::sqrt(var)) : 0.0f;
    for (std::size_t e = 0; e < m; ++e) {
      features(e, x) = (features(e, x) - mean[x]) * inv_sd;
    }
  }

  double correct = 0.0;
  std::size_t total = 0;
  for (const auto& test : kfold_groups(m, o.k_folds)) {
    correct += oracle::fold_loop_accuracy(features, ne.meta,
                                          oracle::train_indices(m, test),
                                          test, o.svm_options) *
               static_cast<double>(test.size());
    total += test.size();
  }
  EXPECT_EQ(analyzer.training_cv_accuracy(),
            correct / static_cast<double>(total));
}

TEST(Streaming, BufferCapacityIsEnforced) {
  const fmri::Dataset d = session_dataset();
  StreamingAnalyzer::Options o = options_for(d);
  o.max_epochs = 2;
  StreamingAnalyzer analyzer(o);
  for (std::size_t e = 0; e < 2; ++e) {
    push_epoch(analyzer, d, e);
    analyzer.commit_epoch(d.epochs()[e].label);
  }
  push_epoch(analyzer, d, 2);
  EXPECT_THROW(analyzer.commit_epoch(0), Error);
}

}  // namespace
}  // namespace fcma::core
