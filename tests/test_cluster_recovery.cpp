// Fault-tolerance tests for the hardened cluster protocol: deterministic
// fault injection (FaultPlan / FaultyComm), per-message checksums, timeout
// receives and the shutdown race, master-side leases with requeue on worker
// death, at-least-once idempotency, checkpoint/resume, and DriverOptions
// validation.  The load-bearing claim throughout: every recovery path
// produces a scoreboard bit-identical (EXPECT_EQ on doubles) to the
// fault-free single-node run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cluster/checkpoint.hpp"
#include "cluster/comm.hpp"
#include "cluster/driver.hpp"
#include "cluster/fault.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timeline.hpp"
#include "common/tlstream.hpp"
#include "common/trace.hpp"
#include "fcma/pipeline.hpp"
#include "fcma/scoreboard.hpp"
#include "fcma/task.hpp"
#include "fmri/presets.hpp"
#include "fmri/synthetic.hpp"

namespace fcma::cluster {
namespace {

// ---------------------------------------------------------------------------
// Comm hardening: checksums, timeouts, the shutdown race
// ---------------------------------------------------------------------------

TEST(CommHardening, ChecksumTravelsAndVerifies) {
  Comm comm(2);
  comm.send(0, 1, Tag::kUser, {1, 2, 3});
  Message m = comm.recv(1);
  EXPECT_TRUE(m.checksum_ok());
  EXPECT_EQ(m.checksum, Comm::payload_checksum({1, 2, 3}));
  m.payload[1] ^= 0xFF;  // flip a byte after delivery
  EXPECT_FALSE(m.checksum_ok());
}

TEST(CommHardening, RecvForTimesOut) {
  Comm comm(2);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(comm.recv_for(1, 0.05).has_value());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(waited, 0.04);
  EXPECT_LT(waited, 2.0);
}

TEST(CommHardening, TaggedRecvForSkipsOtherTagsAndTimesOut) {
  Comm comm(2);
  comm.send(0, 1, Tag::kHeartbeat, {});
  // No kTaskResult pending: times out while the heartbeat stays queued.
  EXPECT_FALSE(comm.recv_for(1, Tag::kTaskResult, 0.05).has_value());
  const auto hb = comm.recv_for(1, Tag::kHeartbeat, 0.05);
  ASSERT_TRUE(hb.has_value());
  EXPECT_EQ(hb->tag, Tag::kHeartbeat);
}

TEST(CommHardening, RecvForReturnsMessageSentWhileWaiting) {
  Comm comm(2);
  std::thread sender([&comm] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    comm.send(0, 1, Tag::kUser, {42});
  });
  const auto m = comm.recv_for(1, 5.0);
  sender.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload[0], 42);
}

// The shutdown race (satellite bugfix): a worker blocked in recv while the
// master exits must unblock with a kShutdown-equivalent message instead of
// deadlocking the join.  Runs under the TSan gate via tools/ci_tsan.sh.
TEST(CommHardening, CloseUnblocksBlockedRecv) {
  Comm comm(2);
  Message got;
  std::thread blocked([&] { got = comm.recv(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  comm.close();
  blocked.join();  // would hang forever without the poison
  EXPECT_EQ(got.tag, Tag::kShutdown);
}

TEST(CommHardening, CloseUnblocksTaggedRecvToo) {
  Comm comm(2);
  Message got;
  std::thread blocked([&] { got = comm.recv(1, Tag::kTaskAssign); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  comm.close();
  blocked.join();
  EXPECT_EQ(got.tag, Tag::kShutdown);
}

TEST(CommHardening, ClosedCommDrainsQueuedMessagesFirst) {
  Comm comm(2);
  comm.send(0, 1, Tag::kUser, {7});
  comm.close();
  EXPECT_EQ(comm.recv(1).payload[0], 7);          // real message first
  EXPECT_EQ(comm.recv(1).tag, Tag::kShutdown);    // then the poison
  comm.send(0, 1, Tag::kUser, {8});               // dropped silently
  EXPECT_FALSE(comm.has_message(1));
}

// ---------------------------------------------------------------------------
// FaultPlan: deterministic decisions
// ---------------------------------------------------------------------------

TEST(FaultPlan, DecisionsAreAPureFunctionOfSeedEdgeAndSeq) {
  FaultPlan a;
  a.seed = 1234;
  a.drop = 0.3;
  a.duplicate = 0.2;
  a.corrupt = 0.2;
  a.delay = 0.2;
  FaultPlan b = a;  // independent instance, same seed
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const auto da = a.decide(0, 1, Tag::kTaskAssign, seq);
    const auto db = b.decide(0, 1, Tag::kTaskAssign, seq);
    EXPECT_EQ(da.drop, db.drop) << seq;
    EXPECT_EQ(da.duplicate, db.duplicate) << seq;
    EXPECT_EQ(da.corrupt, db.corrupt) << seq;
    EXPECT_EQ(da.delay, db.delay) << seq;
  }
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  FaultPlan a;
  a.seed = 1;
  a.drop = 0.5;
  FaultPlan b = a;
  b.seed = 2;
  bool diverged = false;
  for (std::uint64_t seq = 0; seq < 64 && !diverged; ++seq) {
    diverged = a.decide(0, 1, Tag::kUser, seq).drop !=
               b.decide(0, 1, Tag::kUser, seq).drop;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultPlan, ValidatesProbabilitiesAndKillRank) {
  FaultPlan p;
  p.drop = 1.5;
  EXPECT_THROW(p.validate(3), Error);
  p.drop = 0.0;
  p.kill_rank = 5;
  EXPECT_THROW(p.validate(3), Error);  // only ranks 1..2 exist
  p.kill_rank = 2;
  EXPECT_NO_THROW(p.validate(3));
}

TEST(FaultPlan, KillScheduleIsRankAndCountGated) {
  FaultPlan p;
  p.kill_rank = 2;
  p.kill_after_tasks = 3;
  EXPECT_FALSE(p.kills(1, 100));  // wrong rank
  EXPECT_FALSE(p.kills(2, 2));    // not enough tasks yet
  EXPECT_TRUE(p.kills(2, 3));
  EXPECT_FALSE(FaultPlan{}.kills(1, 100));  // disabled by default
}

// ---------------------------------------------------------------------------
// FaultyComm: injected message faults
// ---------------------------------------------------------------------------

TEST(FaultyComm, DropsEverythingAtProbabilityOne) {
  FaultPlan p;
  p.drop = 1.0;
  FaultyComm comm(2, p);
  comm.send(0, 1, Tag::kUser, {1});
  comm.send(0, 1, Tag::kUser, {2});
  EXPECT_FALSE(comm.has_message(1));
  EXPECT_EQ(comm.stats().dropped, 2u);
}

TEST(FaultyComm, DuplicatesDeliverTwice) {
  FaultPlan p;
  p.duplicate = 1.0;
  FaultyComm comm(2, p);
  comm.send(0, 1, Tag::kUser, {9});
  EXPECT_EQ(comm.recv(1).payload[0], 9);
  EXPECT_EQ(comm.recv(1).payload[0], 9);
  EXPECT_FALSE(comm.has_message(1));
  EXPECT_EQ(comm.stats().duplicated, 1u);
}

TEST(FaultyComm, CorruptionIsCaughtByTheChecksum) {
  FaultPlan p;
  p.corrupt = 1.0;
  FaultyComm comm(2, p);
  comm.send(0, 1, Tag::kUser, {1, 2, 3});
  const Message m = comm.recv(1);
  EXPECT_FALSE(m.checksum_ok());
  EXPECT_NE(m.payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(comm.stats().corrupted, 1u);
}

TEST(FaultyComm, DelayedMessagesSurviveUntilCloseFlush) {
  FaultPlan p;
  p.delay = 1.0;
  p.delay_messages = 1;
  FaultyComm comm(2, p);
  comm.send(0, 1, Tag::kUser, {1});  // deferred
  comm.send(0, 1, Tag::kUser, {2});  // deferred; matures {1}
  EXPECT_EQ(comm.recv(1).payload[0], 1);
  EXPECT_FALSE(comm.has_message(1));
  comm.close();  // flushes {2} before poisoning
  EXPECT_EQ(comm.recv(1).payload[0], 2);
  EXPECT_EQ(comm.recv(1).tag, Tag::kShutdown);
  EXPECT_EQ(comm.stats().delayed, 2u);
}

TEST(FaultyComm, SeededInjectionReplaysByteIdentically) {
  FaultPlan p;
  p.seed = 99;
  p.drop = 0.25;
  p.duplicate = 0.25;
  p.corrupt = 0.25;
  p.delay = 0.25;
  const auto run = [&p] {
    FaultyComm comm(2, p);
    for (std::uint8_t i = 0; i < 32; ++i) {
      comm.send(0, 1, Tag::kUser, {i, static_cast<std::uint8_t>(i * 3)});
    }
    comm.close();  // flush any still-deferred messages
    std::vector<Message> delivered;
    while (comm.has_message(1)) delivered.push_back(comm.recv(1));
    return delivered;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  ASSERT_FALSE(first.empty());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].payload, second[i].payload) << i;
    EXPECT_EQ(first[i].checksum, second[i].checksum) << i;
    EXPECT_EQ(first[i].checksum_ok(), second[i].checksum_ok()) << i;
  }
}

// ---------------------------------------------------------------------------
// Scoreboard idempotency (at-least-once dedup)
// ---------------------------------------------------------------------------

core::TaskResult fake_result(std::uint32_t first, std::uint32_t count,
                             double base) {
  core::TaskResult r;
  r.task = core::VoxelTask{first, count};
  for (std::uint32_t i = 0; i < count; ++i) {
    r.accuracy.push_back(base + static_cast<double>(i) / 3.0);
  }
  return r;
}

TEST(ScoreboardIdempotency, ExactDuplicateIsAbsorbed) {
  core::Scoreboard board(8);
  const auto r = fake_result(0, 4, 0.5);
  EXPECT_EQ(board.add_idempotent(r), 4u);
  EXPECT_EQ(board.add_idempotent(r), 0u);  // redelivery: no double count
  EXPECT_EQ(board.scored(), 4u);
  EXPECT_EQ(board.accuracy_of(1), 0.5 + 1.0 / 3.0);
}

TEST(ScoreboardIdempotency, ConflictingDuplicateThrows) {
  core::Scoreboard board(8);
  (void)board.add_idempotent(fake_result(0, 4, 0.5));
  EXPECT_THROW((void)board.add_idempotent(fake_result(2, 2, 0.9)), Error);
}

TEST(ScoreboardIdempotency, StrictAddStillThrowsOnRepeat) {
  core::Scoreboard board(8);
  board.add(fake_result(0, 4, 0.5));
  EXPECT_THROW(board.add(fake_result(0, 4, 0.5)), Error);
}

// ---------------------------------------------------------------------------
// Driver end-to-end recovery
// ---------------------------------------------------------------------------

struct Workload {
  fmri::Dataset dataset;
  fmri::NormalizedEpochs epochs;
};

Workload tiny_workload(std::size_t voxels) {
  fmri::DatasetSpec spec = fmri::tiny_spec();
  spec.voxels = voxels;
  Workload w{fmri::generate_synthetic(spec), {}};
  w.epochs = fmri::normalize_epochs(w.dataset);
  return w;
}

core::Scoreboard single_node_reference(const Workload& w,
                                       std::size_t voxels_per_task) {
  core::Scoreboard board(w.dataset.voxels());
  for (const auto& task :
       core::partition_voxels(w.dataset.voxels(), voxels_per_task)) {
    board.add(core::run_task(w.epochs, task,
                             core::PipelineConfig::optimized()));
  }
  return board;
}

void expect_bit_identical(const core::Scoreboard& reference,
                          const core::Scoreboard& board) {
  ASSERT_EQ(reference.total_voxels(), board.total_voxels());
  for (std::uint32_t v = 0; v < reference.total_voxels(); ++v) {
    EXPECT_EQ(reference.accuracy_of(v), board.accuracy_of(v)) << v;
  }
}

TEST(DriverRecovery, KilledWorkerTasksCompleteOnSurvivorsBitIdentically) {
  const Workload w = tiny_workload(64);
  DriverOptions opts;
  opts.workers = 3;
  // 32 tasks in two-task batches: the killed rank dies holding the second
  // task of its primed batch, so its lease expires however fast the
  // survivors drain the queue.
  opts.voxels_per_task = 2;
  opts.lease_timeout_s = 0.5;
  opts.faults.kill_rank = 2;
  opts.faults.kill_after_tasks = 1;  // dies after its first task
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.workers_died, 1u);
  EXPECT_GE(stats.heartbeat_misses, 1u);
  EXPECT_GE(stats.tasks_requeued, 1u);
  EXPECT_GT(stats.recovery_wall_s, 0.0);
  expect_bit_identical(single_node_reference(w, 2), board);
}

TEST(DriverRecovery, DuplicatedDeliveryIsDedupedBitIdentically) {
  const Workload w = tiny_workload(64);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 8;
  opts.faults.seed = 11;
  opts.faults.duplicate = 1.0;  // every message delivered twice
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.workers_died, 0u);
  expect_bit_identical(single_node_reference(w, 8), board);
}

TEST(DriverRecovery, DroppedMessagesAreRetriedBitIdentically) {
  const Workload w = tiny_workload(64);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 4;  // 16 tasks -> plenty of protocol traffic
  opts.faults.seed = 5;
  opts.faults.drop = 0.2;
  opts.max_task_retries = 64;  // generous: the point is recovery, not caps
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  // With a 20% drop rate across dozens of messages, at least one loss must
  // have been recovered through the requeue path.
  EXPECT_GE(stats.tasks_requeued, 1u);
  EXPECT_GE(stats.retries, 1u);
  expect_bit_identical(single_node_reference(w, 4), board);
}

TEST(DriverRecovery, CorruptedPayloadsAreCaughtAndRecovered) {
  const Workload w = tiny_workload(64);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 4;
  opts.faults.seed = 21;
  opts.faults.corrupt = 0.2;
  opts.max_task_retries = 64;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_GE(stats.corrupt_payloads, 1u);
  expect_bit_identical(single_node_reference(w, 4), board);
}

TEST(DriverRecovery, AllWorkersDeadThrows) {
  const Workload w = tiny_workload(32);
  DriverOptions opts;
  opts.workers = 1;
  opts.voxels_per_task = 8;
  opts.lease_timeout_s = 0.2;
  opts.faults.kill_rank = 1;
  opts.faults.kill_after_tasks = 0;  // dies before its first task
  try {
    (void)run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, nullptr);
    ADD_FAILURE() << "expected every worker to die";
  } catch (const Error& e) {
    // The likeliest cause is a lease shorter than one task: the message
    // must say so, naming the configured timeout.
    const std::string what = e.what();
    EXPECT_NE(what.find("lease timeout 0.2"), std::string::npos) << what;
    EXPECT_NE(what.find("longest task"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// DriverOptions validation
// ---------------------------------------------------------------------------

TEST(DriverOptionsValidation, ZeroWorkersIsAClearError) {
  const Workload w = tiny_workload(32);
  DriverOptions opts;
  opts.workers = 0;
  EXPECT_THROW(
      (void)run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, nullptr),
      Error);
}

TEST(DriverOptionsValidation, NonPositiveTimeoutsAreClearErrors) {
  const Workload w = tiny_workload(32);
  DriverOptions opts;
  opts.lease_timeout_s = 0.0;
  EXPECT_THROW(
      (void)run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, nullptr),
      Error);
  opts.lease_timeout_s = 10.0;
  opts.worker_poll_s = -1.0;
  EXPECT_THROW(
      (void)run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, nullptr),
      Error);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(Checkpoint, RoundTripIsBitExact) {
  const TempFile f("ckpt_roundtrip.json");
  core::Scoreboard board(16);
  board.add(fake_result(0, 8, 1.0 / 3.0));   // non-terminating decimals
  board.add(fake_result(12, 4, 0.1));        // gap: voxels 8..11 unscored
  write_checkpoint(f.path, board);
  const core::Scoreboard loaded = load_checkpoint(f.path, 16);
  EXPECT_EQ(loaded.scored(), board.scored());
  for (std::uint32_t v = 0; v < 16; ++v) {
    EXPECT_EQ(loaded.voxel_scored(v), board.voxel_scored(v)) << v;
    if (board.voxel_scored(v)) {
      EXPECT_EQ(loaded.accuracy_of(v), board.accuracy_of(v)) << v;
    }
  }
}

TEST(Checkpoint, RejectsMismatchedVoxelCountAndGarbage) {
  const TempFile f("ckpt_bad.json");
  core::Scoreboard board(16);
  board.add(fake_result(0, 16, 0.5));
  write_checkpoint(f.path, board);
  EXPECT_THROW((void)load_checkpoint(f.path, 32), Error);
  EXPECT_NO_THROW((void)load_checkpoint(f.path, 0));  // 0 = accept file's
  const auto rejects = [&f](const std::string& text) {
    std::FILE* bad = std::fopen(f.path.c_str(), "w");
    ASSERT_NE(bad, nullptr);
    std::fputs(text.c_str(), bad);
    std::fclose(bad);
    EXPECT_THROW((void)load_checkpoint(f.path, 16), Error) << text;
  };
  rejects("{\"schema\": \"something.else\"}");
  // Hostile integers: each must be a clean fcma::Error, never a wrapped
  // range check (2^32 - 1 + 2 wraps to 1 in uint32) or an undefined cast.
  const auto ckpt = [](const std::string& total, const std::string& run) {
    return "{\"schema\": \"fcma.ckpt.v1\", \"total_voxels\": " + total +
           ", \"scored\": 2, \"runs\": [{" + run + "}]}";
  };
  const std::string acc = "\"accuracy\": [0.5, 0.5]";
  rejects(ckpt("16", "\"first\": 4294967295, " + acc));
  rejects(ckpt("16", "\"first\": -1, " + acc));
  rejects(ckpt("16", "\"first\": 1.5, " + acc));
  rejects(ckpt("16", "\"first\": 1e300, " + acc));
  rejects(ckpt("16", acc));  // missing first
  rejects(ckpt("-16", "\"first\": 0, " + acc));
  // The scoreboard's own range check does its sum in size_t, too.
  core::Scoreboard direct(16);
  EXPECT_THROW(direct.add(fake_result(4294967295u, 2, 0.5)), Error);
  EXPECT_THROW((void)direct.add_idempotent(fake_result(4294967295u, 2, 0.5)),
               Error);
}

// Master loss is recovered by checkpoint/resume, so resume is checked at
// every cut point of an 8-task farm.  Two racing workers, retries and
// requeues deliver results out of task order, so the scored tasks at a
// checkpoint can be any subset: the cuts follow a seeded, non-prefix
// delivery order.
TEST(Checkpoint, DriverWritesAndResumeReproducesBitIdentically) {
  const TempFile f("ckpt_resume.json");
  const Workload w = tiny_workload(64);
  const core::Scoreboard reference = single_node_reference(w, 8);
  const auto tasks = core::partition_voxels(w.dataset.voxels(), 8);
  ASSERT_EQ(tasks.size(), 8u);
  std::vector<core::TaskResult> results;
  for (const auto& task : tasks) {
    results.push_back(
        core::run_task(w.epochs, task, core::PipelineConfig::optimized()));
  }

  std::vector<std::size_t> order(tasks.size());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  Rng rng(31);
  for (std::size_t t = order.size() - 1; t > 0; --t) {
    std::swap(order[t], order[rng.uniform_index(t + 1)]);
  }
  ASSERT_FALSE(std::is_sorted(order.begin(), order.end()));

  for (std::size_t k = 0; k <= tasks.size(); ++k) {
    SCOPED_TRACE("k = " + std::to_string(k));
    core::Scoreboard partial(w.dataset.voxels());
    for (std::size_t i = 0; i < k; ++i) partial.add(results[order[i]]);
    write_checkpoint(f.path, partial);

    const core::Scoreboard resumed_board = load_checkpoint(f.path, 64);
    DriverOptions opts;
    opts.workers = 2;
    opts.voxels_per_task = 8;
    opts.resume = &resumed_board;
    DriverStats stats;
    const core::Scoreboard board =
        run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, &stats);
    EXPECT_TRUE(board.complete());
    EXPECT_EQ(stats.tasks_dispatched, tasks.size() - k);
    expect_bit_identical(reference, board);
  }
}

TEST(Checkpoint, UnwritablePathIsAClearError) {
  const core::Scoreboard board(16);
  EXPECT_THROW(write_checkpoint("no_such_dir/ckpt.json", board), Error);
}

TEST(Checkpoint, PeriodicCheckpointsAreWrittenDuringTheRun) {
  const TempFile f("ckpt_periodic.json");
  const Workload w = tiny_workload(64);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 8;
  opts.checkpoint_path = f.path;
  opts.checkpoint_every = 2;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_GE(stats.checkpoints_written, 2u);  // periodic + final
  const core::Scoreboard loaded = load_checkpoint(f.path, 64);
  EXPECT_TRUE(loaded.complete());
  expect_bit_identical(board, loaded);
}

TEST(Checkpoint, ResumeFromCompleteCheckpointDispatchesNothing) {
  const TempFile f("ckpt_complete.json");
  const Workload w = tiny_workload(32);
  const core::Scoreboard reference = single_node_reference(w, 8);
  write_checkpoint(f.path, reference);
  const core::Scoreboard loaded = load_checkpoint(f.path, 32);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 8;
  opts.resume = &loaded;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.tasks_dispatched, 0u);
  EXPECT_EQ(stats.batches, 0u);
  expect_bit_identical(reference, board);
}

// ---------------------------------------------------------------------------
// Worker resurrection
// ---------------------------------------------------------------------------

// The resurrection path: a worker declared dead after a long
// stall comes back with its delayed result, racing the requeued copy that a
// survivor is already recomputing.  The readmission must purge the zombie's
// stale leases and be counted — and the board must stay bit-identical no
// matter which copy of each result lands first.
TEST(ControlPlane, ResurrectedWorkerIsPurgedCountedAndBitIdentical) {
  const Workload w = tiny_workload(1024);
  DriverOptions opts;
  opts.workers = 2;
  opts.voxels_per_task = 8;  // 128 tasks
  // Rank 2 stalls until it is declared dead, its tasks requeue to rank 1,
  // and its wake-up heartbeat reaches the master before any requeued
  // result, so the resurrection happens at any task speed.  The lease is
  // sized from a measured task (sanitizer builds run tasks several times
  // slower) so the survivor's own tasks never outlast it.
  double task_s = 1e9;
  for (int rep = 0; rep < 2; ++rep) {  // the first run also warms caches
    const auto start = std::chrono::steady_clock::now();
    (void)core::run_task(w.epochs, core::VoxelTask{0, 8},
                         core::PipelineConfig::optimized());
    task_s = std::min(task_s, std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
  }
  opts.lease_timeout_s = std::max(0.15, 5.0 * task_s);
  opts.faults.stall_rank = 2;
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, &stats);
  EXPECT_TRUE(board.complete());
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_GE(stats.resurrections, 1u);
  EXPECT_GE(stats.tasks_requeued, 1u);
  expect_bit_identical(single_node_reference(w, 8), board);
}

// ---------------------------------------------------------------------------
// Crash-safe stream flush: a dead rank's spans reach the merged timeline
// ---------------------------------------------------------------------------

// The satellite-6 regression: with continuous profiling armed, a rank that
// the fault plan kills mid-run must still contribute its completed spans to
// the merged cross-rank stream — finalize flushes the dead lane's ring tail
// alongside the survivors', so the report accounts the lost rank's work.
TEST(DeadRankStreaming, KilledWorkerLaneReachesTheMergedStream) {
  namespace tls = trace::tlstream;
  const std::string dir = ::testing::TempDir() + "fcma_deadrank_stream";
  std::filesystem::remove_all(dir);
  trace::global().reset();
  trace::Timeline::global().reset();
  trace::Timeline::global().set_ring_capacity(64);  // force mid-run spills
  trace::new_run_id();
  trace::set_stream_dir(dir);
  trace::set_enabled(true);

  const Workload w = tiny_workload(64);
  DriverOptions opts;
  opts.workers = 3;
  opts.voxels_per_task = 2;  // two-task batches: dies holding a lease
  opts.lease_timeout_s = 0.5;
  opts.faults.kill_rank = 2;
  opts.faults.kill_after_tasks = 1;  // dies with exactly one task recorded
  DriverStats stats;
  const core::Scoreboard board =
      run_cluster_analysis(w.epochs, w.dataset.voxels(), opts, &stats);
  trace::Timeline::global().finalize_stream();
  const std::uint64_t run = trace::run_id();
  const tls::StreamRead read = tls::read_stream_dir(dir);

  // Restore the traceless regime before asserting (other suites in this
  // binary expect tracing off).
  trace::set_stream_dir("");
  trace::set_enabled(false);
  trace::global().reset();
  trace::Timeline::global().reset();
  trace::Timeline::global().set_ring_capacity(1u << 16);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  EXPECT_TRUE(board.complete());
  EXPECT_EQ(stats.workers_died, 1u);
  EXPECT_TRUE(read.done);
  EXPECT_EQ(read.done_dropped, 0u);  // streaming: the death dropped nothing
  std::size_t dead_rank_tasks = 0;
  for (const auto& ev : read.events) {
    EXPECT_EQ(ev.trace_id, run);
    if (ev.label == "cluster/worker2/task") ++dead_rank_tasks;
  }
  // The killed rank completed one task before dying; its span must have
  // been flushed out of its (now ownerless) ring by the finalize.
  EXPECT_GE(dead_rank_tasks, 1u);
}

}  // namespace
}  // namespace fcma::cluster
