// Unit tests for the fixed-lane parallel loop (threading::ThreadPool).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::threading {
namespace {

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  parallel_for_each(pool, 0, 200, [&counter](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, OneLaneRunsEveryIndexOnTheCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  parallel_for_each(pool, 0, 50, [&](std::size_t i) {
    all_on_caller &= std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  EXPECT_TRUE(all_on_caller);
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, CallerIsOneOfTheLanes) {
  // Every body waits until all n have started, so the loop completes only
  // if n distinct threads run it at once: the n - 1 helpers and the caller.
  for (std::size_t n = 1; n <= 4; ++n) {
    ThreadPool pool(n);
    std::latch all_started(static_cast<std::ptrdiff_t>(n));
    std::mutex mutex;
    std::set<std::thread::id> threads;
    parallel_for_each(pool, 0, n, [&](std::size_t) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      }
      all_started.arrive_and_wait();
    });
    EXPECT_EQ(threads.size(), n);
    EXPECT_EQ(threads.count(std::this_thread::get_id()), 1u);
  }
}

TEST(ThreadPool, AtMostOneThreadPerLaneRunsBodies) {
  for (std::size_t n = 1; n <= 4; ++n) {
    ThreadPool pool(n);
    std::mutex mutex;
    std::set<std::thread::id> threads;
    parallel_for_each(pool, 0, 10000, [&](std::size_t) {
      const std::lock_guard<std::mutex> lock(mutex);
      threads.insert(std::this_thread::get_id());
    });
    EXPECT_GE(threads.size(), 1u);
    EXPECT_LE(threads.size(), n);
  }
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  // Empty, single, fewer indices than lanes, and many more than lanes.
  ThreadPool pool(4);
  for (const std::size_t count : {0u, 1u, 3u, 4u, 5u, 1000u}) {
    std::vector<std::atomic<int>> hits(count + 2);
    parallel_for_each(pool, 1, count + 1,
                      [&hits](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(hits.front().load(), 0) << count;
    EXPECT_EQ(hits.back().load(), 0) << count;
    for (std::size_t i = 1; i <= count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << count << " index " << i;
    }
  }
}

TEST(ParallelFor, CoversEntireRangeExactlyOnce) {
  for (std::size_t n = 1; n <= 4; ++n) {
    ThreadPool pool(n);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for_each(pool, 0, hits.size(),
                      [&hits](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for_each(pool, 5, 5, [&calls](std::size_t) { ++calls; });
  parallel_for_each(pool, 7, 5, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, PropagatesBodyException) {
  // The exception reaches the caller only after every lane has left the
  // loop: no body is still running when the call throws.
  ThreadPool pool(4);
  std::atomic<int> running{0};
  EXPECT_THROW(parallel_for_each(pool, 0, 64,
                                 [&](std::size_t i) {
                                   ++running;
                                   if (i == 5) {
                                     --running;
                                     throw Error("body failed");
                                   }
                                   std::this_thread::yield();
                                   --running;
                                 }),
               Error);
  EXPECT_EQ(running.load(), 0);
  // The pool still runs loops after a failed one.
  std::atomic<int> hits{0};
  parallel_for_each(pool, 0, 32, [&hits](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 32);
}

TEST(ParallelFor, ResultsAreIndexDeterministic) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> out(4096);
  parallel_for_each(pool, 0, out.size(), [&out](std::size_t i) {
    out[i] = static_cast<std::uint64_t>(i) * 2654435761u;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::uint64_t>(i) * 2654435761u);
  }
}

TEST(ParallelForEach, SumsCorrectly) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  parallel_for_each(pool, 1, 101, [&sum](std::size_t i) {
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ParallelFor, NestedCallFromWorkerCompletesWithoutDeadlock) {
  // A same-pool loop from inside a lane runs inline, in order, on that
  // lane, at any pool size.
  for (std::size_t n = 1; n <= 3; ++n) {
    ThreadPool pool(n);
    std::atomic<int> inner_hits{0};
    std::atomic<bool> in_order{true};
    parallel_for_each(pool, 0, 4, [&](std::size_t) {
      const std::thread::id lane = std::this_thread::get_id();
      std::size_t expect = 0;
      parallel_for_each(pool, 0, 10, [&](std::size_t i) {
        if (i != expect++ || std::this_thread::get_id() != lane) {
          in_order = false;
        }
        ++inner_hits;
      });
    });
    EXPECT_EQ(inner_hits.load(), 40);
    EXPECT_TRUE(in_order.load());
  }
}

TEST(ParallelFor, NestedCallStillCoversRangeOnSaturatedPool) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(256);
  parallel_for_each(pool, 0, 16, [&pool, &hits](std::size_t lo) {
    parallel_for_each(pool, lo * 16, (lo + 1) * 16,
                      [&hits](std::size_t i) { ++hits[i]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, CrossPoolCallDispatchesToTheTargetPool) {
  // A loop on pool B started from a lane of pool A runs on B's lanes: its
  // two bodies wait for each other, so B's helper must run one of them.
  ThreadPool a(2);
  ThreadPool b(2);
  const std::uint64_t before = b.scheduler().stats().executed;
  std::atomic<int> hits{0};
  parallel_for_each(a, 0, 1, [&b, &hits](std::size_t) {
    std::latch both(2);
    parallel_for_each(b, 0, 2, [&both, &hits](std::size_t) {
      ++hits;
      both.arrive_and_wait();
    });
  });
  EXPECT_EQ(hits.load(), 2);
  EXPECT_EQ(b.scheduler().stats().executed - before, 2u);
}

TEST(Scheduler, StatsAccountEveryExecutedTask) {
  // The bench_fcma stub: `executed` counts indices; the rest read 0.
  ThreadPool pool(3);
  parallel_for_each(pool, 0, 200, [](std::size_t) {});
  for_each_index(&pool, 0, 7, [](std::size_t) {});
  for_each_index(nullptr, 0, 5, [](std::size_t) {});
  const auto stats = pool.scheduler().stats();
  EXPECT_EQ(stats.executed, 207u);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.local_hits, 0u);
  EXPECT_EQ(stats.inbox_hits, 0u);
}

// --- Stress (run under ThreadSanitizer by tools/ci_tsan.sh) ---------------

TEST(SchedStress, ThousandsOfTinyTasks) {
  ThreadPool pool(4);
  std::vector<int> out(3);
  long total = 0;
  for (int loop = 0; loop < 5000; ++loop) {
    const std::size_t count = static_cast<std::size_t>(loop % 4);
    parallel_for_each(pool, 0, count, [&out, loop](std::size_t i) {
      out[i] = loop;
    });
    for (std::size_t i = 0; i < count; ++i) total += out[i] == loop;
  }
  long expect = 0;
  for (int loop = 0; loop < 5000; ++loop) expect += loop % 4;
  EXPECT_EQ(total, expect);
}

TEST(SchedStress, ConcurrentLoopsFromExternalThreads) {
  // Several threads share one pool: one holds the lanes at a time and the
  // others run their loops inline.  Every index still runs exactly once.
  ThreadPool pool(3);
  constexpr int kThreads = 4;
  constexpr std::size_t kCount = 64;
  std::vector<std::vector<std::atomic<int>>> hits(kThreads);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kCount);
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([&pool, &hits, t] {
      for (int round = 0; round < 100; ++round) {
        parallel_for_each(pool, 0, kCount, [&hits, t](std::size_t i) {
          ++hits[static_cast<std::size_t>(t)][i];
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& h : hits) {
    for (const auto& v : h) EXPECT_EQ(v.load(), 100);
  }
}

TEST(SchedStress, ConcurrentPoolsCrossTraffic) {
  // Lanes of each pool start loops on the other: a busy target runs the
  // loop inline instead of waiting, so the cycle cannot deadlock.
  ThreadPool a(2);
  ThreadPool b(2);
  std::atomic<int> hits{0};
  std::thread other([&] {
    for (int round = 0; round < 50; ++round) {
      parallel_for_each(b, 0, 8, [&](std::size_t) {
        parallel_for_each(a, 0, 4, [&](std::size_t) { ++hits; });
      });
    }
  });
  for (int round = 0; round < 50; ++round) {
    parallel_for_each(a, 0, 8, [&](std::size_t) {
      parallel_for_each(b, 0, 4, [&](std::size_t) { ++hits; });
    });
  }
  other.join();
  EXPECT_EQ(hits.load(), 2 * 50 * 8 * 4);
}

TEST(SchedStress, RapidConstructDestruct) {
  std::atomic<int> hits{0};
  for (int round = 0; round < 200; ++round) {
    ThreadPool pool(static_cast<std::size_t>(round % 4) + 1);
    if (round % 2 == 0) {
      parallel_for_each(pool, 0, 5, [&hits](std::size_t) { ++hits; });
    }
  }
  EXPECT_EQ(hits.load(), 100 * 5);
}

}  // namespace
}  // namespace fcma::threading
