// Tests for the per-thread workspace arena (common/workspace.hpp): lease
// sizing and alignment, buffer reuse through the free lists, the free-list
// cap, and concurrent checkout from pool workers (each worker must hit its
// own arena — no sharing, no aliasing).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/numa.hpp"
#include "common/workspace.hpp"
#include "threading/thread_pool.hpp"

namespace fcma::core {
namespace {

TEST(Workspace, LeaseIsSizedAndAligned) {
  Workspace ws;
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{7}, std::size_t{256}, std::size_t{1000},
        std::size_t{70000}}) {
    auto lease = ws.acquire(n);
    ASSERT_NE(lease.data(), nullptr);
    EXPECT_GE(lease.size(), n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lease.data()) % 64, 0u)
        << "request of " << n << " floats not 64-byte aligned";
  }
}

TEST(Workspace, ZeroRequestYieldsEmptyLease) {
  Workspace ws;
  const auto lease = ws.acquire(0);
  EXPECT_TRUE(lease.empty());
  EXPECT_EQ(lease.size(), 0u);
}

TEST(Workspace, ReleasedBufferIsReused) {
  Workspace ws;
  float* first = nullptr;
  {
    auto lease = ws.acquire(1000);
    first = lease.data();
    EXPECT_EQ(ws.pool_hits(), 0u);
  }
  // Same size class again: must come back from the free list, not malloc.
  auto lease = ws.acquire(900);
  EXPECT_EQ(lease.data(), first);
  EXPECT_EQ(ws.acquires(), 2u);
  EXPECT_EQ(ws.pool_hits(), 1u);
}

TEST(Workspace, LiveLeasesNeverAlias) {
  Workspace ws;
  auto a = ws.acquire(512);
  auto b = ws.acquire(512);
  auto c = ws.acquire(512);
  EXPECT_NE(a.data(), b.data());
  EXPECT_NE(a.data(), c.data());
  EXPECT_NE(b.data(), c.data());
}

TEST(Workspace, FreeListIsCappedAndTrimmable) {
  Workspace ws;
  {
    std::vector<Workspace::Lease> leases;
    for (int i = 0; i < 6; ++i) leases.push_back(ws.acquire(4096));
  }
  // Only a bounded number of buffers stays cached; 4096 floats = 16 KiB.
  EXPECT_GT(ws.bytes_held(), 0u);
  EXPECT_LE(ws.bytes_held(), 4u * 4096u * sizeof(float));
  ws.trim();
  EXPECT_EQ(ws.bytes_held(), 0u);
}

TEST(Workspace, MoveTransfersOwnership) {
  Workspace ws;
  auto a = ws.acquire(300);
  float* p = a.data();
  Workspace::Lease b = std::move(a);
  EXPECT_EQ(b.data(), p);
  b = ws.acquire(300);  // releasing the moved-to lease must not double-free
  EXPECT_NE(b.data(), nullptr);
}

TEST(Workspace, LocalArenaIsPerThread) {
  const auto here = reinterpret_cast<std::uintptr_t>(&Workspace::local());
  std::uintptr_t there = 0;
  std::thread t(
      [&] { there = reinterpret_cast<std::uintptr_t>(&Workspace::local()); });
  t.join();
  EXPECT_NE(here, there);
  EXPECT_NE(there, 0u);
}

TEST(Workspace, ConcurrentCheckoutFromPoolWorkers) {
  threading::ThreadPool pool(4);
  std::atomic<int> failures{0};
  threading::parallel_for_each(pool, 0, 64, [&](std::size_t i) {
    auto& ws = Workspace::local();
    auto a = ws.acquire(300 + i);
    auto b = ws.acquire(300 + i);
    if (a.data() == b.data()) failures.fetch_add(1);
    // Fill both leases, then verify the first survived the second's writes.
    const auto va = static_cast<float>(i);
    const auto vb = static_cast<float>(i) + 0.5f;
    for (std::size_t j = 0; j < a.size(); ++j) a.data()[j] = va;
    for (std::size_t j = 0; j < b.size(); ++j) b.data()[j] = vb;
    for (std::size_t j = 0; j < a.size(); ++j) {
      if (a.data()[j] != va) {
        failures.fetch_add(1);
        break;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(WorkspaceNuma, NodeProbesAreConsistent) {
  // The syscall wrappers must agree with each other: a node index returned
  // for the current thread or a first-touched buffer is within
  // [0, node_count), or -1 where the platform can't say.
  const int nodes = numa::node_count();
  EXPECT_GE(nodes, 1);
  const int here = numa::current_node();
  EXPECT_GE(here, -1);
  if (here >= 0) {
    EXPECT_LT(here, nodes);
  }
  std::vector<float> buf(4096);
  numa::first_touch(buf.data(), buf.size() * sizeof(float));
  const int node = numa::node_of(buf.data());
  EXPECT_GE(node, -1);
  if (node >= 0) {
    EXPECT_LT(node, nodes);
  }
}

TEST(WorkspaceNuma, RemoteHitsStayZeroWithinOneThread) {
  // A buffer first-touched and re-acquired on the same thread can never be
  // remote (and on a single-node machine nothing ever is).
  Workspace ws;
  for (int round = 0; round < 3; ++round) {
    auto lease = ws.acquire(2048);
    lease.data()[0] = 1.0f;
  }
  EXPECT_GE(ws.pool_hits(), 2u);
  if (numa::node_count() == 1) {
    EXPECT_EQ(ws.remote_hits(), 0u);
  } else {
    // Multi-node machines may migrate the thread between acquires; the
    // counter only ever counts pool hits.
    EXPECT_LE(ws.remote_hits(), ws.pool_hits());
  }
}

}  // namespace
}  // namespace fcma::core
