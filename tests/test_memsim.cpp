// Unit tests for the cache simulator, VPU counter and instrumentation
// facade — the vTune replacement every event-count table relies on.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "linalg/baseline.hpp"
#include "memsim/cache.hpp"
#include "memsim/instrument.hpp"
#include "memsim/vpu.hpp"

namespace fcma::memsim {
namespace {

CacheConfig tiny_l1() {
  return {.size_bytes = 1024, .associativity = 2, .line_bytes = 64};
}
CacheConfig tiny_l2() {
  return {.size_bytes = 4096, .associativity = 4, .line_bytes = 64};
}

TEST(CacheLevel, CompulsoryMissThenHit) {
  CacheLevel level(tiny_l1());
  EXPECT_FALSE(level.access(100));
  EXPECT_TRUE(level.access(100));
}

TEST(CacheLevel, EvictsLeastRecentlyUsed) {
  // 1KB, 2-way, 64B lines -> 8 sets.  Lines mapping to the same set differ
  // by multiples of 8 in line address.
  CacheLevel level(tiny_l1());
  EXPECT_FALSE(level.access(0));
  EXPECT_FALSE(level.access(8));
  EXPECT_TRUE(level.access(0));    // 0 is now MRU
  EXPECT_FALSE(level.access(16));  // evicts 8 (LRU)
  EXPECT_TRUE(level.access(0));
  EXPECT_FALSE(level.access(8));   // 8 was evicted
}

TEST(CacheLevel, FlushDropsEverything) {
  CacheLevel level(tiny_l1());
  level.access(1);
  level.access(2);
  level.flush();
  EXPECT_FALSE(level.access(1));
  EXPECT_FALSE(level.access(2));
}

TEST(CacheLevel, DistinctSetsDoNotConflict) {
  CacheLevel level(tiny_l1());
  for (std::uint64_t line = 0; line < 8; ++line) {
    EXPECT_FALSE(level.access(line));
  }
  for (std::uint64_t line = 0; line < 8; ++line) {
    EXPECT_TRUE(level.access(line));
  }
}

TEST(CacheConfig, SetsComputation) {
  EXPECT_EQ(phi_l1().sets(), 32 * 1024 / (8 * 64));
  EXPECT_EQ(phi_l2().sets(), 512 * 1024 / (8 * 64));
}

TEST(CacheSim, CountsRefsAndMisses) {
  CacheSim sim(tiny_l1(), tiny_l2());
  AlignedBuffer<float> buf(64);
  sim.access(buf.data(), 4);
  sim.access(buf.data(), 4);  // L1 hit
  const CacheStats& s = sim.stats();
  EXPECT_EQ(s.refs, 2u);
  EXPECT_EQ(s.l1_misses, 1u);
  EXPECT_EQ(s.l2_misses, 1u);
  EXPECT_EQ(s.bytes, 8u);
}

TEST(CacheSim, WideAccessSpanningTwoLinesIsOneRef) {
  CacheSim sim(tiny_l1(), tiny_l2());
  AlignedBuffer<float> buf(64);
  // 64 floats starting 32 bytes into a line -> spans 5 lines? No: 16 floats
  // = 64 bytes starting at offset 32 spans exactly 2 lines.
  sim.access(buf.data() + 8, 16 * sizeof(float));
  EXPECT_EQ(sim.stats().refs, 1u);
  EXPECT_EQ(sim.stats().l1_misses, 2u);
}

TEST(CacheSim, L2HoldsWhatL1Cannot) {
  CacheSim sim(tiny_l1(), tiny_l2());
  // Touch 32 lines (2KB): exceeds the 1KB L1 but fits the 4KB L2.
  AlignedBuffer<float> buf(32 * 16);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < 32; ++i) {
      sim.access(buf.data() + i * 16, 4);
    }
  }
  const CacheStats& s = sim.stats();
  EXPECT_EQ(s.l2_misses, 32u);        // only compulsory misses at L2
  EXPECT_GT(s.l1_misses, s.l2_misses);  // L1 thrashes on pass 2
}

TEST(CacheSim, StreamLargerThanL2MissesEveryLine) {
  CacheSim sim(tiny_l1(), tiny_l2());
  const std::size_t lines = 256;  // 16KB stream through a 4KB L2
  AlignedBuffer<float> buf(lines * 16);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < lines; ++i) {
      sim.access(buf.data() + i * 16, 4);
    }
  }
  EXPECT_EQ(sim.stats().l2_misses, 2 * lines);
}

TEST(CacheSim, ResetStatsKeepsContents) {
  CacheSim sim(tiny_l1(), tiny_l2());
  AlignedBuffer<float> buf(16);
  sim.access(buf.data(), 4);
  sim.reset_stats();
  sim.access(buf.data(), 4);  // still cached
  EXPECT_EQ(sim.stats().refs, 1u);
  EXPECT_EQ(sim.stats().l1_misses, 0u);
}

constexpr std::size_t kPage = 4096;

// Page-aligned floats, freed with the pointer.
struct PageBuffer {
  explicit PageBuffer(std::size_t pages)
      : data(static_cast<float*>(std::aligned_alloc(kPage, pages * kPage))) {}
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;
  ~PageBuffer() { std::free(data); }
  float* data;
};

// The instrumented baseline gemm of 4 rows of A against 9 rows of B, which
// streams B once per A row.  B's rows are a page long, start `offset`
// floats into their pages (a multiple of 16, a line) and lie
// `stride_pages` pages apart.
KernelEvents gemm_events(std::size_t stride_pages, std::size_t offset) {
  constexpr std::size_t kK = kPage / sizeof(float);
  const std::size_t b_ld = stride_pages * kK;
  PageBuffer a(4);
  PageBuffer b(9 * stride_pages + 1);
  PageBuffer c(1);
  for (std::size_t i = 0; i < 4 * kK; ++i) a.data[i] = 1.0f;
  float* b0 = b.data + offset;
  for (std::size_t j = 0; j < 9; ++j) {
    for (std::size_t k = 0; k < kK; ++k) b0[j * b_ld + k] = 0.5f;
  }
  Instrument ins;  // Xeon Phi: a 512 KB L2 of 1024 sets
  linalg::baseline::gemm_nt_instrumented(
      linalg::ConstMatrixView{a.data, 4, kK, kK},
      linalg::ConstMatrixView{b0, 9, kK, b_ld},
      linalg::MatrixView{c.data, 4, 9, 9}, ins);
  return ins.events();
}

TEST(CacheSim, MissesDoNotDependOnWhereTheHeapPutTheBuffers) {
  // By virtual address, B rows 16 pages apart all have the same L2 set bits
  // (1024 sets of 64-byte lines span 16 pages), so nine of them overflow
  // the 8 ways of one set range and thrash, while rows a page apart spread
  // over every set; a row starting mid-page shifts its L1 sets.  Lines are
  // numbered by first touch, and each placement touches its lines in the
  // same order, so all of them miss alike.
  const KernelEvents packed = gemm_events(1, 0);
  for (const auto& [stride, offset] :
       {std::pair<std::size_t, std::size_t>{16, 0}, {16, 48}, {3, 400}}) {
    const KernelEvents moved = gemm_events(stride, offset);
    EXPECT_EQ(moved.mem_refs, packed.mem_refs) << stride << " " << offset;
    EXPECT_EQ(moved.l1_misses, packed.l1_misses) << stride << " " << offset;
    EXPECT_EQ(moved.l2_misses, packed.l2_misses) << stride << " " << offset;
  }
  EXPECT_GT(packed.l2_misses, 0u);
}

TEST(VpuCounter, IntensityIsElementsPerInstruction) {
  VpuCounter vpu;
  vpu.op(16);
  vpu.op(16);
  vpu.op(8);
  EXPECT_EQ(vpu.instructions(), 3u);
  EXPECT_EQ(vpu.elements(), 40u);
  EXPECT_NEAR(vpu.intensity(), 40.0 / 3.0, 1e-12);
}

TEST(VpuCounter, EmptyCounterHasZeroIntensity) {
  VpuCounter vpu;
  EXPECT_DOUBLE_EQ(vpu.intensity(), 0.0);
}

TEST(VpuCounter, BulkOpsAccumulate) {
  VpuCounter vpu;
  vpu.ops(10, 16);
  EXPECT_EQ(vpu.instructions(), 10u);
  EXPECT_EQ(vpu.elements(), 160u);
}

TEST(VpuCounter, ScalarCodeScoresOne) {
  VpuCounter vpu;
  vpu.ops(100, 1);
  EXPECT_DOUBLE_EQ(vpu.intensity(), 1.0);
}

TEST(Instrument, VectorLoadsBeatScalarLoadsOnRefs) {
  AlignedBuffer<float> buf(1024);
  Instrument vec(Machine::kPhi5110P);
  for (std::size_t i = 0; i < 1024; i += 16) vec.load(buf.data() + i, 16);
  Instrument scalar(Machine::kPhi5110P);
  for (std::size_t i = 0; i < 1024; ++i) scalar.load(buf.data() + i, 1);
  EXPECT_EQ(vec.events().mem_refs * 16, scalar.events().mem_refs);
  // Same lines touched: identical L2 misses.
  EXPECT_EQ(vec.events().l2_misses, scalar.events().l2_misses);
  EXPECT_DOUBLE_EQ(vec.events().vector_intensity(), 16.0);
  EXPECT_DOUBLE_EQ(scalar.events().vector_intensity(), 1.0);
}

TEST(Instrument, BroadcastTouchesOnlyFourBytes) {
  AlignedBuffer<float> buf(64);
  Instrument ins(Machine::kPhi5110P);
  ins.load_broadcast(buf.data(), 16);
  EXPECT_EQ(ins.events().mem_refs, 1u);
  EXPECT_EQ(ins.events().l2_misses, 1u);  // one line only
  EXPECT_EQ(ins.events().vpu_elements, 16u);
}

TEST(Instrument, ArithCountsFlops) {
  Instrument ins;
  ins.arith(16, 10, 32);  // 10 FMAs, 32 flops each
  EXPECT_EQ(ins.events().flops, 320u);
  EXPECT_EQ(ins.events().vpu_instructions, 10u);
  EXPECT_EQ(ins.events().mem_refs, 0u);
}

TEST(Instrument, XeonMachineUsesLargerLlc) {
  // Working set of 1MB: thrashes the Phi's 512KB L2 but fits Xeon's LLC.
  const std::size_t floats = 1 << 18;
  AlignedBuffer<float> buf(floats);
  auto run = [&buf, floats](Machine m) {
    Instrument ins(m);
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = 0; i < floats; i += 16) {
        ins.load(buf.data() + i, 16);
      }
    }
    return ins.events().l2_misses;
  };
  EXPECT_GT(run(Machine::kPhi5110P), 2 * run(Machine::kXeonE5_2670));
}

TEST(Instrument, ResetClearsEverything) {
  AlignedBuffer<float> buf(16);
  Instrument ins;
  ins.load(buf.data(), 16);
  ins.arith(16, 1, 32);
  ins.reset();
  const KernelEvents e = ins.events();
  EXPECT_EQ(e.mem_refs, 0u);
  EXPECT_EQ(e.flops, 0u);
  EXPECT_EQ(e.vpu_instructions, 0u);
}

TEST(Instrument, FlushCacheForcesRemisses) {
  AlignedBuffer<float> buf(16);
  Instrument ins;
  ins.load(buf.data(), 16);
  ins.flush_cache();
  ins.load(buf.data(), 16);
  EXPECT_EQ(ins.events().l2_misses, 2u);
}

TEST(KernelEvents, ArithmeticOperators) {
  KernelEvents a{.flops = 10, .vpu_instructions = 2, .vpu_elements = 32,
                 .mem_refs = 5, .l1_misses = 3, .l2_misses = 1};
  KernelEvents b = a;
  b += a;
  EXPECT_EQ(b.flops, 20u);
  EXPECT_EQ(b.mem_refs, 10u);
  const KernelEvents d = b - a;
  EXPECT_EQ(d.flops, a.flops);
  EXPECT_EQ(d.l2_misses, a.l2_misses);
}

}  // namespace
}  // namespace fcma::memsim
