// Host wall-clock microbenchmarks of the production kernels
// (google-benchmark).  These complement the modeled-machine tables: they
// demonstrate that the optimized kernels also beat the generic baseline on
// whatever real CPU this runs on, the paper's SS5.5 observation.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "linalg/baseline.hpp"
#include "linalg/opt.hpp"
#include "linalg/simd.hpp"
#include "stats/normalization.hpp"

namespace {

using namespace fcma;

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  linalg::Matrix m(r, c);
  Rng rng(seed);
  for (auto& v : m.flat()) v = rng.uniform(-1.0f, 1.0f);
  return m;
}

void BM_CorrGemm_Optimized(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(120, 12, 1);
  const linalg::Matrix b = random_matrix(n, 12, 2);
  linalg::Matrix c(120, n);
  for (auto _ : state) {
    linalg::opt::gemm_nt(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 120 * n * 12 * 2);
}
BENCHMARK(BM_CorrGemm_Optimized)->Arg(4096)->Arg(16384);

void BM_CorrGemm_Baseline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(120, 12, 1);
  const linalg::Matrix b = random_matrix(n, 12, 2);
  linalg::Matrix c(120, n);
  for (auto _ : state) {
    linalg::baseline::gemm_nt(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 120 * n * 12 * 2);
}
BENCHMARK(BM_CorrGemm_Baseline)->Arg(4096)->Arg(16384);

void BM_Syrk_Optimized(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(m, 8192, 3);
  linalg::Matrix c(m, m);
  for (auto _ : state) {
    linalg::opt::syrk(a.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * 8192);
}
BENCHMARK(BM_Syrk_Optimized)->Arg(204)->Arg(540);

// The sweep's kernel update at the benchmark workloads' shapes: M = 216
// rows over one 3072-column block (face-scene; the block's row stride is
// its width) and M = 64 over N = 1024 (the closed loop).  Items are
// multiply-adds of the full M x M product.
void BM_SyrkAccumulate(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const linalg::Matrix a = random_matrix(m, n, 5);
  linalg::Matrix c(m, m);
  c.fill(0.0f);
  for (auto _ : state) {
    linalg::opt::syrk_accumulate(a.view(), c.view(), /*mirror=*/false);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * m * n);
}
BENCHMARK(BM_SyrkAccumulate)
    ->Args({216, 3072})
    ->Args({64, 1024})
    ->Unit(benchmark::kMicrosecond);

void BM_Syrk_Baseline(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(m, 8192, 3);
  linalg::Matrix c(m, m);
  for (auto _ : state) {
    linalg::baseline::syrk(a.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * m * 8192);
}
BENCHMARK(BM_Syrk_Baseline)->Arg(204)->Arg(540);

void BM_FisherZscoreBlock(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<float> block(12 * width);
  std::vector<float> work(12 * width);
  for (auto& v : block) v = rng.uniform(-0.95f, 0.95f);
  for (auto _ : state) {
    work = block;
    stats::fisher_zscore_block(work.data(), 12, width, width);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * 12 * width);
}
BENCHMARK(BM_FisherZscoreBlock)->Arg(4096)->Arg(34470);

// Eq. 2 epoch normalization at face-scene shape: 216 epoch panels of 8192
// voxel rows, 12 samples each, read from a dataset's [voxels x timepoints]
// layout (row stride 216 * 12) into packed rows, as normalize_epochs and a
// lease fill do.  Items are rows.
void BM_EpochZscore(benchmark::State& state) {
  constexpr std::size_t kVoxels = 8192;
  constexpr std::size_t kEpochs = 216;
  constexpr std::size_t kLen = 12;
  const linalg::Matrix data = random_matrix(kVoxels, kEpochs * kLen, 11);
  linalg::Matrix out(kEpochs * kVoxels, kLen);
  const auto& kernels = linalg::simd::kernels();
  for (auto _ : state) {
    for (std::size_t e = 0; e < kEpochs; ++e) {
      kernels.epoch_zscore(data.data() + e * kLen, data.ld(),
                           out.row(e * kVoxels), out.ld(), kVoxels, kLen);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kEpochs * kVoxels);
}
BENCHMARK(BM_EpochZscore)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
