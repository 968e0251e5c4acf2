// Host wall-clock microbenchmarks of the production kernels
// (google-benchmark).  These complement the modeled-machine tables: they
// demonstrate that the optimized kernels also beat the generic baseline on
// whatever real CPU this runs on, the paper's SS5.5 observation.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "linalg/baseline.hpp"
#include "linalg/opt.hpp"
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

}  // namespace

BENCHMARK_MAIN();
