// Reproduces Table 6: memory references, L2 cache misses and vectorization
// intensity of the matrix-multiplication routines (correlation gemm + SVM
// syrk combined), our blocking vs the generic baseline.
//
// Paper values: ours 9,974,870,500 refs / 121.8M misses / intensity 16;
//               MKL 34,858,368,500 refs / 708.9M misses / intensity 3.6.
#include "bench_common.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "linalg/baseline.hpp"
#include "linalg/opt.hpp"

namespace {

using namespace fcma;

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  linalg::Matrix m(r, c);
  Rng rng(seed);
  for (auto& v : m.flat()) v = rng.uniform(-1.0f, 1.0f);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const fcma::bench::MetricsSidecar metrics(argv[0]);
  Cli cli("bench_table6_matmul_events",
          "Table 6: matmul memory references, L2 misses, vector intensity");
  cli.add_flag("voxels", "16384", "scaled brain size N for the corr gemm");
  cli.add_flag("syrk-voxels", "4096", "scaled brain size N for the svm syrk");
  cli.add_flag("epochs", "4", "scaled epoch count for the corr stage");
  if (!cli.parse(argc, argv)) return 0;
  const auto n = static_cast<std::size_t>(cli.get_int("voxels"));
  const auto n_syrk = static_cast<std::size_t>(cli.get_int("syrk-voxels"));
  const auto epochs = static_cast<std::size_t>(cli.get_int("epochs"));

  bench::print_preamble(
      "Table 6 reproduction: matmul event counts (corr gemm + svm syrk)");

  const linalg::Matrix a = random_matrix(120, 12, 1);
  const linalg::Matrix b = random_matrix(n, 12, 2);
  const linalg::Matrix d = random_matrix(204, n_syrk, 3);

  auto run = [&](bool optimized) {
    memsim::Instrument ins;
    linalg::Matrix c(120, n);
    AlignedBuffer<float> bt(a.cols() * linalg::opt::kGemmPanelCols);
    for (std::size_t e = 0; e < epochs; ++e) {
      if (optimized) {
        linalg::opt::gemm_nt_instrumented(a.view(), b.view(), c.view(), ins,
                                          16, bt.data());
      } else {
        linalg::baseline::gemm_nt_instrumented(a.view(), b.view(), c.view(),
                                               ins);
      }
    }
    linalg::Matrix k(204, 204);
    if (optimized) {
      linalg::opt::syrk_instrumented(d.view(), k.view(), ins);
    } else {
      linalg::baseline::syrk_instrumented(d.view(), k.view(), ins);
    }
    return ins.events();
  };

  const auto opt = run(true);
  const auto base = run(false);

  Table t("Table 6: matmul routine events (scaled dims; ratios are the "
          "reproduction target)");
  t.header({"impl", "#memory refs", "L2 miss", "vector intensity"});
  t.row({"our blocking", Table::count(static_cast<long long>(opt.mem_refs)),
         Table::count(static_cast<long long>(opt.l2_misses)),
         Table::num(opt.vector_intensity(), 1)});
  t.row({"baseline (MKL-like)",
         Table::count(static_cast<long long>(base.mem_refs)),
         Table::count(static_cast<long long>(base.l2_misses)),
         Table::num(base.vector_intensity(), 1)});
  t.print();

  Table r("ratios: baseline / ours (paper: 3.49x refs, 5.82x L2 misses; "
          "intensity 3.6 -> 16)");
  r.header({"metric", "ours", "paper"});
  r.row({"memory-ref ratio",
         Table::num(static_cast<double>(base.mem_refs) /
                        static_cast<double>(opt.mem_refs),
                    2),
         "3.49"});
  r.row({"L2-miss ratio",
         Table::num(static_cast<double>(base.l2_misses) /
                        static_cast<double>(opt.l2_misses),
                    2),
         "5.82"});
  r.row({"optimized intensity", Table::num(opt.vector_intensity(), 1), "16"});
  r.row({"baseline intensity", Table::num(base.vector_intensity(), 1),
         "3.6"});
  r.print();
  return 0;
}
