// Reproduces Table 5: elapsed time and GFLOPS of the matrix-multiplication
// routines in the correlation-computation and SVM-kernel stages, our
// blocked kernels vs the generic (MKL-like) baseline, on the modeled Xeon
// Phi 5110P.
//
// Paper values: ours 170ms/126GF (corr) and 400ms/430GF (syrk);
//               MKL  230ms/93GF  (corr) and 1600ms/108GF (syrk).
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

struct OpResult {
  double gflops;
  double full_time_ms;
};

/// Runs `op` instrumented at scaled dims, then scales to the paper's flop
/// count: GFLOPS is scale-invariant, full time = paper flops / rate.
template <typename Op>
OpResult measure(Op&& op, double paper_gflop_count) {
  memsim::Instrument ins;
  op(ins);
  const auto arch = archsim::Phi5110P();
  const double gflops = arch.modeled_gflops(ins.events());
  return OpResult{gflops, paper_gflop_count / gflops * 1000.0};
}

}  // namespace

int main(int argc, char** argv) {
  const fcma::bench::MetricsSidecar metrics(argv[0]);
  Cli cli("bench_table5_matmul_gflops",
          "Table 5: matmul GFLOPS, blocked kernels vs generic baseline");
  cli.add_flag("voxels", "16384", "scaled brain size N for the corr gemm");
  cli.add_flag("syrk-voxels", "4096", "scaled brain size N for the svm syrk");
  cli.add_flag("epochs", "4", "scaled epoch count for the corr stage");
  if (!cli.parse(argc, argv)) return 0;
  const auto n = static_cast<std::size_t>(cli.get_int("voxels"));
  const auto n_syrk = static_cast<std::size_t>(cli.get_int("syrk-voxels"));
  const auto epochs = static_cast<std::size_t>(cli.get_int("epochs"));

  bench::print_preamble(
      "Table 5 reproduction: matrix multiplication time and GFLOPS");

  // Correlation stage shape (paper: 216 x [120,12]*[12,34470], 21.443
  // GFLOP); scaled: `epochs` multiplications against an N-voxel brain.
  const linalg::Matrix a = random_matrix(120, 12, 1);
  const linalg::Matrix b = random_matrix(n, 12, 2);
  const double corr_paper_gflop = 21.443;

  const OpResult corr_opt = measure(
      [&](memsim::Instrument& ins) {
        linalg::Matrix c(120, n);
        AlignedBuffer<float> bt(a.cols() * linalg::opt::kGemmPanelCols);
        for (std::size_t e = 0; e < epochs; ++e) {
          linalg::opt::gemm_nt_instrumented(a.view(), b.view(), c.view(),
                                            ins, 16, bt.data());
        }
      },
      corr_paper_gflop);
  const OpResult corr_base = measure(
      [&](memsim::Instrument& ins) {
        linalg::Matrix c(120, n);
        for (std::size_t e = 0; e < epochs; ++e) {
          linalg::baseline::gemm_nt_instrumented(a.view(), b.view(), c.view(),
                                                 ins);
        }
      },
      corr_paper_gflop);

  // SVM kernel stage shape (paper: [204,34470] * transpose, 172.14 GFLOP
  // per voxel task of 120 voxels... the paper reports one multiplication).
  const linalg::Matrix d = random_matrix(204, n_syrk, 3);
  const double syrk_paper_gflop = 172.14;
  const OpResult syrk_opt = measure(
      [&](memsim::Instrument& ins) {
        linalg::Matrix c(204, 204);
        linalg::opt::syrk_instrumented(d.view(), c.view(), ins);
      },
      syrk_paper_gflop);
  const OpResult syrk_base = measure(
      [&](memsim::Instrument& ins) {
        linalg::Matrix c(204, 204);
        linalg::baseline::syrk_instrumented(d.view(), c.view(), ins);
      },
      syrk_paper_gflop);

  Table t("Table 5: matmul routines on the modeled Phi 5110P");
  t.header({"impl", "function", "time (ms)", "GFLOPS", "paper time",
            "paper GFLOPS"});
  t.row({"our blocking", "correlation matrix", Table::num(corr_opt.full_time_ms, 0),
         Table::num(corr_opt.gflops, 0), "170 ms", "126"});
  t.row({"our blocking", "SVM kernel matrix", Table::num(syrk_opt.full_time_ms, 0),
         Table::num(syrk_opt.gflops, 0), "400 ms", "430"});
  t.row({"baseline (MKL-like)", "correlation matrix",
         Table::num(corr_base.full_time_ms, 0), Table::num(corr_base.gflops, 0),
         "230 ms", "93"});
  t.row({"baseline (MKL-like)", "SVM kernel matrix",
         Table::num(syrk_base.full_time_ms, 0), Table::num(syrk_base.gflops, 0),
         "1600 ms", "108"});
  t.print();

  std::printf("\nshape check: ours beats baseline on both ops: %s; syrk gap "
              "larger than corr gap: %s\n",
              (corr_opt.gflops > corr_base.gflops &&
               syrk_opt.gflops > syrk_base.gflops)
                  ? "yes"
                  : "NO",
              (syrk_opt.gflops / syrk_base.gflops >
               corr_opt.gflops / corr_base.gflops)
                  ? "yes"
                  : "NO");
  return 0;
}
