// Ablation: how the gemm panel width and the syrk panel depth affect the
// kernels.  DESIGN.md calls out the blocking parameters (512-column gemm
// panels, 96-deep syrk panels) as the load-bearing choices of optimization
// idea #1; this bench sweeps them on the host CPU (wall clock) and through
// the cache simulator (Phi L2 misses).
#include <algorithm>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "linalg/opt.hpp"
#include "linalg/reference.hpp"

using namespace fcma;

namespace {

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  linalg::Matrix m(r, c);
  Rng rng(seed);
  for (auto& v : m.flat()) v = rng.uniform(-1.0f, 1.0f);
  return m;
}

// Panel-width-parameterized gemm built from the public panel primitives.
double gemm_with_panel(const linalg::Matrix& a, const linalg::Matrix& b,
                       linalg::Matrix& c, std::size_t panel,
                       int repeats) {
  std::vector<float> bt(a.cols() * panel);
  WallTimer timer;
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t j0 = 0; j0 < b.rows(); j0 += panel) {
      const std::size_t j1 = std::min(b.rows(), j0 + panel);
      linalg::opt::pack_bt_panel(b.view(), j0, j1, bt.data());
      for (std::size_t i = 0; i < a.rows(); ++i) {
        linalg::opt::gemm_row_panel(a.row(i), a.cols(), bt.data(), j1 - j0,
                                    c.row(i) + j0);
      }
    }
  }
  return timer.millis() / repeats;
}

}  // namespace

int main(int argc, char** argv) {
  const fcma::bench::MetricsSidecar metrics(argv[0]);
  Cli cli("bench_ablation_block_size",
          "ablation: blocking parameter sweeps for the optimized kernels");
  cli.add_flag("voxels", "8192", "brain size N for the gemm sweep");
  cli.add_flag("rows", "64", "task voxels V");
  cli.add_flag("repeats", "5", "wall-clock repetitions");
  if (!cli.parse(argc, argv)) return 0;

  bench::print_preamble("Ablation: gemm panel width (idea #1 block sizing)");
  const auto n = static_cast<std::size_t>(cli.get_int("voxels"));
  const auto v = static_cast<std::size_t>(cli.get_int("rows"));
  const int repeats = static_cast<int>(cli.get_int("repeats"));

  const linalg::Matrix a = random_matrix(v, 12, 1);
  const linalg::Matrix b = random_matrix(n, 12, 2);
  linalg::Matrix c(v, n);
  linalg::Matrix want(v, n);
  linalg::reference::gemm_nt(a.view(), b.view(), want.view());

  Table t("gemm panel width sweep (host wall clock; default panel = 512)");
  t.header({"panel cols", "host ms", "GFLOP/s (host)", "max |err|"});
  const double gflop =
      2.0 * static_cast<double>(v) * static_cast<double>(n) * 12.0 / 1e9;
  for (const std::size_t panel : {64u, 128u, 256u, 512u, 1024u, 4096u}) {
    const double ms = gemm_with_panel(a, b, c, panel, repeats);
    t.row({Table::count(static_cast<long long>(panel)), Table::num(ms, 2),
           Table::num(gflop / (ms / 1e3), 1),
           Table::num(linalg::reference::max_abs_diff(want.view(), c.view()),
                      5)});
  }
  t.print();

  // Syrk micro-tile behaviour vs problem size: wall clock of the production
  // kernel against the baseline shape sensitivity (M sweep).
  Table s("syrk host wall clock vs M (N = 4096; panel depth fixed at 96)");
  s.header({"M (epochs)", "opt ms", "GFLOP/s (host)"});
  for (const std::size_t m : {96u, 204u, 408u, 540u}) {
    const linalg::Matrix d = random_matrix(m, 4096, 3);
    linalg::Matrix k(m, m);
    WallTimer timer;
    for (int r = 0; r < repeats; ++r) linalg::opt::syrk(d.view(), k.view());
    const double ms = timer.millis() / repeats;
    const double g =
        2.0 * static_cast<double>(m) * m * 4096.0 / 2.0 / 1e9;
    s.row({Table::count(static_cast<long long>(m)), Table::num(ms, 2),
           Table::num(g / (ms / 1e3), 1)});
  }
  s.print();
  return 0;
}
