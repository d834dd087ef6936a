// Reproduces paper Fig 5: likelihood-calculation time under the four
// representation/processor combinations —
//   SOAPsnp    : dense representation on the CPU (Algorithm 1), measured
//   GPU dense  : dense representation on the device, modeled from counters
//   GSNP_CPU   : sparse representation on the CPU (Algorithm 4), measured
//   GSNP       : sparse representation on the device (sort + optimized
//                kernel), modeled from counters
//
// Expected shape: GSNP_CPU beats SOAPsnp several-fold; GSNP beats everything;
// GPU dense sits an order of magnitude above GSNP (paper: 14-17x slower).

#include <cstdio>

#include "bench_util.hpp"
#include "src/common/timer.hpp"
#include "src/core/base_occ.hpp"
#include "src/core/kernels.hpp"
#include "src/core/likelihood.hpp"
#include "src/core/window.hpp"
#include "src/device/perf_model.hpp"
#include "src/reads/alignment.hpp"
#include "src/sortnet/multipass.hpp"

using namespace gsnp;
using namespace gsnp::bench;

namespace {

struct Fig5Result {
  double soapsnp = 0.0;
  double gpu_dense = 0.0;
  double gsnp_cpu = 0.0;
  double gsnp = 0.0;
};

Fig5Result run_dataset(const Dataset& data, u32 window_size,
                       u32 dense_window) {
  Fig5Result result;
  const device::PerfModel model;

  // One shared table set, built the way the engines build it.
  core::PMatrixCounter counter;
  {
    reads::AlignmentReader reader(data.align_file);
    while (auto rec = reader.next()) {
      if (rec->hit_count != 1) continue;
      for (u64 p = rec->pos; p < rec->pos + rec->length; ++p) {
        const u8 r = data.ref.base(p);
        if (r >= kNumBases) continue;
        reads::SiteObservation so;
        if (reads::observe_site(*rec, p, so))
          counter.add(so.quality, so.coord, r, so.base);
      }
    }
  }
  const core::PMatrix pm = core::finalize_p_matrix(counter);
  const core::NewPMatrix npm(pm);

  device::Device dev;
  const core::DeviceScoreTables tables(dev, pm, npm);

  auto reader = std::make_shared<reads::AlignmentReader>(data.align_file);
  core::WindowLoader loader([reader] { return reader->next(); },
                            data.ref.size(), window_size);
  core::WindowRecords win;
  core::WindowObs obs;
  std::vector<core::SiteStats> stats;
  core::BaseOccWindow dense(window_size);
  core::BaseWordWindow sparse(window_size);

  while (loader.next(win)) {
    core::count_window(win, obs, stats, &dense, &sparse);

    {  // SOAPsnp: dense CPU.
      Timer t;
      for (u32 s = 0; s < win.size; ++s)
        (void)core::likelihood_dense_site(dense.site(s), pm);
      result.soapsnp += t.seconds();
    }
    {  // GSNP_CPU: sparse CPU (quicksort + Algorithm 4).
      core::BaseWordWindow copy = sparse;
      Timer t;
      core::likelihood_sort_cpu(copy);
      for (u32 s = 0; s < win.size; ++s)
        (void)core::likelihood_sparse_site(copy.site(s), npm);
      result.gsnp_cpu += t.seconds();
    }
    {  // GSNP: device multipass sort + optimized kernel, modeled.
      core::BaseWordWindow copy = sparse;
      const auto before = dev.counters();
      sortnet::VarArrays va;
      va.values.assign(copy.words.begin(), copy.words.end());
      va.offsets = std::move(copy.offsets);
      sortnet::sort_device_multipass(dev, va);
      copy.words.assign(va.values.begin(), va.values.end());
      copy.offsets = std::move(va.offsets);
      (void)core::device_likelihood_sparse(dev, copy, tables);
      result.gsnp += model.seconds(device::counters_delta(before,
                                                          dev.counters()));
    }
    // GPU dense is expensive to simulate; run it on a prefix of windows and
    // scale (the per-site cost is uniform by construction of the dense scan).
    if (win.start < dense_window) {
      core::BaseWordWindow sorted = sparse;
      core::likelihood_sort_cpu(sorted);
      const auto before = dev.counters();
      (void)core::device_likelihood_dense(dev, sorted, tables);
      const double seconds =
          model.seconds(device::counters_delta(before, dev.counters()));
      result.gpu_dense +=
          seconds;  // scaled after the loop by sites ratio
    }
    dense.recycle();
  }
  // Scale GPU-dense from the simulated prefix to the whole dataset.
  const double fraction =
      std::min<double>(1.0, static_cast<double>(dense_window) /
                                static_cast<double>(data.ref.size()));
  result.gpu_dense /= fraction;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const u64 chr1_sites = flag_u64(argc, argv, "--chr1-sites", 40'000);
  const u64 dense_sites = flag_u64(argc, argv, "--gpu-dense-sites", 8'192);
  print_banner("bench_fig5_likelihood_repr",
               "Fig 5: likelihood time — dense/sparse x CPU/GPU",
               "GPU columns are modeled M2050 seconds from measured kernel "
               "operation counts (see DESIGN.md).");
  const fs::path dir = bench_dir("fig5");

  std::printf("%-6s %12s %12s %12s %12s %14s\n", "", "SOAPsnp(s)",
              "GPUdense(s)", "GSNP_CPU(s)", "GSNP(s)", "SOAPsnp/GSNP");
  for (const auto& spec : {ch1_spec(chr1_sites), ch21_spec(chr1_sites)}) {
    const Dataset data = make_dataset(spec, dir);
    const Fig5Result r =
        run_dataset(data, 16'384, static_cast<u32>(dense_sites));
    std::printf("%-6s %12.3f %12.3f %12.3f %12.3f %13.0fx\n",
                spec.name.c_str(), r.soapsnp, r.gpu_dense, r.gsnp_cpu, r.gsnp,
                r.soapsnp / r.gsnp);
    std::printf("  shape: GSNP_CPU %.1fx faster than SOAPsnp; GPU dense "
                "%.1fx slower than GSNP\n",
                r.soapsnp / r.gsnp_cpu, r.gpu_dense / r.gsnp);
  }
  print_paper_note("GSNP_CPU ~4-5x over SOAPsnp; GSNP two orders of magnitude "
                   "over SOAPsnp; GPU dense 14-17x slower than GSNP");
  return 0;
}
