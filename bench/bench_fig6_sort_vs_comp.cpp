// Reproduces paper Fig 6: elapsed time of the two steps of the sparse
// likelihood calculation — likelihood_sort and likelihood_comp — on the CPU
// (measured) and on the device (modeled from counters).
//
// Expected shape: both steps accelerate on the GPU, with a smaller speedup
// for sorting (paper: ~22x sort, ~40x comp — bitonic has a higher complexity
// than the CPU quicksort).

#include <cstdio>

#include "bench_util.hpp"
#include "src/common/timer.hpp"
#include "src/core/kernels.hpp"
#include "src/core/likelihood.hpp"
#include "src/core/window.hpp"
#include "src/device/perf_model.hpp"
#include "src/reads/alignment.hpp"
#include "src/sortnet/multipass.hpp"

using namespace gsnp;
using namespace gsnp::bench;

int main(int argc, char** argv) {
  const u64 chr1_sites = flag_u64(argc, argv, "--chr1-sites", 120'000);
  print_banner("bench_fig6_sort_vs_comp",
               "Fig 6: likelihood_sort vs likelihood_comp, CPU vs GPU",
               "GPU seconds are modeled M2050 time from measured operation "
               "counts.");
  const fs::path dir = bench_dir("fig6");
  const device::PerfModel model;

  std::printf("%-6s %14s %14s %14s %14s %10s %10s\n", "", "sort_cpu(s)",
              "comp_cpu(s)", "sort_gpu(s)", "comp_gpu(s)", "sort_spd",
              "comp_spd");

  for (const auto& spec : {ch1_spec(chr1_sites), ch21_spec(chr1_sites)}) {
    const Dataset data = make_dataset(spec, dir);

    // Tables (shared by CPU and device paths).
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

    double sort_cpu = 0, comp_cpu = 0, sort_gpu = 0, comp_gpu = 0;

    auto reader = std::make_shared<reads::AlignmentReader>(data.align_file);
    core::WindowLoader loader([reader] { return reader->next(); },
                              data.ref.size(), 65'536);
    core::WindowRecords win;
    core::WindowObs obs;
    std::vector<core::SiteStats> stats;
    core::BaseWordWindow sparse(0);
    while (loader.next(win)) {
      core::count_window(win, obs, stats, nullptr, &sparse);

      {  // CPU path.
        core::BaseWordWindow copy = sparse;
        Timer t;
        core::likelihood_sort_cpu(copy);
        sort_cpu += t.seconds();
        t.reset();
        for (u32 s = 0; s < win.size; ++s)
          (void)core::likelihood_sparse_site(copy.site(s), npm);
        comp_cpu += t.seconds();
      }
      {  // Device path, modeled.
        core::BaseWordWindow copy = sparse;
        auto before = dev.counters();
        sortnet::VarArrays va;
        va.values.assign(copy.words.begin(), copy.words.end());
        va.offsets = std::move(copy.offsets);
        sortnet::sort_device_multipass(dev, va);
        copy.words.assign(va.values.begin(), va.values.end());
        copy.offsets = std::move(va.offsets);
        sort_gpu +=
            model.seconds(device::counters_delta(before, dev.counters()));
        before = dev.counters();
        (void)core::device_likelihood_sparse(dev, copy, tables);
        comp_gpu +=
            model.seconds(device::counters_delta(before, dev.counters()));
      }
    }

    std::printf("%-6s %14.4f %14.4f %14.4f %14.4f %9.1fx %9.1fx\n",
                spec.name.c_str(), sort_cpu, comp_cpu, sort_gpu, comp_gpu,
                sort_cpu / sort_gpu, comp_cpu / comp_gpu);
  }
  print_paper_note("sort speedup ~22x, comp speedup ~40x (bitonic's higher "
                   "complexity makes the sort speedup smaller)");
  print_paper_note("note: the paper's CPU paid ~250ns/word (80 MB score "
                   "table, DRAM-miss per lookup on a 2009 Xeon); our 5 MB "
                   "table is L3-resident, so the measured CPU comp here is "
                   "already near the modeled GPU's worst-case-random-"
                   "bandwidth time — the comp column's absolute speedup does "
                   "not transfer at this scale (see EXPERIMENTS.md)");
  return 0;
}
