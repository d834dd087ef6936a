// Reproduces paper Fig 12: end-to-end performance of SOAPsnp, GSNP_CPU, and
// GSNP across all 24 human chromosomes (sizes scaled proportionally to the
// hg18 karyotype; --chr1-sites controls the scale).
//
// Expected shape: GSNP wins on every chromosome by a large factor (paper:
// at least 40x; three days -> two hours for the whole genome).  Results are
// verified identical across engines on every chromosome.  The CPU baselines,
// SOAPsnp and GSNP_CPU, run on one core as in the paper.

#include <cstdio>

#include "bench_util.hpp"
#include "src/core/consistency.hpp"
#include "src/genome/karyotype.hpp"

using namespace gsnp;
using namespace gsnp::bench;

int main(int argc, char** argv) {
  const u64 chr1_sites = flag_u64(argc, argv, "--chr1-sites", 24'000);
  const u64 n_chroms =
      flag_u64(argc, argv, "--chromosomes", genome::kHumanKaryotype.size());
  print_banner("bench_fig12_end_to_end",
               "Fig 12: end-to-end comparison over all 24 chromosomes",
               "Chromosome sizes follow the hg18 karyotype, chr1 scaled to " +
                   std::to_string(chr1_sites) + " sites.");
  const fs::path dir = bench_dir("fig12");

  std::printf("%-6s %10s %12s %12s %10s %10s\n", "", "sites", "SOAPsnp(s)",
              "GSNP_CPU(s)", "GSNP(s)", "speedup");

  double totals[3] = {0, 0, 0};
  for (std::size_t c = 0;
       c < n_chroms && c < genome::kHumanKaryotype.size(); ++c) {
    const auto& info = genome::kHumanKaryotype[c];
    DatasetSpec spec;
    spec.name = std::string(info.name);
    spec.sites = genome::scaled_sites(info, chr1_sites);
    spec.depth = 10.0;
    spec.mappable = 0.85;
    spec.seed = 500 + c;
    const Dataset data = make_dataset(spec, dir);

    auto config = config_for(data, dir, "soapsnp");
    config.window_size = 4'000;
    const auto soapsnp =
        on_one_core([&] { return core::run_soapsnp(config); });
    const fs::path soapsnp_out = config.output_file;

    config = config_for(data, dir, "gsnpcpu");
    config.window_size = 65'536;
    const auto gsnp_cpu =
        on_one_core([&] { return core::run_gsnp_cpu(config); });

    device::Device dev;
    config = config_for(data, dir, "gsnp");
    config.window_size = 65'536;
    const auto gsnp = core::run_gsnp(config, dev);

    const auto check = core::compare_output_files(soapsnp_out,
                                                  config.output_file);
    if (!check.identical) {
      std::printf("CONSISTENCY FAILURE on %s:\n%s\n", spec.name.c_str(),
                  check.detail.c_str());
      return 1;
    }

    totals[0] += soapsnp.total();
    totals[1] += gsnp_cpu.total();
    totals[2] += gsnp.total();
    std::printf("%-6s %10llu %12.2f %12.3f %10.3f %9.0fx\n", spec.name.c_str(),
                static_cast<unsigned long long>(spec.sites), soapsnp.total(),
                gsnp_cpu.total(), gsnp.total(),
                soapsnp.total() / gsnp.total());
  }

  std::printf("\nwhole-genome totals: SOAPsnp %.1fs, GSNP_CPU %.1fs (%.1fx), "
              "GSNP %.1fs (%.1fx)\n",
              totals[0], totals[1], totals[0] / totals[1], totals[2],
              totals[0] / totals[2]);
  std::printf("all 24 chromosome outputs verified identical across engines\n");
  print_paper_note("paper: >= 40x on every chromosome; whole genome three "
                   "days (SOAPsnp) -> about two hours (GSNP)");
  return 0;
}
