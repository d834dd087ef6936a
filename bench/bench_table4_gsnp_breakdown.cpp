// Reproduces paper Table IV: time breakdown (sec) of GSNP per component and
// the speedup of each component relative to SOAPsnp (Table I) on the same
// datasets.
//
// Expected shape: likelihood and recycle accelerated by orders of magnitude;
// output improved ~13-15x by compression; cal_p slightly slowed by temporary
// file generation but cal_p + read together net positive; overall speedup
// large (paper: 42-50x; see EXPERIMENTS.md for why this scaled-down, modern-
// host reproduction lands lower).  SOAPsnp runs on one core, as the paper's
// baseline did.

#include <cstdio>

#include "bench_util.hpp"

using namespace gsnp;
using namespace gsnp::bench;

int main(int argc, char** argv) {
  const u64 chr1_sites = flag_u64(argc, argv, "--chr1-sites", 100'000);
  print_banner("bench_table4_gsnp_breakdown",
               "Table IV: GSNP time breakdown and speedup vs SOAPsnp",
               "GSNP device components are modeled M2050 seconds from "
               "measured operation counts; host components are wall-clock.");
  const fs::path dir = bench_dir("table4");

  std::printf("%-6s %-9s %9s %9s %9s %9s %9s %9s %9s %9s\n", "", "", "cal_p",
              "read", "count", "likeli", "post", "output", "recycle", "Total");

  for (const auto& spec : {ch1_spec(chr1_sites), ch21_spec(chr1_sites)}) {
    const Dataset data = make_dataset(spec, dir);

    auto soapsnp_config = config_for(data, dir, "soapsnp");
    soapsnp_config.window_size = 4'000;
    const auto soapsnp =
        on_one_core([&] { return core::run_soapsnp(soapsnp_config); });

    device::Device dev;
    auto gsnp_config = config_for(data, dir, "gsnp");
    gsnp_config.window_size = 65'536;
    const auto gsnp = core::run_gsnp(gsnp_config, dev);

    std::printf("%-6s %-9s", spec.name.c_str(), "SOAPsnp");
    for (const char* c : core::kComponents)
      std::printf(" %9.2f", soapsnp.component(c));
    std::printf(" %9.2f\n", soapsnp.total());

    std::printf("%-6s %-9s", spec.name.c_str(), "GSNP");
    for (const char* c : core::kComponents)
      std::printf(" %9.3f", gsnp.component(c));
    std::printf(" %9.3f\n", gsnp.total());

    std::printf("%-6s %-9s", spec.name.c_str(), "speedup");
    for (const char* c : core::kComponents) {
      const double g = gsnp.component(c);
      if (g < 1e-6)
        std::printf(" %8s ", ">1000x");
      else
        std::printf(" %8.1fx", soapsnp.component(c) / g);
    }
    std::printf(" %8.1fx\n", soapsnp.total() / gsnp.total());

    std::printf("  likeli split: sort %.4fs, comp %.4fs (modeled); output "
                "%llu B vs %llu B text\n",
                gsnp.device_modeled.get("likeli_sort"),
                gsnp.device_modeled.get("likeli_comp"),
                static_cast<unsigned long long>(gsnp.output_bytes),
                static_cast<unsigned long long>(soapsnp.output_bytes));
  }
  print_paper_note("paper Ch.1 GSNP: 297 20(5) 87(4) 60(204) 16(7) 44(13) "
                   "3(2738) | total 527 (42x); Ch.21 total 73 (50x)");
  print_paper_note("Ch.21's higher speedup comes from ~30% zero-coverage "
                   "sites, which the sparse representation skips entirely");
  return 0;
}
