// Reproduces paper Table I: time breakdown (sec) by components in SOAPsnp
// for the Ch.1 and Ch.21 datasets (scaled analogs; --chr1-sites to resize).
//
// Expected shape: likelihood dominates (~56% in the paper), recycle second,
// output third.  SOAPsnp runs on one core, as the paper's baseline did.

#include <cstdio>

#include "bench_util.hpp"

using namespace gsnp;
using namespace gsnp::bench;

namespace {

void print_row(const std::string& name, const core::RunReport& r) {
  std::printf("%-6s", name.c_str());
  for (const char* c : core::kComponents) std::printf(" %8.2f", r.component(c));
  std::printf(" %8.2f\n", r.total());
}

}  // namespace

int main(int argc, char** argv) {
  const u64 chr1_sites = flag_u64(argc, argv, "--chr1-sites", 100'000);
  print_banner("bench_table1_soapsnp_breakdown",
               "Table I: time breakdown (sec) by components in SOAPsnp",
               "Scaled analogs of Ch.1/Ch.21 (paper: 247M / 47M sites; here " +
                   std::to_string(chr1_sites) + " / " +
                   std::to_string(static_cast<u64>(kCh21Ratio * chr1_sites)) +
                   ").");

  const fs::path dir = bench_dir("table1");

  std::printf("%-6s %8s %8s %8s %8s %8s %8s %8s %8s\n", "", "cal_p", "read",
              "count", "likeli", "post", "output", "recycle", "Total");
  for (const auto& spec : {ch1_spec(chr1_sites), ch21_spec(chr1_sites)}) {
    const Dataset data = make_dataset(spec, dir);
    auto config = config_for(data, dir, "soapsnp");
    config.window_size = 4'000;  // the paper's SOAPsnp default
    const core::RunReport report =
        on_one_core([&] { return core::run_soapsnp(config); });
    print_row(spec.name, report);

    const double likeli_share = report.component("likeli") / report.total();
    std::printf("  -> likelihood share of total: %.0f%%  (paper: ~56%%); "
                "recycle is #%d\n",
                100.0 * likeli_share,
                report.component("recycle") > report.component("output") ? 2
                                                                         : 3);
  }
  print_paper_note("Ch.1: 258 101 376 12267 113 550 8214 | total 21879;  "
                   "Ch.21: 31 12 55 1854 17 103 1603 | total 3675");
  return 0;
}
