// bench_overlap — the stream-overlap benchmark (plain harness, like
// bench_smoke: no google-benchmark dependency, deterministic, self-checking).
//
// Runs the GSNP engine over the same multi-window dataset serially and
// overlapped (EngineConfig::overlapped), under both batch plans — fixed
// windows and a 1 MiB depth-aware batch budget — and reports the modeled
// device wall seconds each way.  The overlapped wall replays the
// stream timelines with event dependencies — concurrent streams are charged
// max(compute, transfer) instead of the serial sum — so with at least two
// windows the output/compression stream hides behind the compute stream and
// the overlapped wall must be *strictly* below the serial wall.  A serial
// run has one stream, so its modeled wall must equal its modeled serial
// seconds exactly.  The harness also re-verifies the bit-exactness
// contract: identical output bytes and identical device counters across
// both modes of one plan.
//
//   bench_overlap [--workdir DIR] [--sites N] [--window N] [--depth X]
//
// Exit codes: 0 ok, 1 a check failed (no overlap win or output mismatch).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/engine.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/alignment.hpp"
#include "src/reads/simulator.hpp"

namespace fs = std::filesystem;
using namespace gsnp;

namespace {

std::string read_file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct RunResult {
  core::RunReport report;
  std::string output_bytes;
  device::DeviceCounters counters;
};

RunResult run_once(const fs::path& workdir, const genome::Reference& ref,
                   const fs::path& align, u32 window, bool overlapped,
                   u64 batch_bytes) {
  core::EngineConfig config;
  config.alignment_file = align;
  config.reference = &ref;
  config.batch_bytes = batch_bytes;
  const std::string tag = std::string(overlapped ? "over" : "serial") +
                          "_b" + std::to_string(batch_bytes);
  config.output_file = workdir / ("out_" + tag + ".snp");
  config.temp_file = workdir / ("tmp_" + tag + ".bin");
  config.window_size = window;
  config.overlapped = overlapped;

  device::Device dev;  // fresh device per run: counters start at zero
  RunResult r;
  r.report = core::run_gsnp(config, dev);
  r.output_bytes = read_file_bytes(config.output_file);
  r.counters = dev.counters();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path workdir = fs::temp_directory_path() / "gsnp_bench_overlap";
  u64 sites = 60'000;
  u32 window = 8'192;
  double depth = 6.0;
  for (int i = 1; i < argc; ++i) {
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_overlap: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workdir") == 0) workdir = need_value("--workdir");
    else if (std::strcmp(argv[i], "--sites") == 0)
      sites = std::stoull(need_value("--sites"));
    else if (std::strcmp(argv[i], "--window") == 0)
      window = static_cast<u32>(std::stoul(need_value("--window")));
    else if (std::strcmp(argv[i], "--depth") == 0)
      depth = std::stod(need_value("--depth"));
    else {
      std::fprintf(stderr,
                   "usage: bench_overlap [--workdir DIR] [--sites N] "
                   "[--window N] [--depth X]\n");
      return 2;
    }
  }

  try {
    fs::create_directories(workdir);

    genome::GenomeSpec gspec;
    gspec.name = "chrO";
    gspec.length = sites;
    gspec.seed = 404;
    const genome::Reference ref = genome::generate_reference(gspec);
    genome::SnpPlantSpec pspec;
    pspec.seed = gspec.seed + 1;
    const genome::Diploid individual(ref, plant_snps(ref, pspec));
    reads::ReadSimSpec rspec;
    rspec.depth = depth;
    rspec.seed = gspec.seed + 2;
    const fs::path align = workdir / "align.soap";
    reads::write_alignment_file(align,
                                reads::simulate_reads(individual, rspec));

    int failures = 0;
    for (const u64 batch_bytes : {u64{0}, u64{1} << 20}) {
      const char* plan = batch_bytes == 0 ? "fixed" : "batched";
      const RunResult serial =
          run_once(workdir, ref, align, window, false, batch_bytes);
      GSNP_CHECK_MSG(serial.report.windows >= 2,
                     "dataset too small: need >= 2 windows for overlap, got "
                         << serial.report.windows
                         << " (raise --sites or lower --window)");

      std::printf("%-8s %-10s %8s %12s %12s %8s\n", "plan", "config",
                  "windows", "modeled_wall", "serial_wall", "speedup");
      std::printf("%-8s %-10s %8llu %12.6f %12.6f %8s\n", plan, "serial",
                  static_cast<unsigned long long>(serial.report.windows),
                  serial.report.modeled_wall_seconds,
                  serial.report.modeled_serial_seconds, "1.00x");
      if (serial.report.modeled_wall_seconds !=
          serial.report.modeled_serial_seconds) {
        std::fprintf(stderr,
                     "FAIL: %s serial modeled wall %.9f differs from its "
                     "modeled serial %.9f\n",
                     plan, serial.report.modeled_wall_seconds,
                     serial.report.modeled_serial_seconds);
        failures++;
      }

      const RunResult over =
          run_once(workdir, ref, align, window, true, batch_bytes);
      const double wall = over.report.modeled_wall_seconds;
      const double base = serial.report.modeled_serial_seconds;
      std::printf("%-8s %-10s %8llu %12.6f %12.6f %7.2fx\n", plan,
                  "overlapped",
                  static_cast<unsigned long long>(over.report.windows), wall,
                  over.report.modeled_serial_seconds,
                  wall > 0.0 ? base / wall : 0.0);

      if (over.output_bytes != serial.output_bytes) {
        std::fprintf(stderr,
                     "FAIL: %s overlapped output differs from serial "
                     "(%zu vs %zu bytes)\n",
                     plan, over.output_bytes.size(),
                     serial.output_bytes.size());
        failures++;
      }
      if (std::memcmp(&over.counters, &serial.counters,
                      sizeof(device::DeviceCounters)) != 0) {
        std::fprintf(stderr,
                     "FAIL: %s overlapped device counters differ from "
                     "serial\n",
                     plan);
        failures++;
      }
      // Counters identical => modeled serial seconds identical; the
      // overlapped wall must then be strictly better, not merely equal.
      if (!(wall < base)) {
        std::fprintf(stderr,
                     "FAIL: %s overlapped modeled wall %.9f not strictly "
                     "below serial %.9f\n",
                     plan, wall, base);
        failures++;
      }
    }

    if (failures > 0) {
      std::fprintf(stderr, "bench_overlap: %d check(s) failed\n", failures);
      return 1;
    }
    std::printf("bench_overlap OK: overlapped wall strictly below serial, "
                "outputs and counters bit-identical\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_overlap: %s\n", e.what());
    return 1;
  }
}
