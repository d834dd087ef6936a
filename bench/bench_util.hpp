#pragma once
// Shared utilities for the paper-reproduction benchmark harness: scaled
// dataset construction (Ch.1 / Ch.21 analogs), engine config helpers, flag
// parsing, and table printing.
//
// Scale: the paper's Ch.1 has 247M sites; benches default to a few hundred
// thousand so the whole harness runs in minutes on one core.  Every binary
// accepts --chr1-sites=N (and friends) to scale up.

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/core/engine.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "src/reads/stats.hpp"

namespace gsnp::bench {

namespace fs = std::filesystem;

/// Paper Table II ratio: Ch.21 sites / Ch.1 sites = 47M / 247M.
inline constexpr double kCh21Ratio = 47.0 / 247.0;

struct DatasetSpec {
  std::string name = "chr1";
  u64 sites = 100'000;
  double depth = 11.0;  ///< Ch.1 is 11x in the paper; Ch.21 9.6x
  double snp_rate = 0.001;
  double mappable = 1.0;  ///< coverage target (paper: 88% Ch.1, 68% Ch.21)
  u64 seed = 1;
};

/// A generated dataset on disk plus in-memory handles.
struct Dataset {
  genome::Reference ref;
  std::vector<genome::PlantedSnp> snps;
  genome::DbSnpTable dbsnp;
  fs::path align_file;
  u64 align_bytes = 0;
  u64 num_reads = 0;
  reads::DatasetStats stats;
};

/// Generate reference + reads and write the alignment file under `dir`.
Dataset make_dataset(const DatasetSpec& spec, const fs::path& dir);

/// Ch.1 / Ch.21 analogs scaled from a chr1 site count.
DatasetSpec ch1_spec(u64 chr1_sites);
DatasetSpec ch21_spec(u64 chr1_sites);

/// Engine config pointing at a dataset (output/temp under `dir`).
core::EngineConfig config_for(const Dataset& data, const fs::path& dir,
                              const std::string& tag);

/// Scratch directory for a bench binary (created; caller may remove).
fs::path bench_dir(const std::string& bench_name);

/// Run `engine` with every compute-executor fan-out inline, on the calling
/// thread: the single-core CPU baselines the paper compares against (the
/// official SOAPsnp is single-threaded).
template <typename Engine>
core::RunReport on_one_core(Engine&& engine) {
  const InlineComputeScope one_core;
  return std::forward<Engine>(engine)();
}

// ---- flags ------------------------------------------------------------------

u64 flag_u64(int argc, char** argv, const std::string& name, u64 fallback);
double flag_double(int argc, char** argv, const std::string& name,
                   double fallback);

// ---- printing ----------------------------------------------------------------

/// Banner naming the experiment and the paper artifact it regenerates.
void print_banner(const std::string& bench_name, const std::string& paper_ref,
                  const std::string& note);

/// "what the paper reports" footnote line.
void print_paper_note(const std::string& note);

}  // namespace gsnp::bench
