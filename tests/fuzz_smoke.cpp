// fuzz_smoke: the deterministic-fuzzing gate for the hardened ingest layer.
//
// Feeds seeded mutations of well-formed SOAP/SAM input (reads/fuzz.hpp)
// through the lenient readers and the engines, asserting the contracts the
// robustness work guarantees:
//  * lenient ingest never crashes, whatever the mutation (run under
//    ASan/UBSan by scripts/verify.sh),
//  * skips are deterministic: lenient calls over a fuzzed file are
//    bit-identical to strict calls over just the surviving records,
//  * the error budget aborts runaway-garbage inputs,
//  * the quarantine sidecar and the run-manifest ingest stats record every
//    skip with its reason,
//  * the checked-in corpus (tests/corpus/ingest) pins each reason code.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/core/consistency.hpp"
#include "src/core/engine.hpp"
#include "src/core/genome_pipeline.hpp"
#include "src/core/run_manifest.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/fuzz.hpp"
#include "src/reads/sam.hpp"
#include "src/reads/simulator.hpp"
#include "tests/temp_path.hpp"

namespace gsnp {
namespace {

namespace fs = std::filesystem;

class FuzzSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_fuzz_smoke");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    genome::GenomeSpec gspec;
    gspec.name = "chrF";
    gspec.length = 20'000;
    ref_ = genome::generate_reference(gspec);
    genome::SnpPlantSpec pspec;
    const auto snps = genome::plant_snps(ref_, pspec);
    const genome::Diploid individual(ref_, snps);
    reads::ReadSimSpec rspec;
    rspec.depth = 6.0;
    records_ = reads::simulate_reads(individual, rspec);
    reads::write_alignment_file(dir_ / "align.soap", records_);
    reads::write_sam_file(dir_ / "align.sam", records_, ref_.name(),
                          ref_.size());
  }
  void TearDown() override { fs::remove_all(dir_); }

  IngestPolicy lenient(const fs::path& quarantine = {}) const {
    IngestPolicy p = IngestPolicy::make_lenient(quarantine);
    return p;
  }

  /// Lenient with the error budget disabled, for drains that must reach EOF
  /// no matter how corrupt the file is (a budget abort is a *valid* outcome
  /// of heavy fuzzing — one swapped field can install a junk chromosome name
  /// and cascade every later record into a sort violation).
  IngestPolicy unlimited_lenient() const {
    IngestPolicy p = IngestPolicy::make_lenient();
    p.max_bad_records = ~u64{0};
    p.max_bad_fraction = 1.0;
    return p;
  }

  /// The acceptance property, for the input in the format of extension
  /// `ext`: a lenient engine run over fuzzed input produces bit-identical
  /// calls to a strict run over just the surviving records.
  void expect_lenient_calls_match_strict_calls_on_survivors(
      const std::string& ext) {
    reads::FuzzOptions options;
    options.seed = 7;
    options.rate = 0.15;
    const fs::path fuzzed = dir_ / ("fuzzed" + ext);
    reads::fuzz_file(dir_ / ("align" + ext), fuzzed, options);

    // Collect the survivors with a lenient reader and re-write them clean.
    std::vector<reads::AlignmentRecord> survivors;
    {
      reads::AlignmentReader reader(fuzzed, lenient(), ref_.size());
      while (auto rec = reader.next()) survivors.push_back(std::move(*rec));
      ASSERT_GT(reader.stats().records_quarantined, 0u);
    }
    ASSERT_FALSE(survivors.empty());
    const fs::path clean = dir_ / ("survivors" + ext);
    if (ext == ".sam")
      reads::write_sam_file(clean, survivors, ref_.name(), ref_.size());
    else
      reads::write_alignment_file(clean, survivors);

    core::EngineConfig config;
    config.reference = &ref_;
    config.temp_file = dir_ / "t.tmp";

    config.alignment_file = fuzzed;
    config.output_file = dir_ / "lenient.snp";
    config.ingest = lenient(dir_ / "lenient.quarantine.txt");
    const core::RunReport lenient_report = core::run_gsnp_cpu(config);

    config.alignment_file = clean;
    config.output_file = dir_ / "strict.snp";
    config.ingest = IngestPolicy::make_strict();
    const core::RunReport strict_report = core::run_gsnp_cpu(config);

    EXPECT_EQ(lenient_report.records, strict_report.records);
    EXPECT_EQ(lenient_report.records, survivors.size());
    EXPECT_GT(lenient_report.ingest.records_quarantined, 0u);
    EXPECT_TRUE(strict_report.ingest.clean());
    const auto cmp =
        core::compare_output_files(dir_ / "lenient.snp", dir_ / "strict.snp");
    EXPECT_TRUE(cmp.identical) << cmp.detail;

    // The SOAPsnp engine reads the text twice (cal_p + window pass); its
    // lenient skips must be identical too.
    config.alignment_file = fuzzed;
    config.output_file = dir_ / "lenient_soapsnp.txt";
    config.ingest = lenient(dir_ / "soapsnp.quarantine.txt");
    const core::RunReport soapsnp_report = core::run_soapsnp(config);
    EXPECT_EQ(soapsnp_report.records, survivors.size());
    EXPECT_EQ(soapsnp_report.ingest.records_quarantined,
              lenient_report.ingest.records_quarantined);
  }

  fs::path dir_;
  genome::Reference ref_;
  std::vector<reads::AlignmentRecord> records_;
};

TEST_F(FuzzSmoke, LenientSoapIngestNeverCrashesAcrossSeeds) {
  for (u64 seed = 1; seed <= 6; ++seed) {
    reads::FuzzOptions options;
    options.seed = seed;
    options.rate = 0.25;
    const fs::path fuzzed = dir_ / ("fuzz" + std::to_string(seed) + ".soap");
    const auto report = reads::fuzz_file(dir_ / "align.soap", fuzzed, options);
    ASSERT_GT(report.mutated, 0u) << "seed " << seed;

    reads::AlignmentReader reader(fuzzed, unlimited_lenient(), ref_.size());
    u64 survivors = 0;
    while (reader.next()) ++survivors;
    const IngestStats& stats = reader.stats();
    EXPECT_EQ(stats.records_ok, survivors);
    // Every record line was either accepted or quarantined; nothing vanished.
    EXPECT_EQ(stats.records_ok + stats.records_quarantined, stats.total());
    EXPECT_LE(survivors, records_.size());
  }
}

TEST_F(FuzzSmoke, LenientSamIngestNeverCrashesAcrossSeeds) {
  for (u64 seed = 1; seed <= 6; ++seed) {
    reads::FuzzOptions options;
    options.seed = seed;
    options.rate = 0.25;
    const fs::path fuzzed = dir_ / ("fuzz" + std::to_string(seed) + ".sam");
    reads::fuzz_file(dir_ / "align.sam", fuzzed, options);

    reads::AlignmentReader reader(fuzzed, unlimited_lenient());
    u64 survivors = 0;
    while (reader.next()) ++survivors;
    EXPECT_EQ(reader.stats().records_ok, survivors);
    EXPECT_LE(survivors, records_.size());
  }
}

TEST_F(FuzzSmoke, FuzzerIsDeterministic) {
  reads::FuzzOptions options;
  options.seed = 42;
  options.rate = 0.3;
  const auto r1 = reads::fuzz_file(dir_ / "align.soap", dir_ / "a.soap",
                                   options);
  const auto r2 = reads::fuzz_file(dir_ / "align.soap", dir_ / "b.soap",
                                   options);
  EXPECT_EQ(r1.mutated, r2.mutated);
  EXPECT_EQ(r1.by_kind, r2.by_kind);
  const auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(slurp(dir_ / "a.soap"), slurp(dir_ / "b.soap"));

  options.seed = 43;
  reads::fuzz_file(dir_ / "align.soap", dir_ / "c.soap", options);
  EXPECT_NE(slurp(dir_ / "a.soap"), slurp(dir_ / "c.soap"));
}

TEST_F(FuzzSmoke, LenientCallsMatchStrictCallsOnSurvivors) {
  expect_lenient_calls_match_strict_calls_on_survivors(".soap");
}

TEST_F(FuzzSmoke, LenientSamCallsMatchStrictCallsOnSurvivors) {
  expect_lenient_calls_match_strict_calls_on_survivors(".sam");
}

TEST_F(FuzzSmoke, ErrorBudgetAbortsRunawayGarbage) {
  const fs::path bad = dir_ / "garbage.soap";
  {
    std::ofstream out(bad);
    for (int i = 0; i < 20; ++i) out << "not\ta\tvalid\trecord\n";
  }
  IngestPolicy policy = lenient();
  policy.max_bad_records = 5;
  reads::AlignmentReader reader(bad, policy);
  EXPECT_THROW(while (reader.next()) {}, Error);
  EXPECT_EQ(reader.stats().records_quarantined, 6u);  // 5 allowed + the fatal

  // The fractional budget trips even under the absolute cap.
  IngestPolicy frac = lenient();
  frac.max_bad_fraction = 0.25;
  frac.fraction_grace_records = 10;
  reads::AlignmentReader frac_reader(bad, frac);
  EXPECT_THROW(while (frac_reader.next()) {}, Error);
}

TEST_F(FuzzSmoke, QuarantineFileRecordsReasonAndLine) {
  const fs::path bad = dir_ / "two_bad.soap";
  {
    std::ofstream out(bad);
    out << "r1\tACGTA\tIIIII\t1\ta\t5\t+\tchrQ\t100\n";
    out << "r2\tACGTA\tIIIII\tnope\ta\t5\t+\tchrQ\t150\n";  // bad_integer
    out << "r3\tACGTA\tIIIII\t1\ta\t5\t+\tchrQ\t0\n";  // position_out_of_range
  }
  const fs::path qpath = dir_ / "q.txt";
  reads::AlignmentReader reader(bad, lenient(qpath));
  u64 ok = 0;
  while (reader.next()) ++ok;
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(reader.stats().records_quarantined, 2u);
  EXPECT_EQ(reader.stats().by_reason[static_cast<std::size_t>(
                IngestReason::kBadInteger)],
            1u);
  EXPECT_EQ(reader.stats().by_reason[static_cast<std::size_t>(
                IngestReason::kPositionOutOfRange)],
            1u);

  std::ifstream in(qpath);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line.rfind("#GSNP-QUARANTINE", 0), 0u) << line;
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("bad_integer"), std::string::npos);
  EXPECT_NE(contents.find("position_out_of_range"), std::string::npos);
  EXPECT_NE(contents.find("nope"), std::string::npos)  // the original line
      << contents;
}

TEST_F(FuzzSmoke, StrictModeAbortPinpointsFileLineReason) {
  const fs::path bad = dir_ / "strict.soap";
  {
    std::ofstream out(bad);
    out << "r1\tACGTA\tIIIII\t1\ta\t5\t+\tchrQ\t100\n";
    out << "r2\tACGTA\tIIIII\t1\ta\t5\t?\tchrQ\t150\n";  // bad strand
  }
  reads::AlignmentReader reader(bad);
  EXPECT_TRUE(reader.next().has_value());
  try {
    reader.next();
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), bad.string());
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.reason(), IngestReason::kBadField);
    const std::string what = e.what();
    EXPECT_NE(what.find(bad.string()), std::string::npos) << what;
    EXPECT_NE(what.find(":2:"), std::string::npos) << what;
    EXPECT_NE(what.find("strand"), std::string::npos) << what;
  }
}

TEST_F(FuzzSmoke, LineCapRejectsLongerLinesInEveryLoader) {
  // kMaxLineBytes is the longest line a loader takes: a line one byte longer
  // is line_too_long at its line number, strict or lenient, in SOAP, SAM and
  // dbSNP input.  (The fuzzer's oversize mutation stays below the cap.)
  const auto padded = [](std::string line, u64 bytes) {
    line.insert(0, bytes - line.size(), 'x');  // a longer first field
    return line;
  };
  // Strict: the long line aborts with its reason and line.  Lenient: it
  // alone is quarantined, under that reason and line.
  const auto check = [&](const fs::path& file, u64 line, u64 good,
                         const auto& load) {
    SCOPED_TRACE(file.filename().string());
    try {
      load(file, IngestPolicy::make_strict());
      ADD_FAILURE() << "no ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.reason(), IngestReason::kLineTooLong);
      EXPECT_EQ(e.line(), line);
    }
    const fs::path quarantine = file.string() + ".quarantine";
    const IngestStats stats =
        load(file, IngestPolicy::make_lenient(quarantine));
    EXPECT_EQ(stats.records_ok, good);
    EXPECT_EQ(stats.records_quarantined, 1u);
    EXPECT_EQ(stats.by_reason[static_cast<std::size_t>(
                  IngestReason::kLineTooLong)],
              1u);
    std::ifstream in(quarantine);
    const std::string contents((std::istreambuf_iterator<char>(in)), {});
    EXPECT_NE(contents.find(file.string() + ":" + std::to_string(line) +
                            "\tline_too_long\t"),
              std::string::npos);
  };

  // SOAP: a record exactly at the cap parses; one byte over does not.
  const std::string soap = "r1\tACGTA\tIIIII\t1\ta\t5\t+\tchrQ\t100";
  {
    std::ofstream out(dir_ / "cap.soap");
    out << padded(soap, kMaxLineBytes) << '\n'
        << soap << '\n'
        << padded(soap, kMaxLineBytes + 1) << '\n'
        << soap << '\n';
  }
  check(dir_ / "cap.soap", 3, 3, [](const fs::path& f, IngestPolicy p) {
    reads::AlignmentReader reader(f, std::move(p));
    while (reader.next()) {
    }
    return reader.stats();
  });

  // SAM: header lines count toward the line number.
  const std::string sam = "r1\t0\tchrQ\t100\t60\t5M\t*\t0\t0\tACGTA\tIIIII";
  {
    std::ofstream out(dir_ / "cap.sam");
    out << "@HD\tVN:1.6\tSO:coordinate\n"
        << sam << '\n'
        << padded(sam, kMaxLineBytes + 1) << '\n'
        << sam << '\n';
  }
  check(dir_ / "cap.sam", 3, 2, [](const fs::path& f, IngestPolicy p) {
    reads::AlignmentReader reader(f, std::move(p));
    while (reader.next()) {
    }
    return reader.stats();
  });

  // dbSNP.
  {
    std::ofstream out(dir_ / "cap.dbsnp");
    out << "# seq pos freqA freqC freqG freqT validated\n"
        << "chrD\t10\t0.9\t0.1\t0\t0\t1\n"
        << "chrD\t20\t0.9\t0.1\t0\t0\t1" << std::string(kMaxLineBytes, ' ')
        << "\nchrD\t30\t0.9\t0.1\t0\t0\t1\n";
  }
  check(dir_ / "cap.dbsnp", 3, 2, [](const fs::path& f, IngestPolicy p) {
    IngestStats stats;
    genome::read_dbsnp_file(f, p, &stats);
    return stats;
  });
}

TEST_F(FuzzSmoke, CorpusRegression) {
  // Every checked-in corpus file: ok_* parse cleanly under strict; all others
  // throw ParseError under strict; every file is safe under lenient.
  const fs::path corpus = fs::path(GSNP_TEST_CORPUS_DIR) / "ingest";
  ASSERT_TRUE(fs::exists(corpus)) << corpus;
  u64 seen = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    const fs::path& p = entry.path();
    const bool expect_ok = p.filename().string().rfind("ok_", 0) == 0;
    ++seen;

    // AlignmentReader reads `.sam` files as SAM, the rest as SOAP.
    const auto drain = [&](const IngestPolicy& policy) {
      u64 n = 0;
      reads::AlignmentReader reader(p, policy);
      while (reader.next()) ++n;
      return n;
    };

    if (expect_ok) {
      EXPECT_GT(drain(IngestPolicy::make_strict()), 0u) << p;
    } else {
      EXPECT_THROW(drain(IngestPolicy::make_strict()), ParseError) << p;
    }
    drain(IngestPolicy::make_lenient());  // must not crash or throw
  }
  EXPECT_GE(seen, 10u);
}

TEST_F(FuzzSmoke, GenomeRunRecordsIngestStatsInManifestAndResume) {
  // Two chromosomes, the second with fuzzed (partially corrupt) input: the
  // lenient whole-genome run completes, the manifest carries per-reason
  // quarantine counts, the default quarantine sidecar appears, and a resumed
  // run restores the same stats without re-reading the inputs.
  genome::GenomeSpec gspec2;
  gspec2.name = "chrG";
  gspec2.length = 15'000;
  gspec2.seed = 99;
  const genome::Reference ref2 = genome::generate_reference(gspec2);
  genome::SnpPlantSpec pspec;
  const auto snps2 = genome::plant_snps(ref2, pspec);
  const genome::Diploid individual2(ref2, snps2);
  reads::ReadSimSpec rspec;
  rspec.depth = 6.0;
  rspec.seed = 99;
  const auto records2 = reads::simulate_reads(individual2, rspec);
  reads::write_alignment_file(dir_ / "chrG.soap", records2);

  reads::FuzzOptions options;
  options.seed = 11;
  options.rate = 0.2;
  reads::fuzz_file(dir_ / "chrG.soap", dir_ / "chrG.fuzzed.soap", options);

  core::GenomeRunConfig config;
  config.output_dir = dir_ / "genome_out";
  config.ingest = IngestPolicy::make_lenient();  // per-chr default sidecar
  config.chromosomes = {
      {"chrF", dir_ / "align.soap", &ref_, nullptr},
      {"chrG", dir_ / "chrG.fuzzed.soap", &ref2, nullptr},
  };
  const core::GenomeReport report =
      core::run_genome(config, core::EngineKind::kGsnpCpu);
  ASSERT_EQ(report.statuses.size(), 2u);
  EXPECT_TRUE(report.statuses[0].ingest.clean());
  EXPECT_GT(report.statuses[1].ingest.records_quarantined, 0u);
  EXPECT_EQ(report.total_ingest.records_quarantined,
            report.statuses[1].ingest.records_quarantined);
  EXPECT_TRUE(fs::exists(config.output_dir / "chrG.quarantine.txt"));

  const core::RunManifest manifest =
      core::read_run_manifest(report.manifest_file);
  ASSERT_EQ(manifest.chromosomes.size(), 2u);
  EXPECT_EQ(manifest.chromosomes[1].ingest.records_quarantined,
            report.statuses[1].ingest.records_quarantined);
  EXPECT_EQ(manifest.chromosomes[1].ingest.by_reason,
            report.statuses[1].ingest.by_reason);

  // Resume: both chromosomes verify, nothing re-runs, stats are restored.
  config.resume = true;
  const core::GenomeReport resumed =
      core::run_genome(config, core::EngineKind::kGsnpCpu);
  ASSERT_EQ(resumed.statuses.size(), 2u);
  EXPECT_TRUE(resumed.statuses[0].resumed);
  EXPECT_TRUE(resumed.statuses[1].resumed);
  EXPECT_EQ(resumed.statuses[1].ingest.records_quarantined,
            report.statuses[1].ingest.records_quarantined);
  EXPECT_EQ(resumed.total_ingest.records_quarantined,
            report.total_ingest.records_quarantined);
}

TEST_F(FuzzSmoke, ManifestWithoutIngestFieldsStillReads) {
  // Backward compatibility: a manifest written before the ingest fields
  // existed parses with all-zero stats.
  const fs::path path = dir_ / "old_manifest.json";
  {
    std::ofstream out(path);
    out << R"({"version": 1, "engine": "gsnp_cpu", "chromosomes": [
      {"name": "chr1", "status": "done", "requested": "gsnp_cpu",
       "engine": "gsnp_cpu", "degraded": false, "attempts": 1,
       "output": "chr1.gsnp_cpu.snp", "output_bytes": 10,
       "output_crc32": 1234, "sites": 100, "error": ""}]})";
  }
  const core::RunManifest manifest = core::read_run_manifest(path);
  ASSERT_EQ(manifest.chromosomes.size(), 1u);
  EXPECT_TRUE(manifest.chromosomes[0].ingest.clean());
  EXPECT_EQ(manifest.chromosomes[0].ingest.records_ok, 0u);
}

TEST_F(FuzzSmoke, DbsnpLenientSkipsAndCounts) {
  std::istringstream in(
      "# seq pos freqA freqC freqG freqT validated\n"
      "chrD\t10\t0.9\t0.1\t0\t0\t1\n"
      "chrD\t20\t0.9\tNaN\t0\t0\t1\n"    // non-finite frequency
      "chrD\t5\t0.9\t0.1\t0\t0\t1\n"     // sort violation (5 < accepted 10)
      "chrD\t30\t0.9\t0.1\t0\t0\t1\n");
  IngestStats stats;
  const auto table =
      genome::read_dbsnp(in, "<test>", IngestPolicy::make_lenient(), &stats);
  EXPECT_EQ(table.entries().size(), 2u);
  EXPECT_EQ(stats.records_quarantined, 2u);
  EXPECT_EQ(stats.by_reason[static_cast<std::size_t>(IngestReason::kBadField)],
            1u);
  EXPECT_EQ(stats.by_reason[static_cast<std::size_t>(
                IngestReason::kSortOrderViolation)],
            1u);

  std::istringstream strict_in("chrD\tzzz\t0.9\t0.1\t0\t0\t1\n");
  EXPECT_THROW(genome::read_dbsnp(strict_in), ParseError);
}

TEST_F(FuzzSmoke, FastaStaysStrictWithTaxonomy) {
  // FASTA is the coordinate system: always strict, with reason codes.
  std::istringstream headerless("ACGT\n");
  try {
    genome::read_fasta(headerless, "<t>");
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.reason(), IngestReason::kBadHeader);
  }
  std::istringstream junk(">chr1\nAC1T\n");
  try {
    genome::read_fasta(junk, "<t>");
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.reason(), IngestReason::kBadField);
  }
}

}  // namespace
}  // namespace gsnp
