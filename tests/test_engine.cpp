// Integration tests: the three engines over a synthetic dataset.  The
// centerpiece is the paper's §IV-G guarantee — SOAPsnp, GSNP_CPU and GSNP
// produce exactly the same result rows.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "src/common/sha256.hpp"
#include "src/core/backend.hpp"
#include "src/core/consistency.hpp"
#include "src/core/engine.hpp"
#include "src/core/vcf.hpp"
#include "src/genome/dbsnp.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/simulator.hpp"
#include "src/reads/stats.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::core {
namespace {

namespace fs = std::filesystem;

/// One shared dataset + three engine runs (expensive; computed once).
class Engines : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = test_temp_path("gsnp_engine_test");
    fs::create_directories(dir_);

    genome::GenomeSpec gspec;
    gspec.name = "chrE";
    gspec.length = 30'000;
    gspec.n_gap_rate = 0.001;  // exercise 'N' reference sites end to end
    ref_ = new genome::Reference(genome::generate_reference(gspec));

    genome::SnpPlantSpec pspec;
    pspec.snp_rate = 0.002;
    snps_ = new std::vector<genome::PlantedSnp>(plant_snps(*ref_, pspec));
    const genome::Diploid individual(*ref_, *snps_);
    dbsnp_ = new genome::DbSnpTable(
        genome::make_dbsnp(*ref_, *snps_, 0.002, 11));

    reads::ReadSimSpec rspec;
    rspec.depth = 9.0;
    records_ = new std::vector<reads::AlignmentRecord>(
        reads::simulate_reads(individual, rspec));
    reads::write_alignment_file(dir_ / "a.soap", *records_);

    EngineConfig config;
    config.alignment_file = dir_ / "a.soap";
    config.reference = ref_;
    config.dbsnp = dbsnp_;
    config.temp_file = dir_ / "a.tmp";

    config.output_file = dir_ / "soapsnp.txt";
    config.window_size = 1'000;
    soapsnp_ = new RunReport(run_soapsnp(config));

    config.output_file = dir_ / "gsnpcpu.bin";
    config.window_size = 8'192;
    gsnp_cpu_ = new RunReport(run_gsnp_cpu(config));

    device_ = new device::Device();
    config.output_file = dir_ / "gsnp.bin";
    gsnp_ = new RunReport(run_gsnp(config, *device_));
  }

  static void TearDownTestSuite() {
    delete soapsnp_;
    delete gsnp_cpu_;
    delete gsnp_;
    delete device_;
    delete records_;
    delete dbsnp_;
    delete snps_;
    delete ref_;
    fs::remove_all(dir_);
  }

  static fs::path dir_;
  static genome::Reference* ref_;
  static std::vector<genome::PlantedSnp>* snps_;
  static genome::DbSnpTable* dbsnp_;
  static std::vector<reads::AlignmentRecord>* records_;
  static RunReport* soapsnp_;
  static RunReport* gsnp_cpu_;
  static RunReport* gsnp_;
  static device::Device* device_;
};

fs::path Engines::dir_;
genome::Reference* Engines::ref_ = nullptr;
std::vector<genome::PlantedSnp>* Engines::snps_ = nullptr;
genome::DbSnpTable* Engines::dbsnp_ = nullptr;
std::vector<reads::AlignmentRecord>* Engines::records_ = nullptr;
RunReport* Engines::soapsnp_ = nullptr;
RunReport* Engines::gsnp_cpu_ = nullptr;
RunReport* Engines::gsnp_ = nullptr;
device::Device* Engines::device_ = nullptr;

TEST_F(Engines, AllEnginesEmitOneRowPerSite) {
  EXPECT_EQ(soapsnp_->sites, ref_->size());
  std::string name;
  EXPECT_EQ(read_snp_output(dir_ / "soapsnp.txt", name).size(), ref_->size());
  EXPECT_EQ(read_snp_output(dir_ / "gsnp.bin", name).size(), ref_->size());
}

TEST_F(Engines, GsnpMatchesSoapsnpExactly) {
  // Paper §IV-G: "GSNP produces exactly the same result as that of SOAPsnp".
  const auto report =
      compare_output_files(dir_ / "soapsnp.txt", dir_ / "gsnp.bin");
  EXPECT_TRUE(report.identical) << report.detail;
}

TEST_F(Engines, GsnpCpuMatchesSoapsnpExactly) {
  const auto report =
      compare_output_files(dir_ / "soapsnp.txt", dir_ / "gsnpcpu.bin");
  EXPECT_TRUE(report.identical) << report.detail;
}

TEST_F(Engines, CompressedOutputMuchSmallerThanText) {
  const u64 text = soapsnp_->output_bytes;
  const u64 compressed = gsnp_->output_bytes;
  EXPECT_LT(compressed * 5, text);  // paper reports 14-16x
}

TEST_F(Engines, TempInputSmallerThanTextInput) {
  const u64 text_input = fs::file_size(dir_ / "a.soap");
  EXPECT_LT(gsnp_->temp_bytes * 2, text_input);  // paper reports ~3x
}

TEST_F(Engines, SoapsnpDominatedByLikelihoodThenRecycle) {
  // The Table I shape.
  const double likeli = soapsnp_->component("likeli");
  const double recycle = soapsnp_->component("recycle");
  for (const char* other : {"cal_p", "read", "count", "post", "output"})
    EXPECT_GT(likeli, soapsnp_->component(other));
  EXPECT_GT(likeli, 0.3 * soapsnp_->total());
  EXPECT_GT(recycle, 0.0);
}

TEST_F(Engines, GsnpEliminatesRecycleCost) {
  // Table IV: recycle drops by three orders of magnitude.
  EXPECT_LT(gsnp_->component("recycle"),
            0.05 * soapsnp_->component("recycle") + 1e-3);
}

TEST_F(Engines, GsnpFasterOverall) {
  EXPECT_LT(gsnp_->total(), soapsnp_->total());
  EXPECT_LT(gsnp_cpu_->total(), soapsnp_->total());
}

TEST_F(Engines, DeviceWorkWasModeled) {
  EXPECT_GT(gsnp_->device_modeled.get("likeli_sort"), 0.0);
  EXPECT_GT(gsnp_->device_modeled.get("likeli_comp"), 0.0);
  EXPECT_GT(gsnp_->device_counters.kernel_launches, 0u);
  EXPECT_GT(gsnp_->peak_device_bytes, 0u);
  EXPECT_LE(gsnp_->peak_device_bytes, device_->spec().global_bytes);
}

TEST_F(Engines, ReportsCountRecordsAndWindows) {
  EXPECT_EQ(soapsnp_->records, records_->size());
  EXPECT_EQ(gsnp_->records, records_->size());
  EXPECT_EQ(soapsnp_->windows, (ref_->size() + 999) / 1000);
  EXPECT_EQ(gsnp_->windows, (ref_->size() + 8191) / 8192);
}

TEST_F(Engines, WindowSizeDoesNotChangeResults) {
  // Re-run GSNP with a very different window size; rows must be identical.
  EngineConfig config;
  config.alignment_file = dir_ / "a.soap";
  config.reference = ref_;
  config.dbsnp = dbsnp_;
  config.temp_file = dir_ / "b.tmp";
  config.output_file = dir_ / "gsnp_smallwin.bin";
  config.window_size = 777;
  device::Device dev;
  run_gsnp(config, dev);
  const auto report =
      compare_output_files(dir_ / "gsnp.bin", dir_ / "gsnp_smallwin.bin");
  EXPECT_TRUE(report.identical) << report.detail;
}

TEST_F(Engines, DbSnpColumnMatchesPriorTable) {
  std::string name;
  const auto rows = read_snp_output(dir_ / "gsnp.bin", name);
  for (const auto& row : rows)
    EXPECT_EQ(row.in_dbsnp, dbsnp_->find(row.pos) != nullptr);
}

TEST_F(Engines, RefColumnMatchesReference) {
  std::string name;
  const auto rows = read_snp_output(dir_ / "gsnp.bin", name);
  ASSERT_EQ(rows.size(), ref_->size());
  for (u64 i = 0; i < ref_->size(); ++i) {
    EXPECT_EQ(rows[i].pos, i);
    EXPECT_EQ(rows[i].ref_base, ref_->base(i));
  }
}

TEST_F(Engines, MostPlantedSnpsDetected) {
  std::string name;
  const auto rows = read_snp_output(dir_ / "gsnp.bin", name);
  u64 found = 0, callable = 0;
  for (const auto& snp : *snps_) {
    const auto& row = rows[snp.pos];
    if (row.depth < 4) continue;
    ++callable;
    if (row.genotype_rank >= 0 &&
        genotype_from_rank(row.genotype_rank) == snp.genotype)
      ++found;
  }
  ASSERT_GT(callable, 20u);
  EXPECT_GT(static_cast<double>(found) / callable, 0.8);
}

// ---- non-ACGT read bases ----------------------------------------------------------

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(NonAcgtReadBases, EveryBackendSkipsThemByteIdentically) {
  // The parser accepts any letter in a read ('N', IUPAC codes, lower case);
  // a base outside ACGT carries no observation and no depth on every
  // backend, and the four backends still call identical rows.
  const fs::path dir = test_temp_path("gsnp_non_acgt_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  genome::GenomeSpec gspec;
  gspec.length = 5'000;
  const genome::Reference ref = genome::generate_reference(gspec);
  genome::SnpPlantSpec pspec;
  pspec.seed = gspec.seed + 1;
  const genome::Diploid individual(ref, plant_snps(ref, pspec));
  reads::ReadSimSpec rspec;
  rspec.depth = 6.0;
  std::vector<reads::AlignmentRecord> records =
      reads::simulate_reads(individual, rspec);

  // An 'N' in a forward and in a reverse unique read, an IUPAC 'R' at a
  // read's first cycle and a lower-case 'n' in a multi-hit read.
  const auto pick = [&](u64 after, auto&& want) -> reads::AlignmentRecord& {
    for (auto& rec : records)
      if (rec.pos >= after && want(rec)) return rec;
    throw Error("no such read");
  };
  pick(1'000, [](const auto& r) {
    return r.strand == Strand::kForward && r.hit_count == 1;
  }).seq[7] = 'N';
  pick(2'000, [](const auto& r) {
    return r.strand == Strand::kReverse && r.hit_count == 1;
  }).seq[30] = 'N';
  pick(3'000, [](const auto&) { return true; }).seq[0] = 'R';
  pick(4'000, [](const auto& r) { return r.hit_count > 1; }).seq[50] = 'n';
  reads::write_alignment_file(dir / "a.soap", records);

  // Expected depth: the reads with an A/C/G/T base at each site.
  std::vector<u32> depth(ref.size(), 0);
  for (const auto& rec : records)
    reads::for_each_observation(rec, 0, ref.size(),
                                [&](u64 p, const auto&) { ++depth[p]; });

  EngineConfig config;
  config.alignment_file = dir / "a.soap";
  config.reference = &ref;
  config.temp_file = dir / "a.tmp";
  config.window_size = 1'024;
  std::string gsnp_cpu_bytes, gsnp_cpu_vcf;
  for (const BackendInfo& backend : backend_registry()) {
    SCOPED_TRACE(backend.name);
    config.output_file = dir / backend.id;
    device::Device dev;
    run_backend(backend, config, backend.needs_device ? &dev : nullptr);
    std::string name;
    const std::vector<SnpRow> rows = read_snp_output(config.output_file, name);
    ASSERT_EQ(rows.size(), ref.size());
    for (u64 p = 0; p < ref.size(); ++p)
      ASSERT_EQ(rows[p].depth, depth[p]) << "site " << p;
    const fs::path vcf = dir / (std::string(backend.id) + ".vcf");
    write_vcf_file(vcf, name, rows.size(), rows);
    if (backend.kind == EngineKind::kGsnpCpu) {
      gsnp_cpu_bytes = file_bytes(config.output_file);
      gsnp_cpu_vcf = file_bytes(vcf);
    }
  }
  for (const BackendInfo& backend : backend_registry()) {
    SCOPED_TRACE(backend.name);
    EXPECT_TRUE(file_bytes(dir / (std::string(backend.id) + ".vcf")) ==
                gsnp_cpu_vcf);
    if (!backend.text_output)
      EXPECT_TRUE(file_bytes(dir / backend.id) == gsnp_cpu_bytes);
    else
      EXPECT_TRUE(
          compare_output_files(dir / backend.id, dir / "gsnp_cpu").identical);
  }
  fs::remove_all(dir);
}

TEST(TempInput, LivesOnlyAsLongAsItsCall) {
  // The GSNP engines own their temp input: it is gone when the call
  // returns, when a device fault unwinds it and when it is cancelled.
  const fs::path dir = test_temp_path("gsnp_temp_lifetime_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  genome::GenomeSpec gspec;
  gspec.length = 6'000;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid individual(ref, {});
  reads::ReadSimSpec rspec;
  rspec.depth = 5.0;
  reads::write_alignment_file(dir / "a.soap",
                              reads::simulate_reads(individual, rspec));

  EngineConfig config;
  config.alignment_file = dir / "a.soap";
  config.reference = &ref;
  config.temp_file = dir / "a.tmp";
  config.output_file = dir / "out.snp";
  config.window_size = 2'048;

  EXPECT_GT(run_gsnp_cpu(config).temp_bytes, 0u);
  EXPECT_FALSE(fs::exists(config.temp_file)) << "gsnp-cpu";

  device::Device dev;
  EXPECT_GT(run_gsnp(config, dev).temp_bytes, 0u);
  EXPECT_FALSE(fs::exists(config.temp_file)) << "gsnp";

  device::DeviceSpec faulty;
  faulty.fault.fail_launch_at = 0;
  faulty.fault.fault_count = -1;
  device::Device broken(faulty);
  EXPECT_THROW(run_gsnp(config, broken), device::DeviceFaultError);
  EXPECT_FALSE(fs::exists(config.temp_file)) << "device fault";

  CancelToken cancel;
  cancel.cancel(CancelReason::kSignal);
  config.cancel = &cancel;
  EXPECT_THROW(run_gsnp_cpu(config), CancelledError);
  EXPECT_FALSE(fs::exists(config.temp_file)) << "cancelled";
  fs::remove_all(dir);
}

TEST(StageSum, SerialHostComponentsSumToTheCallsWall) {
  // Every fan-out of a serial gsnp-cpu call (cal_p's batches, the window
  // stages, the output columns) runs inside a stage, so the seven
  // components account for the call's own wall time within 5 %.
  const fs::path dir = test_temp_path("gsnp_stage_sum_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  genome::GenomeSpec gspec;
  gspec.name = "chrW";
  gspec.length = 200'000;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid individual(ref, plant_snps(ref, {}));
  reads::ReadSimSpec rspec;
  rspec.depth = 10.0;
  reads::write_alignment_file(dir / "a.soap",
                              reads::simulate_reads(individual, rspec));
  EngineConfig config;
  config.alignment_file = dir / "a.soap";
  config.reference = &ref;
  config.output_file = dir / "out.snp";
  config.temp_file = dir / "a.tmp";
  const RunReport report = run_gsnp_cpu(config);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_NEAR(report.total(), report.wall_seconds, 0.05 * report.wall_seconds)
      << "components sum to " << report.total() << " s of a "
      << report.wall_seconds << " s call";
  fs::remove_all(dir);
}

// ---- back-to-back calls ------------------------------------------------------------

/// A gsnp-cpu call held inside cal_p: its alignment file is a FIFO that
/// stays open and empty until release(), so every call made meanwhile
/// overlaps it, as the calls of gsnpd's workers overlap.
class CallInFlight {
 public:
  CallInFlight(const fs::path& dir, const genome::Reference& ref) {
    fifo_ = dir / "in_flight.soap";
    fs::remove(fifo_);
    if (::mkfifo(fifo_.c_str(), 0600) != 0) throw Error("mkfifo failed");
    config_.alignment_file = fifo_;
    config_.reference = &ref;
    config_.output_file = dir / "in_flight.snp";
    config_.temp_file = dir / "in_flight.tmp";
    thread_ = std::thread([this] {
      try {
        run_gsnp_cpu(config_);
        ran_ = true;
      } catch (...) {
      }
      done_ = true;
    });
    // The call opens the FIFO for reading inside cal_p, and a writer that
    // does not block can open it only once a reader has.
    while ((fd_ = ::open(fifo_.c_str(), O_WRONLY | O_NONBLOCK)) < 0 && !done_)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ~CallInFlight() { release(); }
  CallInFlight(const CallInFlight&) = delete;
  CallInFlight& operator=(const CallInFlight&) = delete;

  /// True while the call waits for its input.
  bool waiting() const { return fd_ >= 0; }
  /// End the input; the call reads no record and returns.  True if it ran.
  bool release() {
    if (fd_ >= 0) ::close(std::exchange(fd_, -1));
    if (thread_.joinable()) thread_.join();
    return ran_;
  }

 private:
  fs::path fifo_;
  EngineConfig config_;
  std::atomic<bool> done_{false};
  bool ran_ = false;
  int fd_ = -1;
  std::thread thread_;  // last: it uses the members above
};

struct Chromosome {
  genome::Reference ref;
  genome::DbSnpTable dbsnp;
  fs::path align;
};

Chromosome make_chromosome(const fs::path& dir, const std::string& name,
                           u64 length, u64 seed, double depth) {
  genome::GenomeSpec gspec;
  gspec.name = name;
  gspec.length = length;
  gspec.seed = seed;
  Chromosome chr{genome::generate_reference(gspec), {},
                 dir / (name + ".soap")};
  genome::SnpPlantSpec pspec;
  pspec.snp_rate = 0.003;
  pspec.seed = seed + 1;
  const std::vector<genome::PlantedSnp> snps = plant_snps(chr.ref, pspec);
  chr.dbsnp = genome::make_dbsnp(chr.ref, snps, 0.002, seed + 2);
  reads::ReadSimSpec rspec;
  rspec.depth = depth;
  rspec.seed = seed + 3;
  reads::write_alignment_file(
      chr.align,
      reads::simulate_reads(genome::Diploid(chr.ref, snps), rspec));
  return chr;
}

/// One engine call of the sequence below.
struct BackToBackCall {
  const char* what;
  EngineKind kind;
  const Chromosome* chr;
  u32 window_size;
  bool overlapped = false;
  u64 batch_bytes = 0;
};

RunReport run_call(const BackToBackCall& call, const fs::path& out) {
  EngineConfig config;
  config.alignment_file = call.chr->align;
  config.reference = &call.chr->ref;
  config.dbsnp = &call.chr->dbsnp;
  config.output_file = out;
  config.temp_file = out.string() + ".tmp";
  config.window_size = call.window_size;
  config.overlapped = call.overlapped;
  config.batch_bytes = call.batch_bytes;
  device::Device dev;
  switch (call.kind) {
    case EngineKind::kSoapsnp:
      return run_soapsnp(config);
    case EngineKind::kGsnp:
      return run_gsnp(config, dev);
    default:
      return run_gsnp_cpu(config);
  }
}

TEST(BackToBackCalls, WriteTheSameBytes) {
  // A call that follows another reuses the memory that call freed, of
  // other engines and window sizes too (a gsnp call's buffers serve
  // gsnp-cpu).  Each call below writes the same bytes as the same call made
  // while another call is in flight; the last call repeats the first.
  const fs::path dir = test_temp_path("gsnp_back_to_back_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Chromosome a = make_chromosome(dir, "chrA", 50'000, 21, 8.0);
  const Chromosome b = make_chromosome(dir, "chrB", 30'000, 31, 6.0);
  const Chromosome c = make_chromosome(dir, "chrC", 3'000, 41, 7.0);
  genome::GenomeSpec idle_spec;
  idle_spec.name = "chrI";
  idle_spec.length = 2'000;
  const genome::Reference idle = genome::generate_reference(idle_spec);

  // A's windows end on a partial one, so a batched gsnp call's last plan
  // covers fewer sites than the next call's first window.
  const std::vector<BackToBackCall> calls = {
      {"gsnp-cpu A", EngineKind::kGsnpCpu, &a, 16'384},
      {"gsnp-cpu B overlapped", EngineKind::kGsnpCpu, &b, 10'000, true},
      {"gsnp-cpu B", EngineKind::kGsnpCpu, &b, 10'000},
      {"soapsnp C", EngineKind::kSoapsnp, &c, 250},
      {"soapsnp C wider", EngineKind::kSoapsnp, &c, 400},
      {"soapsnp C again", EngineKind::kSoapsnp, &c, 400},
      {"gsnp A batched", EngineKind::kGsnp, &a, 16'384, false, 256 * 1024},
      {"gsnp-cpu A again", EngineKind::kGsnpCpu, &a, 16'384},
  };
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE(calls[i].what);
    CallInFlight other(dir, idle);
    ASSERT_TRUE(other.waiting());
    run_call(calls[i], dir / ("alone_" + std::to_string(i)));
    EXPECT_TRUE(other.release());
    expected.push_back(file_bytes(dir / ("alone_" + std::to_string(i))));
    ASSERT_FALSE(expected.back().empty());
  }

  // The odd calls run on a thread of their own, so memory one call frees
  // serves the next from another thread's arena, as between gsnpd workers.
  std::vector<RunReport> reports;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE(calls[i].what);
    const fs::path out = dir / ("next_" + std::to_string(i));
    const auto run = [&] { return run_call(calls[i], out); };
    reports.push_back(i % 2 == 1 ? std::async(std::launch::async, run).get()
                                 : run());
    EXPECT_TRUE(file_bytes(out) == expected[i]);
  }
  EXPECT_EQ(sha256_file_hex(dir / "next_0"), sha256_file_hex(dir / "next_7"));
  EXPECT_TRUE(file_bytes(dir / "next_0") == file_bytes(dir / "next_7"));
  EXPECT_EQ(reports[0].output_bytes, reports[7].output_bytes);
  EXPECT_EQ(reports[0].temp_bytes, reports[7].temp_bytes);
  fs::remove_all(dir);
}

/// Two back-to-back gsnp-cpu calls on a 1M-site chromosome at 10x (the
/// benchmark's call), made on the calling thread or on one std::thread of
/// their own; exits 0 if the second took under 5 % of the first call's
/// minor page faults, else 1.  A call this size spans more than one of a
/// thread arena's 64 MiB heaps, which glibc unmaps when they empty unless
/// the allocator policy's top pad keeps them.
[[noreturn]] void exit_with_warm_call_faults(bool on_thread) {
  const fs::path dir = test_temp_path("gsnp_warm_call_test");
  fs::remove_all(dir);
  fs::create_directories(dir);
  genome::GenomeSpec gspec;
  gspec.name = "chrF";
  gspec.length = 1'000'000;
  const genome::Reference ref = genome::generate_reference(gspec);
  const genome::Diploid individual(ref, plant_snps(ref, {}));
  reads::ReadSimSpec rspec;
  rspec.depth = 10.0;
  reads::write_alignment_file(dir / "a.soap",
                              reads::simulate_reads(individual, rspec));
  EngineConfig config;
  config.alignment_file = dir / "a.soap";
  config.reference = &ref;
  config.output_file = dir / "out.snp";
  config.temp_file = dir / "a.tmp";

  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  long first = 0;
  long second = 0;
  const auto pair = [&] {
    const long before = minor_faults();
    run_gsnp_cpu(config);
    const long between = minor_faults();
    run_gsnp_cpu(config);
    first = between - before;
    second = minor_faults() - between;
  };
  if (on_thread)
    std::thread(pair).join();
  else
    pair();
  fs::remove_all(dir);
  std::fprintf(stderr, "minor faults: first call %ld, second call %ld\n",
               first, second);
  std::exit(second * 20 < first ? 0 : 1);
}

TEST(BackToBackCalls, AWarmCallMapsNoFreshPages) {
  // The second of two back-to-back calls finds its buffers' pages mapped,
  // on the main thread (glibc's main arena) and on a std::thread (an arena
  // of its own, like a one-worker gsnpd's).  The calls run in a new
  // process, whose first call maps its buffers.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer allocators quarantine freed memory";
#endif
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const bool on_thread : {false, true}) {
    SCOPED_TRACE(on_thread ? "on a std::thread" : "on the main thread");
    EXPECT_EXIT(exit_with_warm_call_faults(on_thread),
                ::testing::ExitedWithCode(0), "minor faults");
  }
}

// ---- consistency module itself --------------------------------------------------

TEST(Consistency, DetectsMismatches) {
  std::vector<SnpRow> a(3), b(3);
  a[1].pos = b[1].pos = 1;
  a[2].pos = b[2].pos = 2;
  b[2].quality = 42;
  const auto report = compare_rows(a, b);
  EXPECT_FALSE(report.identical);
  EXPECT_EQ(report.first_mismatch_row, 2u);
  EXPECT_NE(report.detail.find("row 2"), std::string::npos);
}

TEST(Consistency, DetectsLengthMismatch) {
  const auto report = compare_rows(std::vector<SnpRow>(2),
                                   std::vector<SnpRow>(3));
  EXPECT_FALSE(report.identical);
}

TEST(Consistency, IdenticalRows) {
  std::vector<SnpRow> a(5);
  for (u64 i = 0; i < 5; ++i) a[i].pos = i;
  const auto report = compare_rows(a, a);
  EXPECT_TRUE(report.identical);
  EXPECT_EQ(report.rows_compared, 5u);
}

}  // namespace
}  // namespace gsnp::core
