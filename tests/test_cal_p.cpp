// The block-parallel cal_p pass: reads::AlignmentBatchReader and the
// engines' cal_p against the one-line-at-a-time AlignmentReader, on SOAP
// and SAM inputs that span several batches.  Records, ParseErrors, the
// lenient quarantine, the error budget, ingest stats and the temporary input
// must not depend on how the file was cut into batches and blocks, or on
// whether the parse fans out.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/compress/temp_input.hpp"
#include "src/core/engine.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/alignment.hpp"
#include "src/reads/fuzz.hpp"
#include "src/reads/simulator.hpp"
#include "tests/sam_text.hpp"
#include "tests/temp_path.hpp"

namespace gsnp {
namespace {

namespace fs = std::filesystem;
using reads::kAlignmentBatchBytes;
using reads::kAlignmentBlockBytes;

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
}

/// What a reader made of a file: its records, stats, and the error that
/// ended it ("" when it reached the end).
struct Ingest {
  std::vector<reads::AlignmentRecord> records;
  IngestStats stats;
  std::string error;
};

Ingest read_streaming(const fs::path& path, const IngestPolicy& policy,
                      u64 reference_length) {
  Ingest got;
  reads::AlignmentReader reader(path, policy, reference_length);
  try {
    while (auto rec = reader.next()) got.records.push_back(std::move(*rec));
  } catch (const Error& e) {
    got.error = e.what();
  }
  got.stats = reader.stats();
  return got;
}

Ingest read_batches(const fs::path& path, const IngestPolicy& policy,
                    u64 reference_length, std::vector<std::size_t>* sizes) {
  Ingest got;
  reads::AlignmentBatchReader reader(path, policy, reference_length,
                                     compress::kTempChunkRecords);
  try {
    for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
      if (sizes) sizes->push_back(batch.size());
      for (const reads::AlignmentView& view : batch)
        got.records.push_back(reads::to_record(view));
    }
  } catch (const Error& e) {
    got.error = e.what();
  }
  got.stats = reader.stats();
  EXPECT_EQ(reader.records(), got.records.size());
  return got;
}

void expect_same_ingest(const Ingest& a, const Ingest& b) {
  EXPECT_EQ(a.error, b.error);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i)
    ASSERT_EQ(a.records[i], b.records[i]) << "record " << i;
  EXPECT_EQ(a.stats.records_ok, b.stats.records_ok);
  EXPECT_EQ(a.stats.records_quarantined, b.stats.records_quarantined);
  EXPECT_EQ(a.stats.by_reason, b.stats.by_reason);
}

/// An input file's bytes and the offsets its lines start at.
struct Text {
  fs::path path;
  std::string bytes;
  std::vector<std::size_t> line_starts;

  explicit Text(fs::path file)
      : path(std::move(file)), bytes(read_bytes(path)) {
    for (std::size_t at = 0; at < bytes.size(); at = bytes.find('\n', at) + 1)
      line_starts.push_back(at);
  }

  /// Index of the first line starting at or after byte `at`.
  std::size_t line_at_or_after(std::size_t at) const {
    return static_cast<std::size_t>(
        std::lower_bound(line_starts.begin(), line_starts.end(), at) -
        line_starts.begin());
  }

  /// Index of batch 2's first line: batch 1 parses through the last line
  /// end within its first kAlignmentBatchBytes bytes.
  std::size_t second_batch_line() const {
    return line_at_or_after(bytes.rfind('\n', kAlignmentBatchBytes - 1) + 1);
  }

  /// Index of the first line of batch 1's second block.
  std::size_t second_block_line() const {
    return line_at_or_after(kAlignmentBlockBytes);
  }
};

/// A 100K-site chromosome at 40x: ~40K records, ~9.3 MB of SOAP text, so
/// the file spans three batches.  The same records are also written as
/// SAM, every one with soft clips and one in 50 with QUAL `*` (its SOAP
/// qualities all '!').
class CalP : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_temp_path("gsnp_cal_p_test");
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    genome::GenomeSpec gspec;
    gspec.name = "chrB";
    gspec.length = 100'000;
    gspec.seed = 31;
    ref_ = genome::generate_reference(gspec);
    genome::SnpPlantSpec pspec;
    pspec.seed = 32;
    const genome::Diploid individual(ref_, genome::plant_snps(ref_, pspec));
    reads::ReadSimSpec rspec;
    rspec.depth = 40.0;
    rspec.seed = 33;
    records_ = reads::simulate_reads(individual, rspec);
    std::ofstream sam(dir_ / "a.sam", std::ios::binary);
    sam << "@HD\tVN:1.6\tSO:coordinate\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const bool no_qual = i % 50 == 7;
      if (no_qual) records_[i].qual.assign(records_[i].length, '!');
      sam << clipped_sam_line(records_[i], 1 + i % 3, i % 2 * 3, no_qual)
          << '\n';
    }
    sam.close();
    reads::write_alignment_file(dir_ / "a.soap", records_);
    soap_.emplace(dir_ / "a.soap");
    sam_.emplace(dir_ / "a.sam");
    ASSERT_GT(soap_->bytes.size(), 2 * kAlignmentBatchBytes);
  }
  void TearDown() override { fs::remove_all(dir_); }

  core::EngineConfig config(const fs::path& align) const {
    core::EngineConfig c;
    c.alignment_file = align;
    c.reference = &ref_;
    c.output_file = dir_ / "out.snp";
    c.temp_file = dir_ / "t.tmp";
    return c;
  }

  /// `text` with line `index` (0-based) passed through `edit`, which keeps
  /// its length, so every batch and block boundary stays put.
  fs::path with_line(const Text& text, std::size_t index,
                     const std::function<void(std::string&)>& edit) const {
    const std::size_t begin = text.line_starts[index];
    const std::size_t end = text.bytes.find('\n', begin);
    std::string line = text.bytes.substr(begin, end - begin);
    const std::size_t size = line.size();
    edit(line);
    EXPECT_EQ(line.size(), size);
    std::string bytes = text.bytes;
    bytes.replace(begin, end - begin, line);
    const fs::path path = dir_ / ("edit" + std::to_string(index) +
                                  text.path.extension().string());
    write_bytes(path, bytes);
    return path;
  }

  /// A lenient engine call over a fuzzed `input` quarantines, counts and
  /// aborts on its budget exactly as the streaming reader does.
  void expect_lenient_matches_streaming(const fs::path& input);

  fs::path dir_;
  genome::Reference ref_;
  std::vector<reads::AlignmentRecord> records_;
  std::optional<Text> soap_;
  std::optional<Text> sam_;
};

/// The n-th tab-separated field of `line`, as [begin, end).
std::pair<std::size_t, std::size_t> field(const std::string& line, int n) {
  std::size_t begin = 0;
  for (int i = 0; i < n; ++i) begin = line.find('\t', begin) + 1;
  const std::size_t end = line.find('\t', begin);
  return {begin, end == std::string::npos ? line.size() : end};
}

TEST_F(CalP, BatchesMatchTheStreamingReaderFannedOutAndInline) {
  for (const Text* text : {&*soap_, &*sam_}) {
    SCOPED_TRACE(text->path.filename().string());
    const IngestPolicy strict;
    const Ingest streamed = read_streaming(text->path, strict, ref_.size());
    std::vector<std::size_t> sizes;
    const Ingest fanned = read_batches(text->path, strict, ref_.size(), &sizes);
    expect_same_ingest(streamed, fanned);
    // At least three batches; each but the last holds whole temp chunks.
    ASSERT_GE(sizes.size(), 3u);
    for (std::size_t b = 0; b + 1 < sizes.size(); ++b)
      EXPECT_EQ(sizes[b] % compress::kTempChunkRecords, 0u) << "batch " << b;
    const InlineComputeScope one_thread;
    expect_same_ingest(streamed,
                       read_batches(text->path, strict, ref_.size(), nullptr));
  }
}

TEST_F(CalP, SamBatchesReadTheSoapRecords) {
  // Reverse records flip their SEQ and QUAL in the batch, soft clips and
  // `*` QUALs narrow the views, and the carry moves SAM's longer spans: at
  // every block, batch and temp-chunk edge the batches still read the
  // records the SOAP file holds.
  std::vector<std::size_t> sizes;
  const Ingest batched =
      read_batches(sam_->path, IngestPolicy{}, ref_.size(), &sizes);
  ASSERT_TRUE(batched.error.empty()) << batched.error;
  ASSERT_EQ(batched.records.size(), records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i)
    ASSERT_EQ(batched.records[i], records_[i]) << "record " << i;

  // Each edge has a reverse-strand record beside it.  Record i is on SAM
  // line i + 1 (0-based, after the header line).
  const std::size_t carried_end = sam_->second_batch_line() - 1;
  ASSERT_GT(carried_end, sizes[0]);  // batch 1 carried records
  const std::vector<std::size_t> edges = {
      sam_->second_block_line() - 1, carried_end, sizes[0],
      compress::kTempChunkRecords, 2 * compress::kTempChunkRecords};
  for (const std::size_t edge : edges) {
    bool reverse = false;
    for (std::size_t i = edge - 2; i < edge + 2; ++i)
      reverse |= records_[i].strand == Strand::kReverse;
    EXPECT_TRUE(reverse) << "edge at record " << edge;
  }
}

TEST_F(CalP, TempInputMatchesTheStreamingWriter) {
  // Chunk boundaries are the file's own however the batches fall, so the
  // GSNPTMP2 bytes are those of one streaming TempInputWriter.
  const fs::path streamed = dir_ / "streamed.tmp";
  u64 streamed_bytes = 0;
  {
    reads::AlignmentReader reader(dir_ / "a.soap");
    compress::TempInputWriter writer(streamed, ref_.name());
    while (auto rec = reader.next()) writer.add(*rec);
    streamed_bytes = writer.finish();
  }
  const core::RunReport report = core::run_gsnp_cpu(config(dir_ / "a.soap"));
  EXPECT_EQ(report.temp_bytes, streamed_bytes);
  EXPECT_EQ(report.temp_bytes, fs::file_size(streamed));

  // The streamed file holds the records the engine's cal_p kept.
  compress::TempInputReader reader(streamed);
  u64 records = 0;
  while (reader.next()) ++records;
  EXPECT_EQ(records, report.records);

  // A call from the SAM file writes the same temp input and output.
  const std::string soap_out = read_bytes(dir_ / "out.snp");
  const core::RunReport from_sam = core::run_gsnp_cpu(config(dir_ / "a.sam"));
  EXPECT_EQ(from_sam.temp_bytes, report.temp_bytes);
  EXPECT_EQ(from_sam.records, report.records);
  EXPECT_EQ(read_bytes(dir_ / "out.snp"), soap_out);
}

TEST_F(CalP, ParseErrorsAtBlockAndBatchEdgesKeepTheirLine) {
  struct Case {
    const char* what;
    std::function<void(std::string&)> edit;
    const char* field;
    IngestReason reason;
  };
  // Position 1, same width: "0...01".
  const auto first_position = [](int n) {
    return [n](std::string& line) {
      const auto [b, e] = field(line, n);
      line.replace(b, e - b, std::string(e - b - 1, '0') + "1");
    };
  };
  const auto switch_sequence = [](int n) {
    return [n](std::string& line) { line[field(line, n).second - 1] = 'X'; };
  };
  const std::vector<Case> soap_cases = {
      {"bad strand",
       [](std::string& line) {
         const auto [b, e] = field(line, 6);
         line[b] = '?';
       },
       "strand", IngestReason::kBadField},
      {"sort violation", first_position(8), "position",
       IngestReason::kSortOrderViolation},
      {"chromosome switch", switch_sequence(7), "sequence name",
       IngestReason::kBadField},
  };
  const std::vector<Case> sam_cases = {
      {"bad CIGAR",
       [](std::string& line) { line[field(line, 5).first] = '?'; }, "CIGAR",
       IngestReason::kBadCigar},
      {"sort violation", first_position(3), "POS",
       IngestReason::kSortOrderViolation},
      {"chromosome switch", switch_sequence(2), "RNAME",
       IngestReason::kBadField},
  };
  for (const auto& [text, cases] :
       {std::pair{&*soap_, &soap_cases}, std::pair{&*sam_, &sam_cases}}) {
    const std::size_t block_line = text->second_block_line();
    const std::size_t batch_line = text->second_batch_line();
    ASSERT_GT(block_line, 0u);
    ASSERT_GT(batch_line, block_line);
    for (const std::size_t index : {block_line, batch_line}) {
      for (const Case& c : *cases) {
        SCOPED_TRACE(std::string(c.what) + " on line " +
                     std::to_string(index + 1) + " of " +
                     text->path.filename().string());
        const fs::path path = with_line(*text, index, c.edit);
        const Ingest streamed = read_streaming(path, {}, ref_.size());
        ASSERT_FALSE(streamed.error.empty());
        try {
          core::run_gsnp_cpu(config(path));
          ADD_FAILURE() << "no ParseError";
        } catch (const ParseError& e) {
          EXPECT_EQ(e.file(), path.string());
          EXPECT_EQ(e.line(), index + 1);
          EXPECT_EQ(e.field(), c.field);
          EXPECT_EQ(e.reason(), c.reason);
          EXPECT_EQ(std::string(e.what()), streamed.error);
        }
        EXPECT_FALSE(fs::exists(dir_ / "t.tmp"));
      }
    }
  }
}

TEST_F(CalP, LenientQuarantineAndBudgetMatchTheStreamingReader) {
  for (const Text* text : {&*soap_, &*sam_}) {
    SCOPED_TRACE(text->path.filename().string());
    expect_lenient_matches_streaming(text->path);
  }
}

void CalP::expect_lenient_matches_streaming(const fs::path& input) {
  reads::FuzzOptions options;
  options.seed = 5;
  options.rate = 0.02;
  const fs::path fuzzed = dir_ / ("fuzzed" + input.extension().string());
  ASSERT_GT(reads::fuzz_file(input, fuzzed, options).mutated, 0u);

  IngestPolicy policy = IngestPolicy::make_lenient(dir_ / "streamed.q");
  policy.max_bad_records = ~u64{0};
  policy.max_bad_fraction = 1.0;
  const Ingest streamed = read_streaming(fuzzed, policy, ref_.size());
  ASSERT_TRUE(streamed.error.empty()) << streamed.error;
  ASSERT_GT(streamed.stats.records_quarantined, 10u);

  core::EngineConfig c = config(fuzzed);
  c.ingest = policy;
  c.ingest.quarantine_file = dir_ / "engine.q";
  const core::RunReport report = core::run_gsnp_cpu(c);
  EXPECT_EQ(read_bytes(dir_ / "engine.q"), read_bytes(dir_ / "streamed.q"));
  EXPECT_EQ(report.records, streamed.records.size());
  EXPECT_EQ(report.ingest.records_ok, streamed.stats.records_ok);
  EXPECT_EQ(report.ingest.records_quarantined,
            streamed.stats.records_quarantined);
  EXPECT_EQ(report.ingest.by_reason, streamed.stats.by_reason);

  // A budget that runs out mid-file aborts both at the same record, with
  // the same quarantine written up to it.
  policy.max_bad_records = streamed.stats.records_quarantined / 2;
  policy.quarantine_file = dir_ / "streamed_budget.q";
  const Ingest aborted = read_streaming(fuzzed, policy, ref_.size());
  ASSERT_FALSE(aborted.error.empty());
  c.ingest = policy;
  c.ingest.quarantine_file = dir_ / "engine_budget.q";
  try {
    core::run_gsnp_cpu(c);
    ADD_FAILURE() << "the budget did not abort the call";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), aborted.error);
  }
  EXPECT_EQ(read_bytes(dir_ / "engine_budget.q"),
            read_bytes(dir_ / "streamed_budget.q"));
}

TEST_F(CalP, LineQuirksMatchTheStreamingReader) {
  // Blank lines, CRLF endings, a line longer than a whole batch, and no
  // newline after the last record.
  const std::string& text = soap_->bytes;
  const std::vector<std::size_t>& line_starts = soap_->line_starts;
  std::string bytes = text.substr(0, line_starts[100]);
  bytes += "\n\r\n";
  bytes += std::string(kAlignmentBatchBytes + 12345, 'x') + "\n";
  for (std::size_t i = line_starts[100]; i < text.size(); ++i) {
    if (text[i] == '\n') bytes += '\r';
    bytes += text[i];
  }
  bytes.pop_back();  // the last record's '\n'
  bytes.pop_back();  // and its '\r'
  const fs::path path = dir_ / "quirks.soap";
  write_bytes(path, bytes);

  IngestPolicy policy = IngestPolicy::make_lenient(dir_ / "streamed.q");
  const Ingest streamed = read_streaming(path, policy, ref_.size());
  EXPECT_EQ(streamed.stats.records_quarantined, 1u);
  EXPECT_EQ(streamed.records.size(), line_starts.size());
  policy.quarantine_file = dir_ / "batched.q";
  expect_same_ingest(streamed,
                     read_batches(path, policy, ref_.size(), nullptr));
  EXPECT_EQ(read_bytes(dir_ / "batched.q"), read_bytes(dir_ / "streamed.q"));

  // Strict, the long line is the first error, by line number.
  try {
    core::run_gsnp_cpu(config(path));
    ADD_FAILURE() << "no ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 103u);
    EXPECT_EQ(e.reason(), IngestReason::kLineTooLong);
  }
}

}  // namespace
}  // namespace gsnp
