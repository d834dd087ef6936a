#include "src/reads/alignment.hpp"

#include <ostream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/phred.hpp"
#include "src/common/strings.hpp"

namespace gsnp::reads {

namespace {

/// Sequence characters the pipeline accepts: letters (IUPAC codes map to 'N'
/// downstream).  Anything else — digits, punctuation, control bytes — is
/// aligner corruption, not biology.
bool valid_seq_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z');
}

void check_seq_qual(const std::string& seq, const std::string& qual,
                    const ParseContext& ctx) {
  for (const char c : seq)
    if (!valid_seq_char(c))
      ctx.fail("sequence", IngestReason::kBadField,
               "non-base character 0x" + std::to_string(
                   static_cast<unsigned>(static_cast<unsigned char>(c))));
  // Sanger qualities: '!' (0) upward.  Characters above the supported range
  // clamp to kQualityLevels-1 downstream (tolerated; some instruments emit
  // them), but bytes below '!' or beyond printable ASCII are corruption.
  for (const char c : qual)
    if (c < kQualityAsciiOffset || c > '~')
      ctx.fail("quality", IngestReason::kBadField,
               "quality byte 0x" + std::to_string(
                   static_cast<unsigned>(static_cast<unsigned char>(c))) +
                   " outside the Sanger range");
}

}  // namespace

std::string format_alignment(const AlignmentRecord& rec) {
  std::ostringstream os;
  os << rec.read_id << '\t' << rec.seq << '\t' << rec.qual << '\t'
     << rec.hit_count << '\t' << rec.pair_tag << '\t' << rec.length << '\t'
     << (rec.strand == Strand::kForward ? '+' : '-') << '\t' << rec.chr_name
     << '\t' << (rec.pos + 1);
  return os.str();
}

AlignmentRecord parse_alignment(std::string_view line,
                                const ParseContext& ctx) {
  const auto fields = split(trim(line), '\t');
  if (fields.size() < 9)
    ctx.fail("record", IngestReason::kTruncatedRecord,
             "expected 9 tab-separated fields, got " +
                 std::to_string(fields.size()));
  AlignmentRecord rec;
  rec.read_id = std::string(fields[0]);
  rec.seq = std::string(fields[1]);
  rec.qual = std::string(fields[2]);
  rec.hit_count = parse_int_ctx<u32>(fields[3], ctx, "hit count");
  if (fields[4].size() != 1)
    ctx.fail("pair tag", IngestReason::kBadField,
             "'" + std::string(fields[4]) + "'");
  rec.pair_tag = fields[4][0];
  const u32 length = parse_int_ctx<u32>(fields[5], ctx, "read length");
  if (length == 0)
    ctx.fail("read length", IngestReason::kBadField, "zero-length read");
  if (length > kMaxReadLen)
    ctx.fail("read length", IngestReason::kReadTooLong,
             std::to_string(length) + " exceeds the " +
                 std::to_string(kMaxReadLen) + "-base limit");
  rec.length = static_cast<u16>(length);
  if (fields[6] != "+" && fields[6] != "-")
    ctx.fail("strand", IngestReason::kBadField,
             "'" + std::string(fields[6]) + "'");
  rec.strand = fields[6] == "+" ? Strand::kForward : Strand::kReverse;
  rec.chr_name = std::string(fields[7]);
  const u64 pos1 = parse_int_ctx<u64>(fields[8], ctx, "position");
  if (pos1 < 1)
    ctx.fail("position", IngestReason::kPositionOutOfRange,
             "positions are 1-based");
  if (pos1 > kMaxIngestPosition)
    ctx.fail("position", IngestReason::kPositionOutOfRange,
             "position " + std::string(fields[8]) + " is absurd");
  rec.pos = pos1 - 1;
  if (ctx.reference_length > 0 &&
      (rec.pos >= ctx.reference_length ||
       length > ctx.reference_length - rec.pos))
    ctx.fail("position", IngestReason::kPositionOutOfRange,
             "alignment [" + std::to_string(rec.pos) + ", " +
                 std::to_string(rec.pos + length) +
                 ") extends past the reference end (" +
                 std::to_string(ctx.reference_length) + ")");
  if (rec.seq.size() != rec.length || rec.qual.size() != rec.length)
    ctx.fail("record", IngestReason::kLengthMismatch,
             "seq/qual lengths " + std::to_string(rec.seq.size()) + "/" +
                 std::to_string(rec.qual.size()) +
                 " do not match declared length " +
                 std::to_string(rec.length) + " in '" + rec.read_id + "'");
  check_seq_qual(rec.seq, rec.qual, ctx);
  return rec;
}

AlignmentRecord parse_alignment(std::string_view line) {
  return parse_alignment(line, ParseContext{});
}

void write_alignments(std::ostream& out,
                      const std::vector<AlignmentRecord>& recs) {
  for (const auto& rec : recs) out << format_alignment(rec) << '\n';
}

void write_alignment_file(const std::filesystem::path& path,
                          const std::vector<AlignmentRecord>& recs) {
  std::ofstream out(path);
  GSNP_CHECK_MSG(out.good(), "cannot open alignment file for write " << path);
  write_alignments(out, recs);
}

AlignmentReader::AlignmentReader(const std::filesystem::path& path,
                                 IngestPolicy policy, u64 reference_length)
    : in_(path),
      policy_(std::move(policy)),
      quarantine_(policy_.quarantine_file) {
  GSNP_CHECK_MSG(in_.good(), "cannot open alignment file " << path);
  ctx_.file = path.string();
  ctx_.reference_length = reference_length;
}

std::optional<AlignmentRecord> AlignmentReader::next() {
  while (std::getline(in_, line_)) {
    ++ctx_.line_no;
    try {
      ctx_.check_line_length(line_);
      const auto body = trim(line_);
      if (body.empty()) continue;
      AlignmentRecord rec = parse_alignment(body, ctx_);
      if (any_record_ && rec.chr_name != chr_name_)
        ctx_.fail("sequence name", IngestReason::kBadField,
                  "file mixes sequences '" + chr_name_ + "' and '" +
                      rec.chr_name + "'");
      if (any_record_ && rec.pos < last_pos_)
        ctx_.fail("position", IngestReason::kSortOrderViolation,
                  "position " + std::to_string(rec.pos + 1) +
                      " after position " + std::to_string(last_pos_ + 1) +
                      " — input must be coordinate-sorted");
      chr_name_ = rec.chr_name;
      last_pos_ = rec.pos;
      any_record_ = true;
      ++stats_.records_ok;
      return rec;
    } catch (const ParseError& err) {
      if (!policy_.lenient()) throw;
      quarantine_record(policy_, stats_, &quarantine_, err, line_);
    }
  }
  return std::nullopt;
}

std::vector<AlignmentRecord> read_alignment_file(
    const std::filesystem::path& path) {
  AlignmentReader reader(path);
  std::vector<AlignmentRecord> recs;
  while (auto rec = reader.next()) recs.push_back(std::move(*rec));
  return recs;
}

}  // namespace gsnp::reads
