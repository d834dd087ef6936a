#include "src/reads/sam.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/phred.hpp"
#include "src/common/strings.hpp"

namespace gsnp::reads {

namespace {

bool valid_seq_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '=' ||
         c == '.';
}

/// A `*` QUAL's bytes: every base at quality 0.
constexpr auto kQualityZero = [] {
  std::array<char, kMaxReadLen> q{};
  q.fill(kQualityAsciiOffset);
  return q;
}();

}  // namespace

CigarStatus parse_simple_cigar(std::string_view cigar, u32& match_len,
                               u32& left_clip) {
  match_len = 0;
  left_clip = 0;
  if (cigar.empty() || cigar == "*") return CigarStatus::kUnsupported;
  u32 value = 0;
  bool have_value = false;
  bool seen_match = false;
  for (const char c : cigar) {
    if (c >= '0' && c <= '9') {
      const u32 d = static_cast<u32>(c - '0');
      if (value > (0xFFFF'FFFFu - d) / 10u) return CigarStatus::kOverflow;
      value = value * 10 + d;
      have_value = true;
      continue;
    }
    // Every op needs an explicit non-zero count (the SAM grammar requires a
    // count; a zero count is an aligner bug that would silently vanish).
    if (!have_value || value == 0) return CigarStatus::kMalformed;
    switch (c) {
      case 'M':
      case '=':
      case 'X':
        if (seen_match) return CigarStatus::kUnsupported;  // two match runs
        match_len = value;
        seen_match = true;
        break;
      case 'S':
        if (!seen_match) {
          if (left_clip > 0xFFFF'FFFFu - value) return CigarStatus::kOverflow;
          left_clip += value;
        }
        break;  // trailing soft clip just trims
      case 'H':
        break;  // hard clip: bases absent from SEQ
      case 'I':
      case 'D':
      case 'N':
      case 'P':
        return CigarStatus::kUnsupported;  // gapped alignment
      default:
        return CigarStatus::kMalformed;  // unknown op character
    }
    value = 0;
    have_value = false;
  }
  if (have_value) return CigarStatus::kMalformed;  // trailing count, no op
  if (!seen_match || match_len == 0) return CigarStatus::kUnsupported;
  return CigarStatus::kSimple;
}

std::string format_sam_record(const AlignmentRecord& rec) {
  u32 flag = 0;
  if (rec.strand == Strand::kReverse) flag |= kSamFlagReverse;
  if (rec.pair_tag == 'a') flag |= kSamFlagFirstInPair;

  // SAM stores SEQ/QUAL on the forward reference strand.
  std::string seq = rec.seq;
  std::string qual = rec.qual;
  if (rec.strand == Strand::kReverse) flip_strand(seq, qual);

  std::ostringstream os;
  os << rec.read_id << '\t' << flag << '\t' << rec.chr_name << '\t'
     << (rec.pos + 1) << '\t' << 60 << '\t' << rec.length << 'M' << '\t'
     << '*' << '\t' << 0 << '\t' << 0 << '\t' << seq << '\t' << qual
     << "\tNH:i:" << rec.hit_count;
  return os.str();
}

LineParse parse_sam_line(std::string_view line, const ParseContext& ctx) {
  if (line.starts_with('@')) return {};  // a header line
  std::array<std::string_view, 11> fields;
  const std::size_t n = split_first(line, '\t', fields);
  if (n < fields.size())
    ctx.fail("record", IngestReason::kTruncatedRecord,
             "expected 11 tab-separated fields, got " + std::to_string(n));

  LineParse parse{LineKind::kUnsupported, {}};
  const u32 flag = parse_int_ctx<u32>(fields[1], ctx, "FLAG");
  if (flag & (kSamFlagUnmapped | kSamFlagSecondary | kSamFlagSupplementary))
    return parse;

  u32 match_len = 0, left_clip = 0;
  switch (parse_simple_cigar(fields[5], match_len, left_clip)) {
    case CigarStatus::kSimple: break;
    case CigarStatus::kUnsupported: return parse;
    case CigarStatus::kMalformed:
      ctx.fail("CIGAR", IngestReason::kBadCigar,
               "'" + std::string(fields[5]) + "'");
    case CigarStatus::kOverflow:
      ctx.fail("CIGAR", IngestReason::kCigarOverflow,
               "count overflows u32 in '" + std::string(fields[5]) + "'");
  }
  if (match_len > 0xFFFFu)
    ctx.fail("CIGAR", IngestReason::kCigarOverflow,
             "match run " + std::to_string(match_len) +
                 " overflows the 16-bit read length");
  if (match_len > kMaxReadLen)
    ctx.fail("CIGAR", IngestReason::kReadTooLong,
             "match run " + std::to_string(match_len) + " exceeds the " +
                 std::to_string(kMaxReadLen) + "-base limit");

  AlignmentView& rec = parse.view;
  rec.read_id = fields[0];
  if (fields[2] == "*" || fields[2].empty())
    ctx.fail("RNAME", IngestReason::kBadField,
             "mapped record without a reference name");
  rec.chr_name = fields[2];
  const u64 pos1 = parse_int_ctx<u64>(fields[3], ctx, "POS");
  if (pos1 < 1)
    ctx.fail("POS", IngestReason::kPositionOutOfRange,
             "SAM positions are 1-based");
  if (pos1 > kMaxIngestPosition)
    ctx.fail("POS", IngestReason::kPositionOutOfRange,
             "position " + std::string(fields[3]) + " is absurd");
  rec.pos = pos1 - 1;
  if (ctx.reference_length > 0 &&
      (rec.pos >= ctx.reference_length ||
       match_len > ctx.reference_length - rec.pos))
    ctx.fail("POS", IngestReason::kPositionOutOfRange,
             "alignment [" + std::to_string(rec.pos) + ", " +
                 std::to_string(rec.pos + match_len) +
                 ") extends past the reference end (" +
                 std::to_string(ctx.reference_length) + ")");
  rec.strand = (flag & kSamFlagReverse) ? Strand::kReverse : Strand::kForward;
  rec.pair_tag = (flag & kSamFlagFirstInPair) ? 'a' : 'b';

  const std::string_view seq = fields[9];
  const std::string_view qual = fields[10];
  if (seq == "*") return parse;  // sequence not stored: nothing to call
  if (qual != "*" && seq.size() != qual.size())
    ctx.fail("QUAL", IngestReason::kLengthMismatch,
             "SEQ/QUAL lengths " + std::to_string(seq.size()) + "/" +
                 std::to_string(qual.size()) + " differ in '" +
                 std::string(rec.read_id) + "'");
  // Trim soft clips: the aligned portion is [left_clip, left_clip+match).
  if (static_cast<u64>(left_clip) + match_len > seq.size())
    ctx.fail("CIGAR", IngestReason::kLengthMismatch,
             "CIGAR consumes " + std::to_string(left_clip + match_len) +
                 " bases but SEQ has " + std::to_string(seq.size()) +
                 " in '" + std::string(rec.read_id) + "'");
  rec.seq = seq.substr(left_clip, match_len);
  rec.qual = qual == "*" ? std::string_view(kQualityZero.data(), match_len)
                         : qual.substr(left_clip, match_len);
  for (const char c : rec.seq)
    if (!valid_seq_char(c))
      ctx.fail("SEQ", IngestReason::kBadField,
               "non-base character " + hex_byte(c));
  for (const char c : rec.qual)
    if (c < kQualityAsciiOffset || c > '~')
      ctx.fail("QUAL", IngestReason::kBadField,
               "quality byte " + hex_byte(c) + " outside the Sanger range");
  rec.length = static_cast<u16>(match_len);

  // NH tag -> hit count (default 1).  The tags follow QUAL.
  for (auto at = static_cast<std::size_t>(qual.data() + qual.size() -
                                          line.data()) + 1;
       at < line.size();) {
    const std::size_t end = std::min(line.find('\t', at), line.size());
    const std::string_view tag = line.substr(at, end - at);
    if (tag.starts_with("NH:i:"))
      rec.hit_count = parse_int_ctx<u32>(tag.substr(5), ctx, "NH tag");
    at = end + 1;
  }
  parse.kind = LineKind::kRecord;
  return parse;
}

void flip_strand(std::span<char> seq, std::span<char> qual) {
  std::reverse(seq.begin(), seq.end());
  for (char& c : seq) {
    const u8 b = base_from_char(c);
    c = b < kNumBases ? char_from_base(complement(b)) : 'N';
  }
  std::reverse(qual.begin(), qual.end());
}

std::optional<AlignmentRecord> parse_sam_record(std::string_view line,
                                                const ParseContext& ctx) {
  const LineParse parse = parse_sam_line(trim(line), ctx);
  if (parse.kind != LineKind::kRecord) return std::nullopt;
  AlignmentRecord rec = to_record(parse.view);
  if (rec.strand == Strand::kReverse) flip_strand(rec.seq, rec.qual);
  return rec;
}

void write_sam_file(const std::filesystem::path& path,
                    const std::vector<AlignmentRecord>& records,
                    const std::string& seq_name, u64 seq_length) {
  std::ofstream out(path);
  GSNP_CHECK_MSG(out.good(), "cannot open SAM file for write " << path);
  out << "@HD\tVN:1.6\tSO:coordinate\n";
  out << "@SQ\tSN:" << seq_name << "\tLN:" << seq_length << '\n';
  out << "@PG\tID:gsnp\tPN:gsnp\n";
  for (const auto& rec : records) out << format_sam_record(rec) << '\n';
}

}  // namespace gsnp::reads
