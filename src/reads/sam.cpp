#include "src/reads/sam.hpp"

#include <algorithm>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/phred.hpp"
#include "src/common/strings.hpp"

namespace gsnp::reads {

namespace {

/// Reverse-complement a base string in place ('N' maps to itself).
std::string reverse_complement(std::string_view seq) {
  std::string out(seq.rbegin(), seq.rend());
  for (char& c : out) {
    const u8 b = base_from_char(c);
    c = b < kNumBases ? char_from_base(complement(b)) : 'N';
  }
  return out;
}

bool valid_seq_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '=' ||
         c == '.';
}

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
  if (rec.strand == Strand::kReverse) {
    seq = reverse_complement(seq);
    std::reverse(qual.begin(), qual.end());
  }

  std::ostringstream os;
  os << rec.read_id << '\t' << flag << '\t' << rec.chr_name << '\t'
     << (rec.pos + 1) << '\t' << 60 << '\t' << rec.length << 'M' << '\t'
     << '*' << '\t' << 0 << '\t' << 0 << '\t' << seq << '\t' << qual
     << "\tNH:i:" << rec.hit_count;
  return os.str();
}

std::optional<AlignmentRecord> parse_sam_record(std::string_view line,
                                                const ParseContext& ctx) {
  const auto fields = split(trim(line), '\t');
  if (fields.size() < 11)
    ctx.fail("record", IngestReason::kTruncatedRecord,
             "expected 11 tab-separated fields, got " +
                 std::to_string(fields.size()));

  const u32 flag = parse_int_ctx<u32>(fields[1], ctx, "FLAG");
  if (flag & (kSamFlagUnmapped | kSamFlagSecondary | kSamFlagSupplementary))
    return std::nullopt;

  u32 match_len = 0, left_clip = 0;
  switch (parse_simple_cigar(fields[5], match_len, left_clip)) {
    case CigarStatus::kSimple: break;
    case CigarStatus::kUnsupported: return std::nullopt;
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

  AlignmentRecord rec;
  rec.read_id = std::string(fields[0]);
  if (fields[2] == "*" || fields[2].empty())
    ctx.fail("RNAME", IngestReason::kBadField,
             "mapped record without a reference name");
  rec.chr_name = std::string(fields[2]);
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

  std::string seq(fields[9]);
  std::string qual(fields[10]);
  if (seq == "*") return std::nullopt;  // sequence not stored: nothing to call
  if (qual != "*" && seq.size() != qual.size())
    ctx.fail("QUAL", IngestReason::kLengthMismatch,
             "SEQ/QUAL lengths " + std::to_string(seq.size()) + "/" +
                 std::to_string(qual.size()) + " differ in '" + rec.read_id +
                 "'");
  if (qual == "*") qual.assign(seq.size(), '!');
  // Trim soft clips: the aligned portion is [left_clip, left_clip+match).
  if (static_cast<u64>(left_clip) + match_len > seq.size())
    ctx.fail("CIGAR", IngestReason::kLengthMismatch,
             "CIGAR consumes " + std::to_string(left_clip + match_len) +
                 " bases but SEQ has " + std::to_string(seq.size()) +
                 " in '" + rec.read_id + "'");
  seq = seq.substr(left_clip, match_len);
  qual = qual.substr(left_clip, match_len);
  for (const char c : seq)
    if (!valid_seq_char(c))
      ctx.fail("SEQ", IngestReason::kBadField,
               "non-base character 0x" + std::to_string(
                   static_cast<unsigned>(static_cast<unsigned char>(c))));
  for (const char c : qual)
    if (c < kQualityAsciiOffset || c > '~')
      ctx.fail("QUAL", IngestReason::kBadField,
               "quality byte 0x" + std::to_string(
                   static_cast<unsigned>(static_cast<unsigned char>(c))) +
                   " outside the Sanger range");

  // Back to read-strand orientation.
  if (rec.strand == Strand::kReverse) {
    seq = reverse_complement(seq);
    std::reverse(qual.begin(), qual.end());
  }
  rec.seq = std::move(seq);
  rec.qual = std::move(qual);
  rec.length = static_cast<u16>(match_len);

  // NH tag -> hit count.
  rec.hit_count = 1;
  for (std::size_t f = 11; f < fields.size(); ++f) {
    if (fields[f].substr(0, 5) == "NH:i:")
      rec.hit_count = parse_int_ctx<u32>(fields[f].substr(5), ctx, "NH tag");
  }
  return rec;
}

std::optional<AlignmentRecord> parse_sam_record(std::string_view line) {
  return parse_sam_record(line, ParseContext{});
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

SamReader::SamReader(const std::filesystem::path& path, IngestPolicy policy)
    : in_(path),
      policy_(std::move(policy)),
      quarantine_(policy_.quarantine_file) {
  GSNP_CHECK_MSG(in_.good(), "cannot open SAM file " << path);
  ctx_.file = path.string();
}

std::optional<AlignmentRecord> SamReader::next() {
  while (std::getline(in_, line_)) {
    ++ctx_.line_no;
    try {
      ctx_.check_line_length(line_);
      const auto body = trim(line_);
      if (body.empty() || body.front() == '@') continue;
      auto rec = parse_sam_record(body, ctx_);
      if (!rec) {
        ++stats_.records_unsupported;
        continue;
      }
      // (chr, pos) sort check.  A chromosome reappearing after another began
      // means the file is not sorted, even though each block may be.
      if (!seen_chrs_.empty() && seen_chrs_.back() == rec->chr_name) {
        if (rec->pos < last_pos_)
          ctx_.fail("POS", IngestReason::kSortOrderViolation,
                    "position " + std::to_string(rec->pos + 1) + " on " +
                        rec->chr_name + " after position " +
                        std::to_string(last_pos_ + 1) + " (line " +
                        std::to_string(ctx_.line_no) +
                        ") — input must be coordinate-sorted (samtools sort)");
      } else {
        if (std::find(seen_chrs_.begin(), seen_chrs_.end(), rec->chr_name) !=
            seen_chrs_.end())
          ctx_.fail("RNAME", IngestReason::kSortOrderViolation,
                    "chromosome " + rec->chr_name + " reappears at line " +
                        std::to_string(ctx_.line_no) +
                        " after another chromosome started — input must be "
                        "sorted by (chr, pos)");
        seen_chrs_.push_back(rec->chr_name);
      }
      last_pos_ = rec->pos;
      ++stats_.records_ok;
      return rec;
    } catch (const ParseError& err) {
      if (!policy_.lenient()) throw;
      quarantine_record(policy_, stats_, &quarantine_, err, line_);
    }
  }
  return std::nullopt;
}

u64 sam_to_soap(const std::filesystem::path& sam_path,
                const std::filesystem::path& soap_path,
                const IngestPolicy& policy, IngestStats* stats_out) {
  SamReader reader(sam_path, policy);
  std::ofstream out(soap_path);
  GSNP_CHECK_MSG(out.good(), "cannot open output " << soap_path);
  u64 converted = 0;
  while (auto rec = reader.next()) {
    out << format_alignment(*rec) << '\n';
    ++converted;
  }
  if (stats_out) *stats_out = reader.stats();
  return converted;
}

}  // namespace gsnp::reads
