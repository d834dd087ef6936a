#include "src/reads/alignment.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <ostream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/common/phred.hpp"
#include "src/common/strings.hpp"
#include "src/reads/sam.hpp"

namespace gsnp::reads {

namespace {

/// Sequence characters the pipeline accepts: letters (IUPAC codes map to 'N'
/// downstream).  Anything else — digits, punctuation, control bytes — is
/// aligner corruption, not biology.
bool valid_seq_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z');
}

void check_seq_qual(std::string_view seq, std::string_view qual,
                    const ParseContext& ctx) {
  for (const char c : seq)
    if (!valid_seq_char(c))
      ctx.fail("sequence", IngestReason::kBadField,
               "non-base character " + hex_byte(c));
  // Sanger qualities: '!' (0) upward.  Characters above the supported range
  // clamp to kQualityLevels-1 downstream (tolerated; some instruments emit
  // them), but bytes below '!' or beyond printable ASCII are corruption.
  for (const char c : qual)
    if (c < kQualityAsciiOffset || c > '~')
      ctx.fail("quality", IngestReason::kBadField,
               "quality byte " + hex_byte(c) + " outside the Sanger range");
}

LineParse scan_soap(std::string_view line, const ParseContext& ctx) {
  return {LineKind::kRecord, parse_alignment_view(line, ctx)};
}

constexpr AlignmentFormat kSoap{scan_soap, "position", "sequence name",
                                false};
constexpr AlignmentFormat kSam{parse_sam_line, "POS", "RNAME", true};

/// Whether `field` starts inside the `size` bytes at `bytes`.  A view of
/// bytes no line holds (a `*` QUAL's run of '!') starts in none.
bool inside(std::string_view field, const char* bytes, std::size_t size) {
  return !std::less<const char*>()(field.data(), bytes) &&
         std::less<const char*>()(field.data(), bytes + size);
}

/// `view`'s fields that lie in the `size` bytes at `from`, for the same
/// bytes at `to`.
void relocate(AlignmentView& view, const char* from, std::size_t size,
              char* to) {
  for (std::string_view* field :
       {&view.read_id, &view.seq, &view.qual, &view.chr_name})
    if (inside(*field, from, size))
      *field = std::string_view(to + (field->data() - from), field->size());
}

/// The writable bytes of `line` that `field` views.
std::span<char> in_line(std::span<char> line, std::string_view field) {
  if (!inside(field, line.data(), line.size())) return {};
  return line.subspan(static_cast<std::size_t>(field.data() - line.data()),
                      field.size());
}

}  // namespace

const AlignmentFormat& alignment_format(const std::filesystem::path& path) {
  return path.extension() == ".sam" ? kSam : kSoap;
}

AlignmentRecord to_record(const AlignmentView& view) {
  AlignmentRecord rec;
  rec.read_id = std::string(view.read_id);
  rec.seq = std::string(view.seq);
  rec.qual = std::string(view.qual);
  rec.hit_count = view.hit_count;
  rec.pair_tag = view.pair_tag;
  rec.length = view.length;
  rec.strand = view.strand;
  rec.chr_name = std::string(view.chr_name);
  rec.pos = view.pos;
  return rec;
}

AlignmentView view_of(const AlignmentRecord& rec) {
  return {rec.read_id, rec.seq,    rec.qual,     rec.hit_count, rec.pair_tag,
          rec.length,  rec.strand, rec.chr_name, rec.pos};
}

std::string format_alignment(const AlignmentRecord& rec) {
  std::ostringstream os;
  os << rec.read_id << '\t' << rec.seq << '\t' << rec.qual << '\t'
     << rec.hit_count << '\t' << rec.pair_tag << '\t' << rec.length << '\t'
     << (rec.strand == Strand::kForward ? '+' : '-') << '\t' << rec.chr_name
     << '\t' << (rec.pos + 1);
  return os.str();
}

AlignmentView parse_alignment_view(std::string_view line,
                                   const ParseContext& ctx) {
  std::array<std::string_view, 9> fields;
  const std::size_t n = split_first(line, '\t', fields);
  if (n < fields.size())
    ctx.fail("record", IngestReason::kTruncatedRecord,
             "expected 9 tab-separated fields, got " + std::to_string(n));
  AlignmentView rec;
  rec.read_id = fields[0];
  rec.seq = fields[1];
  rec.qual = fields[2];
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
  rec.chr_name = fields[7];
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
                 std::to_string(rec.length) + " in '" +
                 std::string(rec.read_id) + "'");
  check_seq_qual(rec.seq, rec.qual, ctx);
  return rec;
}

AlignmentRecord parse_alignment(std::string_view line,
                                const ParseContext& ctx) {
  return to_record(parse_alignment_view(trim(line), ctx));
}

LineParse parse_alignment_line(std::string_view line,
                               const AlignmentFormat& format,
                               const ParseContext& ctx) {
  ctx.check_line_length(line);
  const std::string_view body = trim(line);
  if (body.empty()) return {};
  return format.scan(body, ctx);
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

// ---- the file-order stitch -------------------------------------------------

AlignmentStitch::AlignmentStitch(std::string file,
                                 const AlignmentFormat& format,
                                 IngestPolicy policy, u64 reference_length)
    : format_(format),
      policy_(std::move(policy)),
      quarantine_(policy_.quarantine_file) {
  ctx_.file = std::move(file);
  ctx_.reference_length = reference_length;
}

const AlignmentView* AlignmentStitch::keep(std::span<char> line,
                                           u64 line_no,
                                           const LineParse* parsed) {
  ctx_.line_no = line_no;
  const std::string_view text(line.data(), line.size());
  try {
    if (!parsed || parsed->kind == LineKind::kFailed) {
      parsed_ = parse_alignment_line(text, format_, ctx_);
      parsed = &parsed_;
    }
    if (parsed->kind == LineKind::kUnsupported) ++stats_.records_unsupported;
    if (parsed->kind != LineKind::kRecord) return nullptr;
    const AlignmentView& rec = parsed->view;
    if (any_record_ && rec.chr_name != chr_name_)
      ctx_.fail(format_.name_field, IngestReason::kBadField,
                "file mixes sequences '" + chr_name_ + "' and '" +
                    std::string(rec.chr_name) + "'");
    if (any_record_ && rec.pos < last_pos_)
      ctx_.fail(format_.position_field, IngestReason::kSortOrderViolation,
                "position " + std::to_string(rec.pos + 1) +
                    " after position " + std::to_string(last_pos_ + 1) +
                    " (line " + std::to_string(line_no) +
                    ") — input must be coordinate-sorted");
    if (!any_record_) chr_name_ = std::string(rec.chr_name);
    last_pos_ = rec.pos;
    any_record_ = true;
    ++stats_.records_ok;
    if (format_.reference_strand && rec.strand == Strand::kReverse)
      flip_strand(in_line(line, rec.seq), in_line(line, rec.qual));
    return &rec;
  } catch (const ParseError& err) {
    if (!policy_.lenient()) throw;
    quarantine_record(policy_, stats_, &quarantine_, err, text);
    return nullptr;
  }
}

// ---- streaming reader ------------------------------------------------------

AlignmentReader::AlignmentReader(const std::filesystem::path& path,
                                 IngestPolicy policy, u64 reference_length)
    : in_(path),
      stitch_(path.string(), alignment_format(path), std::move(policy),
              reference_length) {
  GSNP_CHECK_MSG(in_.good(), "cannot open alignment file " << path);
}

std::optional<AlignmentRecord> AlignmentReader::next() {
  while (std::getline(in_, line_))
    if (const AlignmentView* rec = stitch_.keep(line_, ++line_no_))
      return to_record(*rec);
  return std::nullopt;
}

std::vector<AlignmentRecord> read_alignment_file(
    const std::filesystem::path& path) {
  AlignmentReader reader(path);
  std::vector<AlignmentRecord> recs;
  while (auto rec = reader.next()) recs.push_back(std::move(*rec));
  return recs;
}

// ---- block-parallel batch reader -------------------------------------------

AlignmentBatchReader::AlignmentBatchReader(const std::filesystem::path& path,
                                           IngestPolicy policy,
                                           u64 reference_length,
                                           std::size_t whole,
                                           const CancelToken* cancel)
    : in_(path, std::ios::binary),
      format_(alignment_format(path)),
      whole_(whole),
      cancel_(cancel),
      stitch_(path.string(), format_, std::move(policy), reference_length) {
  GSNP_CHECK_MSG(in_.good(), "cannot open alignment file " << path);
  GSNP_CHECK(whole_ > 0);
  block_ctx_ = stitch_.context();
}

std::span<const AlignmentView> AlignmentBatchReader::next() {
  carry(handed_, parsed_end_);
  for (;;) {
    if (eof_ && size_ == carry_) {  // every line is stitched: the rest
      handed_ = kept_.size();
      parsed_end_ = size_;
      return kept_;
    }
    parsed_end_ = fill();
    parse(carry_, parsed_end_);
    stitch();
    handed_ = eof_ && parsed_end_ == size_
                  ? kept_.size()
                  : kept_.size() / whole_ * whole_;
    if (handed_ > 0) return {kept_.data(), handed_};
    carry(0, parsed_end_);  // not one whole group yet: read on
  }
}

std::size_t AlignmentBatchReader::fill() {
  std::size_t want = size_ + kAlignmentBatchBytes;
  for (;;) {
    if (want > capacity_) {
      // Grow, with room for the next carry, moving the carried records'
      // views with their bytes.
      const std::size_t capacity = want + kAlignmentBatchBytes / 2;
      std::unique_ptr<char[]> grown(new char[capacity]);
      if (size_ > 0) std::memcpy(grown.get(), buf_.get(), size_);
      for (AlignmentView& view : kept_)
        relocate(view, buf_.get(), size_, grown.get());
      buf_ = std::move(grown);
      capacity_ = capacity;
    }
    in_.read(buf_.get() + size_, static_cast<std::streamsize>(want - size_));
    const auto got = static_cast<std::size_t>(in_.gcount());
    GSNP_CHECK_MSG(!in_.bad(), "read failed on " << block_ctx_.file);
    eof_ = size_ + got < want;
    size_ += got;
    if (eof_) return size_;
    // The bytes to parse end at the last line end past the carried lines.
    for (std::size_t i = size_; i > carry_; --i)
      if (buf_[i - 1] == '\n') return i;
    want = size_ + kAlignmentBatchBytes;  // one line longer than a batch
  }
}

void AlignmentBatchReader::parse(std::size_t begin, std::size_t end) {
  char* const buf = buf_.get();
  blocks_.clear();
  for (std::size_t start = begin; start < end;) {
    blocks_.push_back(start);
    start = end;
    if (end - blocks_.back() > kAlignmentBlockBytes) {
      const char* at = buf + blocks_.back() + kAlignmentBlockBytes - 1;
      if (const void* nl = std::memchr(at, '\n', buf + end - at))
        start = static_cast<const char*>(nl) - buf + 1;
    }
  }
  blocks_.push_back(end);
  const std::size_t nblocks = blocks_.size() - 1;
  // Count each block's lines, then parse each into its slice of lines_,
  // which the caller sizes without initializing (a worker's allocation
  // would stay in its heap).
  first_line_.assign(nblocks + 1, 0);
  parallel_for(nblocks, 1, [&](std::size_t first, std::size_t last,
                               std::size_t) {
    for (std::size_t b = first; b < last; ++b) {
      char* const stop = buf + blocks_[b + 1];
      first_line_[b + 1] = static_cast<std::size_t>(
          std::count(buf + blocks_[b], stop, '\n') + (stop[-1] != '\n'));
    }
  });
  for (std::size_t b = 0; b < nblocks; ++b)
    first_line_[b + 1] += first_line_[b];
  lines_.resize(first_line_[nblocks]);
  parallel_for(nblocks, 1, [&](std::size_t first, std::size_t last,
                               std::size_t) {
    for (std::size_t b = first; b < last; ++b) {
      char* p = buf + blocks_[b];
      char* const stop = buf + blocks_[b + 1];
      for (std::size_t i = first_line_[b]; p < stop; ++i) {
        void* nl = std::memchr(p, '\n', stop - p);
        char* const line_end = nl ? static_cast<char*>(nl) : stop;
        ParsedLine& parsed = lines_[i];
        parsed.line = std::span<char>(p, line_end);
        try {
          parsed.parse = parse_alignment_line(
              std::string_view(p, parsed.line.size()), format_, block_ctx_);
        } catch (const ParseError&) {
          parsed.parse.kind = LineKind::kFailed;
        }
        p = line_end + (nl ? 1 : 0);
      }
    }
  });
}

void AlignmentBatchReader::stitch() {
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const ParsedLine& line = lines_[i];
    if (line.parse.kind == LineKind::kBlank) continue;
    const AlignmentView* rec =
        stitch_.keep(line.line, next_line_ + i, &line.parse);
    if (!rec) continue;
    kept_.push_back(*rec);
    if ((++records_ & 0xFFF) == 0) check_cancel(cancel_, "cal_p");
  }
  next_line_ += lines_.size();
}

void AlignmentBatchReader::carry(std::size_t kept, std::size_t tail) {
  // A record's views span its line from the read id, its first field, to
  // the end of the last of them in the batch: the sequence name in SOAP,
  // SEQ or QUAL in SAM.  They move toward the front in file order, so none
  // overwrites bytes still to move.
  std::size_t out = 0;
  for (std::size_t i = kept; i < kept_.size(); ++i) {
    AlignmentView& view = kept_[i];
    const char* const from = view.read_id.data();
    const char* end = from + view.read_id.size();
    for (const std::string_view field : {view.seq, view.qual, view.chr_name})
      if (inside(field, buf_.get(), size_))
        end = std::max(end, field.data() + field.size());
    const auto bytes = static_cast<std::size_t>(end - from);
    char* const to = buf_.get() + out;
    std::memmove(to, from, bytes);
    relocate(view, from, bytes, to);
    out += bytes;
  }
  kept_.erase(kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(kept));
  if (size_ > tail)
    std::memmove(buf_.get() + out, buf_.get() + tail, size_ - tail);
  size_ = out + (size_ - tail);
  carry_ = out;
}

}  // namespace gsnp::reads
