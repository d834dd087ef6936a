#pragma once
// Short-read alignment records and the alignment text formats.
//
// GSNP's main input is the output of a short-read aligner, a text file of
// alignment records *sorted by reference position*, in the aligner's own
// format (paper §V-A constraint 1: "input files are stored in specific
// formats widely used by scientists"): SOAPsnp's SOAP format, or the SAM
// subset of FORMATS.md §2 that GPU aligners emit.  Each record carries the
// read sequence and quality string on the read's own strand, its hit count
// (1 = uniquely aligned), length, strand, sequence name, and 1-based
// leftmost position.
//
// SOAP columns (tab separated):
//   read_id  seq  qual  hit_count  pair_tag  length  strand(+/-)  chr  pos
//
// Parsing is hardened against malformed aligner output: every field is
// validated (overflow-checked integers, read length capped at kMaxReadLen,
// lines at kMaxLineBytes, quality characters in the Sanger range,
// positions bounded by the reference when its length is known, coordinate
// sort order enforced) and failures raise gsnp::ParseError with file/line/
// field/reason.  Readers can run lenient (skip + quarantine, bounded by the
// policy's error budget) instead of strict.
//
// Reading splits in two halves.  The line parser is order-free: one scan
// per format (parse_alignment_view, parse_sam_line) checks one line's
// fields and returns views into the line.  AlignmentStitch applies, in file
// order and alike for both formats, what depends on earlier lines: line
// numbers, the single sequence name, the sort order, strict mode's first
// error and the lenient quarantine with its error budget.  AlignmentReader
// streams a file through both one line at a time; AlignmentBatchReader
// parses batches of the file block-parallel on the compute executor and
// stitches each batch after.  Both take the format from the file name.

#include <filesystem>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/cancel.hpp"
#include "src/common/ingest.hpp"
#include "src/common/overwrite_vector.hpp"
#include "src/common/types.hpp"

namespace gsnp::reads {

struct AlignmentRecord {
  std::string read_id;
  std::string seq;    ///< ASCII bases, on the read's own strand
  std::string qual;   ///< ASCII Phred qualities (Sanger offset), same order
  u32 hit_count = 1;  ///< number of equally good alignments; 1 = unique
  char pair_tag = 'a';
  u16 length = 0;
  Strand strand = Strand::kForward;
  std::string chr_name;
  u64 pos = 0;  ///< 0-based leftmost reference position of the alignment

  bool operator==(const AlignmentRecord&) const = default;
};

/// An alignment record whose text fields are views into bytes it does not
/// own (a parsed line, or an AlignmentRecord's strings).
struct AlignmentView {
  std::string_view read_id;
  std::string_view seq;
  std::string_view qual;
  u32 hit_count = 1;
  char pair_tag = 'a';
  u16 length = 0;
  Strand strand = Strand::kForward;
  std::string_view chr_name;
  u64 pos = 0;
};

AlignmentRecord to_record(const AlignmentView& view);
AlignmentView view_of(const AlignmentRecord& rec);

/// Serialize one record as a SOAP-format line (pos written 1-based).
std::string format_alignment(const AlignmentRecord& rec);

/// The SOAP line parser: one fixed scan of the nine tab-separated fields of
/// a trimmed, non-empty line, with every field check.  Fields after the
/// ninth are ignored.  Throws gsnp::ParseError (with the context's file/line
/// and a reason code) on malformed input.
AlignmentView parse_alignment_view(std::string_view line,
                                   const ParseContext& ctx);

/// parse_alignment_view of the trimmed line, copied into a record.
AlignmentRecord parse_alignment(std::string_view line,
                                const ParseContext& ctx = {});

/// What a line parser found in one line.
enum class LineKind : u8 {
  kBlank,        ///< no record: an empty line, or a SAM `@` header line
  kRecord,       ///< a record, in the parse's view
  kUnsupported,  ///< a well-formed SAM record outside the subset (§2)
  kFailed,       ///< malformed: the parse threw
};

/// One line's parse: what it found and, for kRecord, the view into it.
struct LineParse {
  LineKind kind = LineKind::kBlank;
  AlignmentView view;
};

/// An alignment text format: its line scan, which takes a trimmed,
/// non-empty line and throws ParseError on malformed input, and the names
/// the file-order rules give their fields.
struct AlignmentFormat {
  LineParse (*scan)(std::string_view line, const ParseContext& ctx);
  const char* position_field;  ///< the sort-order rule's field
  const char* name_field;      ///< the one-sequence rule's field
  /// SEQ and QUAL are stored on the forward reference strand (SAM), so a
  /// kept reverse-strand record's are turned into the read's own order.
  bool reference_strand;
};

/// SAM for a file named `*.sam`, SOAP for any other.
const AlignmentFormat& alignment_format(const std::filesystem::path& path);

/// The order-free check of one raw line: the line cap, then `format`'s
/// scan of the trimmed line (kBlank for an empty one).  Throws ParseError
/// (line too long, bad fields); never returns kFailed.
LineParse parse_alignment_line(std::string_view line,
                               const AlignmentFormat& format,
                               const ParseContext& ctx);

/// Write records to a stream, one line each.
void write_alignments(std::ostream& out,
                      const std::vector<AlignmentRecord>& recs);
void write_alignment_file(const std::filesystem::path& path,
                          const std::vector<AlignmentRecord>& recs);

/// The file-order half of reading an alignment file.  Lines are handed over
/// in file order with their line numbers.  Enforces a single sequence name
/// per file and coordinate sort order, and counts unsupported records.  In
/// strict mode the first malformed line throws its ParseError; in lenient
/// mode it is quarantined into the policy's quarantine file and counted in
/// stats(), up to the error budget.
class AlignmentStitch {
 public:
  AlignmentStitch(std::string file, const AlignmentFormat& format,
                  IngestPolicy policy, u64 reference_length);

  /// Line `line_no`, raw bytes `line` without its newline, in memory the
  /// reader owns.  `parsed` is the line's parse_alignment_line when the
  /// caller already parsed it; null or kFailed parses it here (a line whose
  /// earlier parse failed fails again here, with this line's number).  A
  /// kept record's SEQ and QUAL are then turned into read-strand order in
  /// `line` (reverse-strand SAM).  Returns the kept record (`parsed`'s view,
  /// or the view parsed here, valid until the next call), or null for a
  /// blank, unsupported or quarantined line.
  const AlignmentView* keep(std::span<char> line, u64 line_no,
                            const LineParse* parsed = nullptr);

  const IngestStats& stats() const { return stats_; }
  const ParseContext& context() const { return ctx_; }

 private:
  const AlignmentFormat& format_;
  IngestPolicy policy_;
  ParseContext ctx_;
  IngestStats stats_;
  QuarantineWriter quarantine_;
  std::string chr_name_;  ///< sequence name locked by the first record
  u64 last_pos_ = 0;
  bool any_record_ = false;
  LineParse parsed_;  ///< the last line keep() parsed itself
};

/// Streaming reader over an alignment file; `next()` yields records in file
/// order and std::nullopt at end of file.  Each line goes through
/// parse_alignment_line and an AlignmentStitch.
class AlignmentReader {
 public:
  explicit AlignmentReader(const std::filesystem::path& path,
                           IngestPolicy policy = {},
                           u64 reference_length = 0);

  std::optional<AlignmentRecord> next();

  const IngestStats& stats() const { return stitch_.stats(); }

 private:
  std::ifstream in_;
  std::string line_;
  u64 line_no_ = 0;
  AlignmentStitch stitch_;
};

/// Bytes of new input each AlignmentBatchReader batch reads, and the size of
/// the blocks its lines are parsed in.  A block ends at the first line end
/// at or past kAlignmentBlockBytes from its start; a batch's lines end at
/// the last line end in the bytes it holds.
inline constexpr std::size_t kAlignmentBatchBytes = std::size_t{4} << 20;
inline constexpr std::size_t kAlignmentBlockBytes = std::size_t{256} << 10;

/// Block-parallel reader over an alignment file (the cal_p pass's), with
/// the same records, errors, quarantine and stats as AlignmentReader.  Each
/// batch reads kAlignmentBatchBytes more of the file, parses its lines in
/// blocks of kAlignmentBlockBytes on the compute executor into views into
/// the batch, and then stitches them in file order on the calling thread,
/// polling `cancel` every 4,096 kept records.
///
/// Every batch but the last holds a multiple of `whole` records, so a
/// caller can cut the records into groups of `whole` that never straddle a
/// batch.  The kept records past the last whole group move, with their
/// bytes, to the front of the next batch.
class AlignmentBatchReader {
 public:
  AlignmentBatchReader(const std::filesystem::path& path, IngestPolicy policy,
                       u64 reference_length, std::size_t whole,
                       const CancelToken* cancel = nullptr);

  /// The next batch's kept records in file order, valid until the next
  /// call; empty at end of file.
  std::span<const AlignmentView> next();

  const IngestStats& stats() const { return stitch_.stats(); }
  u64 records() const { return records_; }

 private:
  /// One line of the batch as the parse left it.
  struct ParsedLine {
    std::span<char> line;
    LineParse parse;
  };

  /// Read until the unparsed bytes past carry_ hold a line end (or EOF) and
  /// kAlignmentBatchBytes new bytes came in; returns the end of the bytes
  /// to parse (past their last line end).
  std::size_t fill();
  /// Parse the lines in buf_ [begin, end) into lines_.
  void parse(std::size_t begin, std::size_t end);
  void stitch();
  /// Move the records past `kept`, with their bytes, and the unparsed tail
  /// from `tail` to the front of buf_.
  void carry(std::size_t kept, std::size_t tail);

  std::ifstream in_;
  const AlignmentFormat& format_;
  const std::size_t whole_;
  const CancelToken* cancel_;
  AlignmentStitch stitch_;
  ParseContext block_ctx_;      ///< the parse's context (line numbers unused)
  std::unique_ptr<char[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t carry_ = 0;       ///< bytes of carried records at the front
  std::size_t size_ = 0;        ///< bytes held in buf_
  std::size_t handed_ = 0;      ///< records the last next() returned
  std::size_t parsed_end_ = 0;  ///< end of the bytes the last batch parsed
  bool eof_ = false;
  u64 next_line_ = 1;           ///< number of the first unparsed line
  u64 records_ = 0;
  std::vector<std::size_t> blocks_;  ///< block starts in buf_, then the end
  std::vector<std::size_t> first_line_;  ///< each block's first line index
  OverwriteVector<ParsedLine> lines_;  ///< each written by its block's task
  std::vector<AlignmentView> kept_;
};

/// Read a whole file into memory (tests and small examples).
std::vector<AlignmentRecord> read_alignment_file(
    const std::filesystem::path& path);

}  // namespace gsnp::reads
