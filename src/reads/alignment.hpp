#pragma once
// Short-read alignment records and the SOAP-style text format.
//
// GSNP's main input is the output of a short-read aligner (SOAP), a text file
// of alignment records *sorted by reference position*.  Each record carries
// the read sequence and quality string on the read's own strand, its hit
// count (1 = uniquely aligned), length, strand, sequence name, and 1-based
// leftmost position.  GSNP keeps SOAPsnp's file format (paper §V-A constraint
// 1: "input files are stored in specific formats widely used by scientists").
//
// Columns (tab separated):
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
// Reading splits in two halves.  The line parser (parse_alignment_view) is
// order-free: it checks one line's fields and returns views into the line.
// AlignmentStitch applies, in file order, what depends on earlier lines:
// line numbers, the single sequence name, the sort order, strict mode's
// first error and the lenient quarantine with its error budget.
// AlignmentReader streams a file through both one line at a time;
// AlignmentBatchReader parses batches of the file block-parallel on the
// compute executor and stitches each batch after.

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
AlignmentRecord parse_alignment(std::string_view line, const ParseContext& ctx);
AlignmentRecord parse_alignment(std::string_view line);

/// The order-free check of one raw line: nullopt for a blank line, else its
/// parse_alignment_view.  Throws ParseError (line too long, bad fields).
std::optional<AlignmentView> parse_alignment_line(std::string_view line,
                                                  const ParseContext& ctx);

/// Write records to a stream, one line each.
void write_alignments(std::ostream& out,
                      const std::vector<AlignmentRecord>& recs);
void write_alignment_file(const std::filesystem::path& path,
                          const std::vector<AlignmentRecord>& recs);

/// The file-order half of reading an alignment file.  Lines are handed over
/// in file order with their line numbers.  Enforces a single sequence name
/// per file and coordinate sort order.  In strict mode the first malformed
/// line throws its ParseError; in lenient mode it is quarantined into the
/// policy's quarantine file and counted in stats(), up to the error budget.
class AlignmentStitch {
 public:
  AlignmentStitch(std::string file, IngestPolicy policy,
                  u64 reference_length);

  /// Line `line_no`, raw bytes `line` without its newline.  `parsed` is the
  /// line's parse_alignment_view when the caller already parsed it; null
  /// parses it here (a line whose earlier parse failed fails again here,
  /// with this line's number).  Returns the kept record (`parsed`, or the
  /// view parsed here, valid until the next call), or null for a blank or
  /// quarantined line.
  const AlignmentView* keep(std::string_view line, u64 line_no,
                            const AlignmentView* parsed = nullptr);

  const IngestStats& stats() const { return stats_; }
  const ParseContext& context() const { return ctx_; }

 private:
  IngestPolicy policy_;
  ParseContext ctx_;
  IngestStats stats_;
  QuarantineWriter quarantine_;
  std::string chr_name_;  ///< sequence name locked by the first record
  u64 last_pos_ = 0;
  bool any_record_ = false;
  AlignmentView parsed_;  ///< the last line keep() parsed itself
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
  enum class Parse : u8 { kBlank, kOk, kFailed };
  struct ParsedLine {
    std::string_view line;
    AlignmentView view;  ///< kOk only
    Parse parse = Parse::kBlank;
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
