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
// field/reason.  AlignmentReader can run lenient (skip + quarantine, bounded
// by the policy's error budget) instead of strict.

#include <filesystem>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ingest.hpp"
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

/// Serialize one record as a SOAP-format line (pos written 1-based).
std::string format_alignment(const AlignmentRecord& rec);

/// Parse one SOAP-format line.  Throws gsnp::ParseError (with the context's
/// file/line and a reason code) on malformed input.
AlignmentRecord parse_alignment(std::string_view line, const ParseContext& ctx);
AlignmentRecord parse_alignment(std::string_view line);

/// Write records to a stream, one line each.
void write_alignments(std::ostream& out,
                      const std::vector<AlignmentRecord>& recs);
void write_alignment_file(const std::filesystem::path& path,
                          const std::vector<AlignmentRecord>& recs);

/// Streaming reader over an alignment file; `next()` yields records in file
/// order and std::nullopt at end of file.  Enforces coordinate sort order and
/// a single sequence name per file.  In strict mode (the default) the first
/// malformed line throws ParseError; in lenient mode malformed lines are
/// skipped into the policy's quarantine file and counted in stats(), up to
/// the policy's error budget.
class AlignmentReader {
 public:
  explicit AlignmentReader(const std::filesystem::path& path,
                           IngestPolicy policy = {},
                           u64 reference_length = 0);

  std::optional<AlignmentRecord> next();

  const IngestStats& stats() const { return stats_; }

 private:
  std::ifstream in_;
  std::string line_;
  IngestPolicy policy_;
  ParseContext ctx_;
  IngestStats stats_;
  QuarantineWriter quarantine_;
  std::string chr_name_;  ///< sequence name locked by the first record
  u64 last_pos_ = 0;
  bool any_record_ = false;
};

/// Read a whole file into memory (tests and small examples).
std::vector<AlignmentRecord> read_alignment_file(
    const std::filesystem::path& path);

}  // namespace gsnp::reads
