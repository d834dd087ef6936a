#pragma once
// SAM format support (subset).
//
// The paper's input is SOAP alignment text, but the field has standardized
// on SAM (Li et al. 2009, the paper's reference [3]); a production SNP
// caller must ingest it.  This module converts between SAM records and
// AlignmentRecord:
//
//  * only mapped, primary, ungapped alignments are converted (CIGAR must be
//    a single <len>M run, optionally with soft clips, which are trimmed);
//    others are skipped and counted as unsupported,
//  * SAM stores SEQ/QUAL on the forward reference strand; AlignmentRecord
//    stores them on the read's own strand — reverse-flagged records are
//    reverse-complemented on conversion (and back on writing),
//  * hit counts come from the NH:i: tag (default 1).
//
// Malformed lines (truncated, overflow-sized integers, broken CIGARs,
// out-of-domain fields) raise gsnp::ParseError with file/line/field/reason;
// SamReader in lenient mode skips them into a quarantine file under the
// policy's error budget.  See FORMATS.md §2 and §11 for the exact accepted
// subset and skip semantics.

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/common/ingest.hpp"
#include "src/reads/alignment.hpp"

namespace gsnp::reads {

/// SAM FLAG bits used here.
inline constexpr u32 kSamFlagUnmapped = 0x4;
inline constexpr u32 kSamFlagReverse = 0x10;
inline constexpr u32 kSamFlagSecondary = 0x100;
inline constexpr u32 kSamFlagSupplementary = 0x800;
inline constexpr u32 kSamFlagFirstInPair = 0x40;

/// Outcome of reducing a CIGAR string to soft clips around one match run.
enum class CigarStatus {
  kSimple,       ///< <clips> + single M/=/X run: supported
  kUnsupported,  ///< well-formed but gapped / multi-run / '*': skip
  kMalformed,    ///< op without a count, zero count, unknown op, stray digits
  kOverflow      ///< a count overflows u32
};

/// Reduce `cigar`; on kSimple, `match_len` is the single match run and
/// `left_clip` the total clip preceding it.
CigarStatus parse_simple_cigar(std::string_view cigar, u32& match_len,
                               u32& left_clip);

/// Convert one alignment record to a SAM line (with an NH tag).
std::string format_sam_record(const AlignmentRecord& rec);

/// Parse one SAM alignment line.  Returns nullopt for records this subset
/// does not support (unmapped, secondary/supplementary, non-<len>M CIGAR
/// after soft-clip trimming, '*' SEQ); throws gsnp::ParseError on malformed
/// lines.
std::optional<AlignmentRecord> parse_sam_record(std::string_view line,
                                                const ParseContext& ctx);
std::optional<AlignmentRecord> parse_sam_record(std::string_view line);

/// Write records as a SAM file with a minimal @HD/@SQ header.
void write_sam_file(const std::filesystem::path& path,
                    const std::vector<AlignmentRecord>& records,
                    const std::string& seq_name, u64 seq_length);

/// Streaming SAM reader: yields supported records in file order, skipping
/// headers and unsupported records (counted in stats().records_unsupported).
/// Enforces (chr_name, pos) coordinate sort order: positions must be
/// non-decreasing within a chromosome and no chromosome may reappear after
/// another has started.  Strict mode throws ParseError on the first
/// malformed line; lenient mode quarantines and keeps going until the
/// policy's error budget is exhausted.
class SamReader {
 public:
  explicit SamReader(const std::filesystem::path& path,
                     IngestPolicy policy = {});

  std::optional<AlignmentRecord> next();

  /// Well-formed records outside the supported subset (back-compat alias
  /// for stats().records_unsupported).
  u64 skipped() const { return stats_.records_unsupported; }
  const IngestStats& stats() const { return stats_; }

 private:
  std::ifstream in_;
  std::string line_;
  IngestPolicy policy_;
  ParseContext ctx_;
  IngestStats stats_;
  QuarantineWriter quarantine_;
  std::vector<std::string> seen_chrs_;
  u64 last_pos_ = 0;
};

/// Convert a whole SAM file to the SOAP alignment format GSNP's engines
/// consume (records must be sorted by (chr, pos), as samtools sort
/// produces).  Returns the number of converted records; `stats_out`, when
/// non-null, receives the full ingest breakdown.
u64 sam_to_soap(const std::filesystem::path& sam_path,
                const std::filesystem::path& soap_path,
                const IngestPolicy& policy = {},
                IngestStats* stats_out = nullptr);

}  // namespace gsnp::reads
