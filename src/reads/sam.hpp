#pragma once
// SAM format support (subset).
//
// The paper's input is SOAP alignment text, but the field has standardized
// on SAM (Li et al. 2009, the paper's reference [3]); a production SNP
// caller must ingest it.  The alignment readers (alignment.hpp) read a
// `*.sam` file through parse_sam_line and the same file-order stitch as
// SOAP:
//
//  * only mapped, primary, ungapped alignments are records (CIGAR must be
//    a single <len>M run, optionally with soft clips, which are trimmed);
//    others are unsupported and counted,
//  * SAM stores SEQ/QUAL on the forward reference strand; AlignmentRecord
//    stores them on the read's own strand — the readers flip a kept
//    reverse-flagged record's (format_sam_record flips them back),
//  * hit counts come from the NH:i: tag (default 1).
//
// Malformed lines (truncated, overflow-sized integers, broken CIGARs,
// out-of-domain fields) raise gsnp::ParseError with file/line/field/reason.
// See FORMATS.md §2 and §11 for the exact accepted subset and skip
// semantics.

#include <filesystem>
#include <optional>
#include <span>
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

/// The SAM line parser: one scan of a trimmed, non-empty line.  kBlank for
/// an `@` header line; kUnsupported for records this subset does not take
/// (unmapped, secondary/supplementary, non-<len>M CIGAR after soft-clip
/// trimming, '*' SEQ); else the record, its SEQ and QUAL trimmed of the
/// soft clips but still in the line's order (a `*` QUAL views a run of
/// '!').  Throws gsnp::ParseError on malformed lines.
LineParse parse_sam_line(std::string_view line, const ParseContext& ctx);

/// SAM's forward-strand SEQ and QUAL and a reverse-strand read's own order,
/// one into the other, in place: `seq` reverse-complemented (non-ACGT
/// bases become 'N'), `qual` reversed.
void flip_strand(std::span<char> seq, std::span<char> qual);

/// parse_sam_line of the trimmed line, copied into a read-strand record;
/// nullopt for a header line or an unsupported record.
std::optional<AlignmentRecord> parse_sam_record(
    std::string_view line, const ParseContext& ctx = {});

/// Write records as a SAM file with a minimal @HD/@SQ header.
void write_sam_file(const std::filesystem::path& path,
                    const std::vector<AlignmentRecord>& records,
                    const std::string& seq_name, u64 seq_length);

}  // namespace gsnp::reads
