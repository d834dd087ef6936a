#pragma once
// Hardened ingest: the shared machinery every loader of untrusted text input
// (SOAP alignment, SAM, dbSNP priors, FASTA) uses to contain malformed
// records instead of aborting a whole-genome run.
//
//  * ParseError — a structured gsnp::Error carrying (file, line number,
//    field, reason code), so a strict-mode abort pinpoints the offending
//    byte range and a lenient-mode skip is classifiable.
//  * IngestPolicy — strict (throw on the first malformed record; the
//    historical behaviour) vs lenient (skip malformed records into a
//    quarantine file, bounded by an error budget).
//  * IngestStats — per-reason skip counters, threaded through RunReport and
//    the whole-genome JSON manifest for observability.
//  * QuarantineWriter — the sidecar file of skipped records (FORMATS.md §11).
//
// Resource guards (kMaxLineBytes, kMaxReadLen, kMaxIngestPosition) are
// constants, so every parser enforces the same limits.

#include <array>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/strings.hpp"
#include "src/common/types.hpp"

namespace gsnp {

/// Why a record was rejected.  Values are stable: reason names appear in
/// quarantine files and run manifests (FORMATS.md §11).
enum class IngestReason : u8 {
  kTruncatedRecord,     ///< fewer fields than the format requires
  kBadInteger,          ///< non-numeric bytes in an integer field
  kIntegerOverflow,     ///< integer field exceeds its type's range
  kBadCigar,            ///< CIGAR op with a missing/zero count or unknown op
  kCigarOverflow,       ///< CIGAR count overflows u32 / the u16 read length
  kLengthMismatch,      ///< seq/qual/declared-length/CIGAR disagree
  kBadField,            ///< enum-like field out of domain (strand, bases, ...)
  kPositionOutOfRange,  ///< pos not 1-based, absurd, or past the reference end
  kSortOrderViolation,  ///< input not coordinate-sorted
  kLineTooLong,         ///< line exceeds kMaxLineBytes
  kReadTooLong,         ///< read length exceeds kMaxReadLen
  kBadHeader,           ///< malformed header line
  kCount
};

inline constexpr std::size_t kNumIngestReasons =
    static_cast<std::size_t>(IngestReason::kCount);

/// Stable snake_case name for a reason code (quarantine files, manifests).
const char* ingest_reason_name(IngestReason reason);
std::optional<IngestReason> ingest_reason_from_name(std::string_view name);

/// Structured parse failure: file, 1-based line number, field, reason.
class ParseError : public Error {
 public:
  ParseError(std::string file, u64 line, std::string field,
             IngestReason reason, const std::string& detail);

  const std::string& file() const { return file_; }
  u64 line() const { return line_; }
  const std::string& field() const { return field_; }
  IngestReason reason() const { return reason_; }

 private:
  std::string file_;
  std::string field_;
  u64 line_ = 0;
  IngestReason reason_ = IngestReason::kBadField;
};

enum class IngestMode { kStrict, kLenient };

/// Positions beyond this are rejected outright (no genome comes close; the
/// cap keeps pos+length arithmetic far from u64 overflow downstream).
inline constexpr u64 kMaxIngestPosition = u64{1} << 48;
/// Longer lines are rejected in both modes (kLineTooLong).  Reads are capped
/// at kMaxReadLen bases (kReadTooLong): a read's cycles must fit base_word's
/// 8-bit coordinate and the p_matrix.
inline constexpr u64 kMaxLineBytes = u64{1} << 20;

/// How a loader treats malformed records.
struct IngestPolicy {
  IngestMode mode = IngestMode::kStrict;

  // Lenient-mode error budget: abort (gsnp::Error) when more than
  // max_bad_records are quarantined, or when the quarantined fraction of all
  // records seen exceeds max_bad_fraction (checked only after
  // fraction_grace_records, so a bad prefix of a tiny file cannot dodge it).
  u64 max_bad_records = 100'000;
  double max_bad_fraction = 0.5;
  u64 fraction_grace_records = 1'000;

  /// Lenient mode: where skipped records are written ("" = nowhere).
  std::filesystem::path quarantine_file;

  bool lenient() const { return mode == IngestMode::kLenient; }

  static IngestPolicy make_strict() { return {}; }
  static IngestPolicy make_lenient(std::filesystem::path quarantine = {}) {
    IngestPolicy p;
    p.mode = IngestMode::kLenient;
    p.quarantine_file = std::move(quarantine);
    return p;
  }
};

/// Per-file ingest outcome: how many records parsed, how many were skipped
/// as well-formed-but-unsupported, and how many were quarantined per reason.
struct IngestStats {
  u64 records_ok = 0;
  u64 records_unsupported = 0;  ///< e.g. SAM secondary/gapped records
  u64 records_quarantined = 0;  ///< malformed, skipped in lenient mode
  std::array<u64, kNumIngestReasons> by_reason{};

  u64 total() const {
    return records_ok + records_unsupported + records_quarantined;
  }
  bool clean() const {
    return records_unsupported == 0 && records_quarantined == 0;
  }
  void merge(const IngestStats& other);
  /// "ok=100 unsupported=2 quarantined=3 (bad_integer=2, bad_cigar=1)"
  std::string summary() const;
};

/// Sidecar file of quarantined records; opened lazily so clean runs write
/// nothing.  Format (FORMATS.md §11): a '#'-comment header, then one
/// tab-separated line per record: source:line, reason, field, original line
/// (truncated to kQuarantineLineCap bytes).
class QuarantineWriter {
 public:
  static constexpr std::size_t kQuarantineLineCap = 4096;

  QuarantineWriter() = default;  ///< disabled
  explicit QuarantineWriter(std::filesystem::path path)
      : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }
  u64 written() const { return written_; }
  const std::filesystem::path& path() const { return path_; }

  void add(const ParseError& err, std::string_view line);

 private:
  std::filesystem::path path_;
  std::ofstream out_;
  u64 written_ = 0;
};

/// Lenient-mode bookkeeping for one malformed record: count it under its
/// reason, append it to the quarantine, and enforce the error budget —
/// throws gsnp::Error when the budget is exhausted.  Callers reach here only
/// in lenient mode (strict mode propagates the ParseError directly).
void quarantine_record(const IngestPolicy& policy, IngestStats& stats,
                       QuarantineWriter* quarantine, const ParseError& err,
                       std::string_view line);

/// Location + limits handed to line parsers so they can throw ParseError
/// with full context.
struct ParseContext {
  std::string file = "<memory>";
  u64 line_no = 0;
  u64 reference_length = 0;  ///< 0 = unknown (skip the bounds check)

  [[noreturn]] void fail(std::string field, IngestReason reason,
                         const std::string& detail) const {
    throw ParseError(file, line_no, std::move(field), reason, detail);
  }
  /// The line guard every loader applies before parsing a line.
  void check_line_length(std::string_view line) const {
    if (line.size() > kMaxLineBytes)
      fail("line", IngestReason::kLineTooLong,
           std::to_string(line.size()) + " bytes > the " +
               std::to_string(kMaxLineBytes) + "-byte line cap");
  }
};

/// Parse an integral field under a ParseContext, classifying failures as
/// kBadInteger vs kIntegerOverflow.
template <typename Int>
Int parse_int_ctx(std::string_view field, const ParseContext& ctx,
                  const char* what) {
  Int value{};
  switch (try_parse_int(field, value)) {
    case IntParseStatus::kOk: return value;
    case IntParseStatus::kOverflow:
      ctx.fail(what, IngestReason::kIntegerOverflow,
               "value '" + std::string(field) + "' out of range");
    case IntParseStatus::kMalformed: break;
  }
  ctx.fail(what, IngestReason::kBadInteger,
           "'" + std::string(field) + "' is not an integer");
}

}  // namespace gsnp
