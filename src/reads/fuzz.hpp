#pragma once
// Deterministic, seeded mutation fuzzer for the ingest layer.
//
// Takes well-formed alignment text (SOAP or SAM; the mutations are
// field-aware but format-agnostic) and corrupts a controlled fraction of the
// record lines with the failure modes real aligner output exhibits at scale:
// truncation, deleted/swapped fields, non-ACGT bases, broken CIGARs,
// overflow-sized integers, sort-order violations, binary garbage, and
// oversized lines.  Everything is driven by gsnp::Rng from a single seed, so
// a failing corpus reproduces from (seed, rate) alone.
//
// Used by the fuzz_smoke test target (run under ASan/UBSan by
// scripts/verify.sh) and available for ad-hoc corpus generation.

#include <array>
#include <filesystem>
#include <string>
#include <string_view>

#include "src/common/rng.hpp"
#include "src/common/types.hpp"

namespace gsnp::reads {

enum class MutationKind : u8 {
  kTruncate,      ///< cut the line at a random byte
  kDeleteField,   ///< drop one tab-separated field
  kSwapFields,    ///< exchange two fields
  kCorruptBases,  ///< splatter non-ACGT junk into the longest (seq) field
  kBreakCigar,    ///< SAM: mangle the CIGAR; SOAP: mangle the length field
  kOverflowInt,   ///< replace an integer field with a 24-digit number
  kZeroPos,       ///< set the position field to 0 (positions are 1-based)
  kUnsortPos,     ///< set the position field to 1 (breaks sort order)
  kGarbage,       ///< replace the line with random binary bytes
  kOversizeLine,  ///< pad the line with FuzzOptions::oversize_bytes
  kCount
};

inline constexpr std::size_t kNumMutationKinds =
    static_cast<std::size_t>(MutationKind::kCount);

const char* mutation_name(MutationKind kind);

struct FuzzOptions {
  u64 seed = 1;
  double rate = 0.2;  ///< fraction of record lines mutated
  /// Bytes appended by kOversizeLine.  The default stays below
  /// kMaxLineBytes, so the padded line fails on the field it lengthens.
  u64 oversize_bytes = 8192;
};

/// Applies one random mutation per call; deterministic given the seed.
class LineMutator {
 public:
  explicit LineMutator(const FuzzOptions& options)
      : options_(options), rng_(options.seed) {}

  /// Mutate one record line; `kind_out` reports which mutation was applied.
  std::string mutate(std::string_view line, MutationKind* kind_out = nullptr);

  Rng& rng() { return rng_; }

 private:
  FuzzOptions options_;
  Rng rng_;
};

struct FuzzReport {
  u64 lines = 0;    ///< record lines seen (headers/blank lines pass through)
  u64 mutated = 0;  ///< record lines corrupted
  std::array<u64, kNumMutationKinds> by_kind{};
};

/// Corrupt `options.rate` of the record lines of an alignment text file.
/// Header lines ('@', '#', '>') and blank lines pass through untouched.
/// Deterministic: same input + options => byte-identical output.
FuzzReport fuzz_file(const std::filesystem::path& in_path,
                     const std::filesystem::path& out_path,
                     const FuzzOptions& options);

}  // namespace gsnp::reads
