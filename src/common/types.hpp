#pragma once
// Fundamental nucleotide / strand / quality types shared by every GSNP module.
//
// Bases are encoded 0..3 in alphabetical order (A=0, C=1, G=2, T=3) so that the
// Watson-Crick complement is simply `3 - b`.  Unknown bases ('N' and friends)
// are represented out-of-band by kInvalidBase.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace gsnp {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Number of distinct nucleotide bases.
inline constexpr int kNumBases = 4;
/// Sentinel for an unknown/ambiguous base ('N').
inline constexpr u8 kInvalidBase = 0xFF;

/// Number of distinct unordered allele pairs (genotypes): C(4,2) + 4 = 10.
inline constexpr int kNumGenotypes = 10;

/// Quality scores are Phred-scaled integers in [0, kQualityLevels).
inline constexpr int kQualityLevels = 64;
/// Maximum read length supported by the base_occ / base_word coordinate axis.
inline constexpr int kMaxReadLen = 256;
/// Number of strands (forward / reverse).
inline constexpr int kNumStrands = 2;

/// Forward (+) or reverse (-) strand of the reference a read aligned to.
enum class Strand : u8 { kForward = 0, kReverse = 1 };

/// Byte -> 2-bit base code table behind base_from_char.
inline constexpr std::array<u8, 256> kBaseCodes = [] {
  std::array<u8, 256> codes{};
  codes.fill(kInvalidBase);
  const char upper[] = "ACGT";
  const char lower[] = "acgt";
  for (u8 b = 0; b < kNumBases; ++b) {
    codes[static_cast<unsigned char>(upper[b])] = b;
    codes[static_cast<unsigned char>(lower[b])] = b;
  }
  return codes;
}();

/// Convert an ASCII nucleotide character to its 2-bit code (A=0,C=1,G=2,T=3).
/// Returns kInvalidBase for anything else (including 'N').
constexpr u8 base_from_char(char c) noexcept {
  return kBaseCodes[static_cast<unsigned char>(c)];
}

/// Convert a 2-bit base code back to its (uppercase) ASCII character.
constexpr char char_from_base(u8 b) noexcept {
  constexpr std::array<char, 5> kChars = {'A', 'C', 'G', 'T', 'N'};
  return b < kNumBases ? kChars[b] : 'N';
}

/// Watson-Crick complement of a 2-bit base code.
constexpr u8 complement(u8 b) noexcept {
  return b < kNumBases ? static_cast<u8>(3 - b) : kInvalidBase;
}

/// True if the pair (a, b) is a transition (A<->G or C<->T); transversions are
/// every other heterozygous pair.  Transitions are ~2x more common in nature
/// and get a correspondingly larger prior in the Bayesian model.
constexpr bool is_transition(u8 a, u8 b) noexcept {
  // A=0,G=2 differ by 2; C=1,T=3 differ by 2.
  return a != b && ((a ^ b) == 2);
}

/// A diploid genotype: an unordered pair of alleles with allele1 <= allele2.
struct Genotype {
  u8 allele1 = 0;
  u8 allele2 = 0;

  constexpr bool homozygous() const noexcept { return allele1 == allele2; }
  constexpr bool operator==(const Genotype&) const noexcept = default;

  /// Two-character string such as "AG" (sorted order).
  std::string to_string() const {
    return std::string{char_from_base(allele1), char_from_base(allele2)};
  }
};

/// Rank of genotype (a1, a2), a1 <= a2, in the canonical enumeration used by
/// type_likely: the paper indexes type_likely[a1 << 2 | a2] but only ten slots
/// are live; this gives the dense 0..9 rank in the same (a1, a2) loop order.
constexpr int genotype_rank(u8 a1, u8 a2) noexcept {
  // Loop order: (0,0),(0,1),(0,2),(0,3),(1,1),(1,2),(1,3),(2,2),(2,3),(3,3).
  // Number of pairs preceding row a1: sum_{k<a1} (4-k) = a1*(9-a1)/2.
  return a1 * (9 - a1) / 2 + (a2 - a1);
}

/// Inverse of genotype_rank: the i-th genotype in canonical loop order.
constexpr Genotype genotype_from_rank(int rank) noexcept {
  constexpr std::array<Genotype, kNumGenotypes> kTable = {{
      {0, 0}, {0, 1}, {0, 2}, {0, 3},
      {1, 1}, {1, 2}, {1, 3},
      {2, 2}, {2, 3},
      {3, 3},
  }};
  return kTable[static_cast<std::size_t>(rank)];
}

/// One aligned base observation at a reference site: the observed base type,
/// its Phred quality, the 0-based coordinate on the read it came from, and the
/// strand of that read.  This quadruple is exactly what base_occ / base_word
/// index.
struct AlignedBase {
  u8 base = 0;      ///< 0..3
  u8 quality = 0;   ///< 0..kQualityLevels-1
  u16 coord = 0;    ///< 0..kMaxReadLen-1, position within the read
  Strand strand = Strand::kForward;

  constexpr bool operator==(const AlignedBase&) const noexcept = default;
};

}  // namespace gsnp
