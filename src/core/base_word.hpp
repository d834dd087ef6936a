#pragma once
// The sparse aligned-base representation base_word (paper §IV-B, Fig. 3).
//
// Each aligned base is one 32-bit word packing (base, score, coord, strand)
// with the same bit layout as the dense index — except the score field stores
// 63 - score, so that sorting the words ascending reproduces Algorithm 1's
// canonical traversal order (base ascending, score DESCENDING, coord
// ascending, strand ascending).  One word per occurrence; duplicates simply
// repeat.
//
// A window's words are kept in CSR form: all sites' words concatenated with
// per-site offsets.  `recycle` for the sparse representation is just
// resetting the offsets — ~0.08% of the dense matrix's traffic.

#include <span>
#include <vector>

#include "src/common/overwrite_vector.hpp"
#include "src/common/types.hpp"

namespace gsnp::core {

/// Pack an aligned base into its sort key.
constexpr u32 base_word_pack(const AlignedBase& ab) {
  const u32 inv_score = static_cast<u32>(kQualityLevels - 1 - ab.quality);
  return (static_cast<u32>(ab.base) << 15) | (inv_score << 9) |
         (static_cast<u32>(ab.coord) << 1) | static_cast<u32>(ab.strand);
}

/// Unpack a sort key back into the aligned base it encodes.
constexpr AlignedBase base_word_unpack(u32 word) {
  AlignedBase ab;
  ab.base = static_cast<u8>(word >> 15);
  ab.quality = static_cast<u8>(kQualityLevels - 1 - ((word >> 9) & 63));
  ab.coord = static_cast<u16>((word >> 1) & 255);
  ab.strand = static_cast<Strand>(word & 1);
  return ab;
}

/// CSR container of per-site base_word arrays for one window.  Growing
/// `words` leaves the new words unspecified: count_window writes every one.
struct BaseWordWindow {
  OverwriteVector<u32> words;   ///< concatenated per-site words
  std::vector<u64> offsets;     ///< window_size + 1 offsets into words

  explicit BaseWordWindow(u32 window_size = 0) { reset(window_size); }

  u32 window_size() const { return static_cast<u32>(offsets.size() - 1); }

  std::span<u32> site(u32 s) {
    return std::span<u32>(words).subspan(offsets[s],
                                         offsets[s + 1] - offsets[s]);
  }
  std::span<const u32> site(u32 s) const {
    return std::span<const u32>(words).subspan(offsets[s],
                                               offsets[s + 1] - offsets[s]);
  }

  u64 size_of(u32 s) const { return offsets[s + 1] - offsets[s]; }

  /// Sparse recycle: drop the contents, keep the capacity.
  void reset(u32 window_size) {
    words.clear();
    offsets.assign(static_cast<std::size_t>(window_size) + 1, 0);
  }
};

}  // namespace gsnp::core
