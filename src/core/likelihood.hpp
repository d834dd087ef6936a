#pragma once
// Likelihood calculation — CPU reference implementations.
//
//  * likelihood_dense_site   — Algorithm 1: SOAPsnp's canonical traversal of
//    the dense base_occ matrix, calling likely_update (Algorithm 2) with two
//    p_matrix reads and a runtime log10 per aligned base per genotype.
//  * likelihood_sparse_site  — Algorithm 4's computation step on a *sorted*
//    base_word array, using the precomputed new_p_matrix (Algorithm 3) and
//    the shared adjust/log_table machinery.
//
// Both produce the ten log10-likelihood values (type_likely) in canonical
// genotype order and are bit-identical for the same site data — the paper's
// §IV-G consistency property, which integration tests assert.
//
// The device kernels (kernels.hpp) mirror likelihood_sparse_site.

#include <array>
#include <cstddef>
#include <span>

#include "src/common/error.hpp"
#include "src/common/types.hpp"
#include "src/core/base_occ.hpp"
#include "src/core/base_word.hpp"
#include "src/core/new_pmatrix.hpp"
#include "src/core/pmatrix.hpp"

namespace gsnp::core {

using TypeLikely = std::array<double, kNumGenotypes>;

/// Thrown when the base_word array handed to likelihood_sparse_site is not
/// sorted ascending.  The sparse traversal's depth-count recycle (Algorithm 4
/// lines 8-10) is only correct on the canonical sort order; an out-of-order
/// word would silently reuse stale depth counts and corrupt the likelihoods,
/// so it is a broken invariant, not a recoverable condition.  Debug builds
/// assert first; release builds throw this typed error.
class UnsortedWindowError : public Error {
 public:
  UnsortedWindowError(std::size_t index, u32 previous, u32 word);
};

namespace detail {
/// Shared validation helper for the scalar and SIMD sparse kernels: asserts
/// in debug builds, then throws UnsortedWindowError.
[[noreturn]] void throw_unsorted_window(std::size_t index, u32 previous,
                                        u32 word);

/// Algorithm 4's dep_count, shared by the scalar and SIMD sparse kernels:
/// per-(strand, coord) occurrence counts of the current base.  clear()
/// zeroes only the cells counted since the last clear, so a kernel keeps one
/// instance per thread and clears it per site and per base change instead
/// of zeroing all 512 cells.
class DepthCounts {
 public:
  /// Count one occurrence; returns the cell's new count.
  int next(const AlignedBase& ab) {
    const u32 cell = static_cast<u32>(ab.strand) * kMaxReadLen + ab.coord;
    if (counts_[cell] == 0) {
      if (n_touched_ < kCells) touched_[n_touched_] = static_cast<u16>(cell);
      ++n_touched_;  // past kCells (u16 wrap-around) clear() zeroes all
    }
    return ++counts_[cell];
  }

  void clear() {
    if (n_touched_ > kCells) {
      counts_.fill(0);
    } else {
      for (u32 i = 0; i < n_touched_; ++i) counts_[touched_[i]] = 0;
    }
    n_touched_ = 0;
  }

 private:
  static constexpr u32 kCells = kNumStrands * kMaxReadLen;
  std::array<u16, kCells> counts_{};
  std::array<u16, kCells> touched_{};
  u32 n_touched_ = 0;
};
}  // namespace detail

/// Algorithm 1 over one site's dense matrix (131,072 entries).
TypeLikely likelihood_dense_site(std::span<const u8> base_occ,
                                 const PMatrix& pm);

/// Algorithm 4's computation step over one site's *sorted* base_word array.
/// Validates sortedness (see UnsortedWindowError).
TypeLikely likelihood_sparse_site(std::span<const u32> sorted_words,
                                  const NewPMatrix& npm);

/// The likelihood_sort step of Algorithm 4 on the CPU: each site's words
/// sorted on its own, in chunks of kSitesPerChunk sites on the compute
/// executor; the device equivalent is sortnet::sort_device_multipass.
void likelihood_sort_cpu(BaseWordWindow& window);

}  // namespace gsnp::core
