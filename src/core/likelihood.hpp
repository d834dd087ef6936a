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
