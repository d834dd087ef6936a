#include "src/core/likelihood.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/common/parallel.hpp"
#include "src/core/adjust.hpp"
#include "src/core/log_table.hpp"
#include "src/core/window.hpp"

namespace gsnp::core {

namespace {

std::string unsorted_window_message(std::size_t index, u32 previous,
                                    u32 word) {
  std::ostringstream os;
  os << "likelihood_sparse_site: base_word array is not sorted — word["
     << index << "] = " << word << " after " << previous
     << "; run likelihood_sort (Algorithm 4) before the computation step";
  return os.str();
}

}  // namespace

UnsortedWindowError::UnsortedWindowError(std::size_t index, u32 previous,
                                         u32 word)
    : Error(unsorted_window_message(index, previous, word)) {}

namespace detail {

void throw_unsorted_window(std::size_t index, u32 previous, u32 word) {
  assert(!"likelihood_sparse_site: unsorted base_word window");
  throw UnsortedWindowError(index, previous, word);
}

}  // namespace detail

TypeLikely likelihood_dense_site(std::span<const u8> base_occ,
                                 const PMatrix& pm) {
  TypeLikely type_likely{};
  std::array<u16, kNumStrands * kMaxReadLen> dep_count{};
  const double* logs = log_table().data();

  for (int base = 0; base < kNumBases; ++base) {
    dep_count.fill(0);  // Alg. 1 line 3
    for (int score = kQualityLevels - 1; score >= 0; --score) {
      for (int coord = 0; coord < kMaxReadLen; ++coord) {
        for (int strand = 0; strand < kNumStrands; ++strand) {
          const u8 occ = base_occ[base_occ_index(base, score, coord, strand)];
          for (u8 k = 0; k < occ; ++k) {
            const int dep = ++dep_count[static_cast<std::size_t>(
                strand * kMaxReadLen + coord)];
            const int q_adj = adjust_quality(score, dep, logs);
            // likely_update (Algorithm 2) for the ten allele pairs.
            int combo = 0;
            for (int a1 = 0; a1 < kNumBases; ++a1) {
              for (int a2 = a1; a2 < kNumBases; ++a2) {
                const double p1 = pm[PMatrix::index(q_adj, coord, a1, base)];
                const double p2 = pm[PMatrix::index(q_adj, coord, a2, base)];
                type_likely[static_cast<std::size_t>(combo)] +=
                    likely_log10(p1, p2);
                ++combo;
              }
            }
          }
        }
      }
    }
  }
  return type_likely;
}

TypeLikely likelihood_sparse_site(std::span<const u32> sorted_words,
                                  const NewPMatrix& npm) {
  TypeLikely type_likely{};
  thread_local detail::DepthCounts dep_count;
  dep_count.clear();
  const int* penalties = quality_penalties().data();
  const double* flat = npm.flat().data();

  int last_base = 0;
  u32 prev_word = 0;
  std::size_t index = 0;
  for (const u32 word : sorted_words) {
    // The depth-count recycle below only resets on a base *increase*; an
    // out-of-order word (word < its predecessor) would silently reuse stale
    // depth counts, so sortedness is validated rather than assumed.
    if (word < prev_word) detail::throw_unsorted_window(index, prev_word, word);
    prev_word = word;
    ++index;
    const AlignedBase ab = base_word_unpack(word);
    if (ab.base > last_base) {  // Alg. 4 lines 8-10
      dep_count.clear();
      last_base = ab.base;
    }
    const int dep = dep_count.next(ab);
    const int q_adj = adjust_quality(ab.quality, dep, penalties);
    // opt_likely_update (Algorithm 3): one table row, ten reads, no log10.
    const double* row = flat + NewPMatrix::index(q_adj, ab.coord, ab.base, 0);
    for (int combo = 0; combo < kNumGenotypes; ++combo)
      type_likely[static_cast<std::size_t>(combo)] += row[combo];
  }
  return type_likely;
}

namespace {

/// Sorts up to kLanes of one site's words by rank: a site's words arrive in
/// random order, where an insertion sort mispredicts a branch on nearly
/// every step, so each word's final index is instead counted without
/// branches as the number of keys below its own.  Keys (word << 4 | index)
/// are distinct, and for words below 2^27 (every base_word) they are
/// non-negative i32s, so the count runs over fixed lanes padded with the
/// largest key.
template <std::size_t kLanes>
void rank_sort(u32* first, std::size_t n) {
  i32 keys[kLanes];
  u32 high = 0;
  for (std::size_t i = 0; i < n; ++i) {
    high |= first[i];
    keys[i] = static_cast<i32>((first[i] << 4) | i);
  }
  if (high >> 27) {
    std::sort(first, first + n);
    return;
  }
  std::fill(keys + n, keys + kLanes, std::numeric_limits<i32>::max());
  i32 rank[kLanes] = {};
  for (std::size_t j = 0; j < n; ++j) {
    const i32 key = keys[j];
    for (std::size_t i = 0; i < kLanes; ++i) rank[i] += key < keys[i];
  }
  u32 sorted[kLanes];
  for (std::size_t i = 0; i < n; ++i) sorted[rank[i]] = first[i];
  std::copy_n(sorted, n, first);
}

void sort_site(u32* first, u32* last) {
  const std::size_t n = static_cast<std::size_t>(last - first);
  if (n <= 8) {
    rank_sort<8>(first, n);
  } else if (n <= 16) {
    rank_sort<16>(first, n);
  } else {
    std::sort(first, last);
  }
}

}  // namespace

void likelihood_sort_cpu(BaseWordWindow& window) {
  u32* const words = window.words.data();
  const u64* const offsets = window.offsets.data();
  parallel_for(window.window_size(), kSitesPerChunk,
               [=](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::size_t s = begin; s < end; ++s)
                   sort_site(words + offsets[s], words + offsets[s + 1]);
               });
}

}  // namespace gsnp::core
