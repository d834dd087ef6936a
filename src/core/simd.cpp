#include "src/core/simd.hpp"

#include <array>
#include <cstdlib>
#include <string>

#include "src/common/error.hpp"
#include "src/core/adjust.hpp"
#include "src/core/log_table.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define GSNP_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define GSNP_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace gsnp::core::simd {

namespace {

std::optional<Level>& forced_level() {
  static std::optional<Level> forced;
  return forced;
}

#if defined(GSNP_SIMD_X86)

// ---- sparse likelihood (Algorithm 4 computation step) ----------------------
//
// Per aligned base the scalar loop adds one contiguous ten-double NewPMatrix
// row into type_likely.  The vector kernels hold type_likely in vector
// accumulators (4+4+2 lanes for AVX2, 5x2 for SSE2) and add the row with
// unaligned loads; lane g performs exactly the scalar addition sequence for
// genotype g.  Unpack, depth counting, quality adjustment and sortedness
// validation are the same scalar code as likelihood.cpp.

TypeLikely sparse_site_sse2(std::span<const u32> sorted_words,
                            const NewPMatrix& npm) {
  TypeLikely type_likely{};
  thread_local detail::DepthCounts dep_count;
  dep_count.clear();
  const int* penalties = quality_penalties().data();
  const double* flat = npm.flat().data();

  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  __m128d acc2 = _mm_setzero_pd();
  __m128d acc3 = _mm_setzero_pd();
  __m128d acc4 = _mm_setzero_pd();

  int last_base = 0;
  u32 prev_word = 0;
  std::size_t index = 0;
  for (const u32 word : sorted_words) {
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
    const double* row =
        flat + NewPMatrix::index(q_adj, ab.coord, ab.base, 0);
    acc0 = _mm_add_pd(acc0, _mm_loadu_pd(row));
    acc1 = _mm_add_pd(acc1, _mm_loadu_pd(row + 2));
    acc2 = _mm_add_pd(acc2, _mm_loadu_pd(row + 4));
    acc3 = _mm_add_pd(acc3, _mm_loadu_pd(row + 6));
    acc4 = _mm_add_pd(acc4, _mm_loadu_pd(row + 8));
  }
  _mm_storeu_pd(type_likely.data(), acc0);
  _mm_storeu_pd(type_likely.data() + 2, acc1);
  _mm_storeu_pd(type_likely.data() + 4, acc2);
  _mm_storeu_pd(type_likely.data() + 6, acc3);
  _mm_storeu_pd(type_likely.data() + 8, acc4);
  return type_likely;
}

__attribute__((target("avx2"))) TypeLikely sparse_site_avx2(
    std::span<const u32> sorted_words, const NewPMatrix& npm) {
  TypeLikely type_likely{};
  thread_local detail::DepthCounts dep_count;
  dep_count.clear();
  const int* penalties = quality_penalties().data();
  const double* flat = npm.flat().data();

  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m128d acc2 = _mm_setzero_pd();

  int last_base = 0;
  u32 prev_word = 0;
  std::size_t index = 0;
  for (const u32 word : sorted_words) {
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
    const double* row =
        flat + NewPMatrix::index(q_adj, ab.coord, ab.base, 0);
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(row));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(row + 4));
    acc2 = _mm_add_pd(acc2, _mm_loadu_pd(row + 8));
  }
  _mm256_storeu_pd(type_likely.data(), acc0);
  _mm256_storeu_pd(type_likely.data() + 4, acc1);
  _mm_storeu_pd(type_likely.data() + 8, acc2);
  return type_likely;
}

// ---- dense likelihood (Algorithms 1+2) -------------------------------------
//
// Per occurrence the scalar loop evaluates likely_update for the ten allele
// pairs: 0.5*p[a1] + 0.5*p[a2], clamped, log10, accumulate.  The vector
// kernels compute all ten clamped pair probabilities at once (the four
// p_matrix reads are shared across lanes), then run scalar libm log10 per
// lane so the transcendental bits match the reference exactly.  The max
// operand order (floor first) matches std::max(v, floor)'s NaN propagation.

// Lane g's allele pair (a1,a2) in canonical combo order.
constexpr int kPairA1[kNumGenotypes] = {0, 0, 0, 0, 1, 1, 1, 2, 2, 3};
constexpr int kPairA2[kNumGenotypes] = {0, 1, 2, 3, 1, 2, 3, 2, 3, 3};

TypeLikely dense_site_sse2(std::span<const u8> base_occ, const PMatrix& pm) {
  TypeLikely type_likely{};
  std::array<u16, kNumStrands * kMaxReadLen> dep_count{};
  const double* logs = log_table().data();
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d floor = _mm_set1_pd(kMinAllelePairProb);

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
            double p[kNumBases];
            for (int a = 0; a < kNumBases; ++a)
              p[a] = pm[PMatrix::index(q_adj, coord, a, base)];
            alignas(16) double pair[kNumGenotypes];
            for (int g = 0; g < kNumGenotypes; g += 2) {
              const __m128d p1 = _mm_setr_pd(p[kPairA1[g]], p[kPairA1[g + 1]]);
              const __m128d p2 = _mm_setr_pd(p[kPairA2[g]], p[kPairA2[g + 1]]);
              const __m128d v =
                  _mm_add_pd(_mm_mul_pd(half, p1), _mm_mul_pd(half, p2));
              _mm_store_pd(pair + g, _mm_max_pd(floor, v));
            }
            for (int g = 0; g < kNumGenotypes; ++g)
              type_likely[static_cast<std::size_t>(g)] += std::log10(pair[g]);
          }
        }
      }
    }
  }
  return type_likely;
}

__attribute__((target("avx2"))) TypeLikely dense_site_avx2(
    std::span<const u8> base_occ, const PMatrix& pm) {
  TypeLikely type_likely{};
  std::array<u16, kNumStrands * kMaxReadLen> dep_count{};
  const double* logs = log_table().data();
  const __m256d half4 = _mm256_set1_pd(0.5);
  const __m256d floor4 = _mm256_set1_pd(kMinAllelePairProb);
  const __m128d half2 = _mm_set1_pd(0.5);
  const __m128d floor2 = _mm_set1_pd(kMinAllelePairProb);

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
            double p[kNumBases];
            for (int a = 0; a < kNumBases; ++a)
              p[a] = pm[PMatrix::index(q_adj, coord, a, base)];
            alignas(32) double pair[kNumGenotypes];
            const __m256d p1_lo = _mm256_setr_pd(p[0], p[0], p[0], p[0]);
            const __m256d p2_lo = _mm256_setr_pd(p[0], p[1], p[2], p[3]);
            const __m256d p1_mid = _mm256_setr_pd(p[1], p[1], p[1], p[2]);
            const __m256d p2_mid = _mm256_setr_pd(p[1], p[2], p[3], p[2]);
            const __m128d p1_hi = _mm_setr_pd(p[2], p[3]);
            const __m128d p2_hi = _mm_setr_pd(p[3], p[3]);
            _mm256_store_pd(
                pair, _mm256_max_pd(floor4, _mm256_add_pd(
                                                _mm256_mul_pd(half4, p1_lo),
                                                _mm256_mul_pd(half4, p2_lo))));
            _mm256_store_pd(
                pair + 4,
                _mm256_max_pd(floor4,
                              _mm256_add_pd(_mm256_mul_pd(half4, p1_mid),
                                            _mm256_mul_pd(half4, p2_mid))));
            _mm_store_pd(pair + 8,
                         _mm_max_pd(floor2,
                                    _mm_add_pd(_mm_mul_pd(half2, p1_hi),
                                               _mm_mul_pd(half2, p2_hi))));
            for (int g = 0; g < kNumGenotypes; ++g)
              type_likely[static_cast<std::size_t>(g)] += std::log10(pair[g]);
          }
        }
      }
    }
  }
  return type_likely;
}

// ---- posterior selection ---------------------------------------------------
//
// Vectorize the prior + likelihood sums, then run the shared scalar
// selection scan (select_from_log_posteriors) so tie-breaking and quality
// rounding have one definition.

PosteriorCall select_sse2(const GenotypePriors& log_prior,
                          const TypeLikely& type_likely) {
  alignas(16) std::array<double, kNumGenotypes> lp;
  for (int g = 0; g < kNumGenotypes; g += 2)
    _mm_store_pd(lp.data() + g,
                 _mm_add_pd(_mm_loadu_pd(log_prior.data() + g),
                            _mm_loadu_pd(type_likely.data() + g)));
  return select_from_log_posteriors(lp.data());
}

__attribute__((target("avx2"))) PosteriorCall select_avx2(
    const GenotypePriors& log_prior, const TypeLikely& type_likely) {
  alignas(32) std::array<double, kNumGenotypes + 2> lp;
  _mm256_store_pd(lp.data(),
                  _mm256_add_pd(_mm256_loadu_pd(log_prior.data()),
                                _mm256_loadu_pd(type_likely.data())));
  _mm256_store_pd(lp.data() + 4,
                  _mm256_add_pd(_mm256_loadu_pd(log_prior.data() + 4),
                                _mm256_loadu_pd(type_likely.data() + 4)));
  _mm_store_pd(lp.data() + 8,
               _mm_add_pd(_mm_loadu_pd(log_prior.data() + 8),
                          _mm_loadu_pd(type_likely.data() + 8)));
  return select_from_log_posteriors(lp.data());
}

#elif defined(GSNP_SIMD_NEON)

// NEON (aarch64): the sparse accumulate and posterior sums are pure
// per-lane adds, vectorized below; the dense path keeps the scalar
// reference (it only serves parity tests, and the clamp/max NaN semantics
// are easiest kept exact in scalar).

TypeLikely sparse_site_neon(std::span<const u32> sorted_words,
                            const NewPMatrix& npm) {
  TypeLikely type_likely{};
  thread_local detail::DepthCounts dep_count;
  dep_count.clear();
  const int* penalties = quality_penalties().data();
  const double* flat = npm.flat().data();

  float64x2_t acc[5] = {vdupq_n_f64(0.0), vdupq_n_f64(0.0), vdupq_n_f64(0.0),
                        vdupq_n_f64(0.0), vdupq_n_f64(0.0)};

  int last_base = 0;
  u32 prev_word = 0;
  std::size_t index = 0;
  for (const u32 word : sorted_words) {
    if (word < prev_word) detail::throw_unsorted_window(index, prev_word, word);
    prev_word = word;
    ++index;
    const AlignedBase ab = base_word_unpack(word);
    if (ab.base > last_base) {
      dep_count.clear();
      last_base = ab.base;
    }
    const int dep = dep_count.next(ab);
    const int q_adj = adjust_quality(ab.quality, dep, penalties);
    const double* row =
        flat + NewPMatrix::index(q_adj, ab.coord, ab.base, 0);
    for (int v = 0; v < 5; ++v)
      acc[v] = vaddq_f64(acc[v], vld1q_f64(row + 2 * v));
  }
  for (int v = 0; v < 5; ++v) vst1q_f64(type_likely.data() + 2 * v, acc[v]);
  return type_likely;
}

PosteriorCall select_neon(const GenotypePriors& log_prior,
                          const TypeLikely& type_likely) {
  std::array<double, kNumGenotypes> lp;
  for (int g = 0; g < kNumGenotypes; g += 2)
    vst1q_f64(lp.data() + g, vaddq_f64(vld1q_f64(log_prior.data() + g),
                                       vld1q_f64(type_likely.data() + g)));
  return select_from_log_posteriors(lp.data());
}

#endif  // GSNP_SIMD_NEON

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::string_view(v) != "0";
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
    case Level::kNeon: return "neon";
  }
  return "?";
}

std::optional<Level> level_from_name(std::string_view name) {
  if (name == "scalar") return Level::kScalar;
  if (name == "sse2") return Level::kSse2;
  if (name == "avx2") return Level::kAvx2;
  if (name == "neon") return Level::kNeon;
  return std::nullopt;
}

bool level_supported(Level level) {
  if (level == Level::kScalar) return true;
#if defined(GSNP_SIMD_X86)
  if (level == Level::kSse2) return true;  // x86-64 baseline
  if (level == Level::kAvx2) return __builtin_cpu_supports("avx2") != 0;
#elif defined(GSNP_SIMD_NEON)
  if (level == Level::kNeon) return true;  // aarch64 baseline
#endif
  return false;
}

std::vector<Level> supported_levels() {
  std::vector<Level> levels;
  for (const Level l :
       {Level::kScalar, Level::kSse2, Level::kAvx2, Level::kNeon})
    if (level_supported(l)) levels.push_back(l);
  return levels;
}

Level detect_level() {
  if (env_truthy("GSNP_FORCE_SCALAR")) return Level::kScalar;
  if (const char* request = std::getenv("GSNP_SIMD_LEVEL");
      request != nullptr && request[0] != '\0') {
    const auto level = level_from_name(request);
    if (!level)
      throw Error(std::string("GSNP_SIMD_LEVEL: unknown level '") + request +
                  "' (valid: scalar, sse2, avx2, neon)");
    if (!level_supported(*level))
      throw Error(std::string("GSNP_SIMD_LEVEL: level '") + request +
                  "' is not supported on this host");
    return *level;
  }
  const std::vector<Level> levels = supported_levels();
  return levels.back();
}

Level active_level() {
  if (const auto& forced = forced_level()) return *forced;
  return detect_level();
}

void force_level(std::optional<Level> level) {
  if (level && !level_supported(*level))
    throw Error(std::string("force_level: level '") + level_name(*level) +
                "' is not supported on this host");
  forced_level() = level;
}

const Kernels& kernels(Level level) {
  static const Kernels scalar{Level::kScalar, &core::likelihood_sparse_site,
                              &core::likelihood_dense_site,
                              &core::select_genotype};
#if defined(GSNP_SIMD_X86)
  static const Kernels sse2{Level::kSse2, &sparse_site_sse2, &dense_site_sse2,
                            &select_sse2};
  static const Kernels avx2{Level::kAvx2, &sparse_site_avx2, &dense_site_avx2,
                            &select_avx2};
#elif defined(GSNP_SIMD_NEON)
  static const Kernels neon{Level::kNeon, &sparse_site_neon,
                            &core::likelihood_dense_site, &select_neon};
#endif
  if (!level_supported(level))
    throw Error(std::string("simd::kernels: level '") + level_name(level) +
                "' is not supported on this host");
  switch (level) {
    case Level::kScalar: return scalar;
#if defined(GSNP_SIMD_X86)
    case Level::kSse2: return sse2;
    case Level::kAvx2: return avx2;
#elif defined(GSNP_SIMD_NEON)
    case Level::kNeon: return neon;
#endif
    default: break;
  }
  throw Error("simd::kernels: unreachable level");
}

const Kernels& active_kernels() { return kernels(active_level()); }

TypeLikely likelihood_sparse_site(std::span<const u32> sorted_words,
                                  const NewPMatrix& npm, Level level) {
  return kernels(level).sparse_site(sorted_words, npm);
}

TypeLikely likelihood_dense_site(std::span<const u8> base_occ,
                                 const PMatrix& pm, Level level) {
  return kernels(level).dense_site(base_occ, pm);
}

PosteriorCall select_genotype(const GenotypePriors& log_prior,
                              const TypeLikely& type_likely, Level level) {
  return kernels(level).select_genotype(log_prior, type_likely);
}

}  // namespace gsnp::core::simd
