#include "src/core/ranksum.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/common/error.hpp"

namespace gsnp::core {

namespace {

/// Standard normal upper-tail survival function via erfc.
double normal_sf(double z) { return 0.5 * std::erfc(z / std::sqrt(2.0)); }

}  // namespace

double rank_sum_p(std::span<const u8> a, std::span<const u8> b) {
  std::array<u32, 256> a_counts{}, b_counts{};
  for (const u8 v : a) ++a_counts[v];
  for (const u8 v : b) ++b_counts[v];
  return rank_sum_p_counts(a_counts, b_counts);
}

double rank_sum_p_counts(std::span<const u32> a_counts,
                         std::span<const u32> b_counts) {
  GSNP_CHECK(a_counts.size() == b_counts.size());
  // Each bin is a tie group with mid-rank (first + last) / 2 (ranks are
  // 1-based).  Ranks and their sums are multiples of 1/2 far below 2^52, so
  // every sum here is exact: mid * count equals adding mid count times, as
  // a pooled sort would, and an empty bin adds exactly zero, so no bin is
  // skipped by a branch.
  u64 size_a = 0, size_b = 0;
  double rank_sum_a = 0.0;
  double tie_correction = 0.0;
  for (std::size_t v = 0; v < a_counts.size(); ++v) {
    const u64 below = size_a + size_b;  // pooled values below this bin
    const u64 group = static_cast<u64>(a_counts[v]) + b_counts[v];
    const double t = static_cast<double>(group);
    const double mid = (static_cast<double>(below + 1) +
                        static_cast<double>(below + group)) / 2.0;
    rank_sum_a += mid * static_cast<double>(a_counts[v]);
    tie_correction += t * t * t - t;
    size_a += a_counts[v];
    size_b += b_counts[v];
  }
  if (size_a == 0 || size_b == 0) return 1.0;
  const double n1 = static_cast<double>(size_a);
  const double n2 = static_cast<double>(size_b);

  const double total = n1 + n2;
  const double u = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
  const double mean_u = n1 * n2 / 2.0;
  const double var_u = n1 * n2 / 12.0 *
                       (total + 1.0 - tie_correction / (total * (total - 1.0)));
  if (var_u <= 0.0) return 1.0;  // all values tied
  // Continuity-corrected two-sided p.
  const double z = (std::abs(u - mean_u) - 0.5) / std::sqrt(var_u);
  const double p = 2.0 * normal_sf(std::max(0.0, z));
  return std::min(1.0, p);
}

double round_p(double p) {
  return std::round(p * 1e4) / 1e4;
}

}  // namespace gsnp::core
