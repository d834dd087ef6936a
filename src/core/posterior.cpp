#include "src/core/posterior.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/common/error.hpp"
#include "src/core/ranksum.hpp"

namespace gsnp::core {

namespace {

/// Ranking for the "best" / "second best" base columns: by unique count,
/// breaking ties by total count, then by summed quality, then base id —
/// a total order so every implementation agrees.
struct BaseRank {
  u32 uniq;
  u32 all;
  u32 qual;
  u8 base;
};

bool better(const BaseRank& a, const BaseRank& b) {
  if (a.uniq != b.uniq) return a.uniq > b.uniq;
  if (a.all != b.all) return a.all > b.all;
  if (a.qual != b.qual) return a.qual > b.qual;
  return a.base < b.base;
}

}  // namespace

PosteriorCall select_from_log_posteriors(const double* lp) {
  int best_g = 0, second_g = 0;
  double best_lp = -1e300, second_lp = -1e300;
  for (int g = 0; g < kNumGenotypes; ++g) {
    const double v = lp[g];
    if (v > best_lp) {
      second_lp = best_lp;
      second_g = best_g;
      best_lp = v;
      best_g = g;
    } else if (v > second_lp) {
      second_lp = v;
      second_g = g;
    }
  }
  PosteriorCall call;
  call.best = static_cast<i8>(best_g);
  call.second = static_cast<i8>(second_g);
  const double gap = 10.0 * (best_lp - second_lp);
  call.quality = static_cast<u16>(
      std::clamp(static_cast<long>(std::lround(gap)), 0L, 99L));
  return call;
}

PosteriorCall select_genotype(const GenotypePriors& log_prior,
                              const TypeLikely& type_likely) {
  std::array<double, kNumGenotypes> lp;
  for (int g = 0; g < kNumGenotypes; ++g)
    lp[static_cast<std::size_t>(g)] = log_prior[static_cast<std::size_t>(g)] +
                                      type_likely[static_cast<std::size_t>(g)];
  return select_from_log_posteriors(lp.data());
}

PriorCache::PriorCache(const PriorParams& params) : params_(params) {
  for (u8 b = 0; b < kNumBases; ++b)
    novel_[b] = genotype_log_priors(b, nullptr, params);
  novel_[kNumBases] = genotype_log_priors(kInvalidBase, nullptr, params);
}

const GenotypePriors& PriorCache::get(u8 ref_base,
                                      const genome::KnownSnpEntry* known) {
  if (known == nullptr) return novel(ref_base);
  scratch_ = genotype_log_priors(ref_base, known, params_);
  return scratch_;
}

SnpRow assemble_row(u64 pos, u8 ref_base, bool in_dbsnp,
                    const PosteriorCall& call, const SiteStats& stats,
                    std::span<const AlignedBase> site_obs,
                    std::span<const u32> site_hits) {
  SnpRow row;
  row.pos = pos;
  row.ref_base = ref_base;
  row.in_dbsnp = in_dbsnp;
  row.depth = stats.depth;
  row.genotype_rank = call.best;

  // Consensus quality: Phred-scaled gap between best and runner-up posterior.
  // Sites with no uniquely aligned evidence get quality 0 (prior-only call).
  u32 n_uniq = 0;
  for (const u32 h : site_hits) n_uniq += (h == 1);
  row.quality = n_uniq == 0 ? u16{0} : call.quality;

  // ---- best / second-best base columns ---------------------------------------
  // The two best bases under `better` (a strict total order, so this is the
  // head of the fully sorted ranking).
  std::array<BaseRank, kNumBases> ranks;
  for (u8 b = 0; b < kNumBases; ++b)
    ranks[b] = {stats.count_uniq[b], stats.count_all[b], stats.qual_sum_all[b],
                b};
  if (better(ranks[1], ranks[0])) std::swap(ranks[0], ranks[1]);
  for (int b = 2; b < kNumBases; ++b) {
    if (better(ranks[b], ranks[0])) {
      ranks[1] = ranks[0];
      ranks[0] = ranks[b];
    } else if (better(ranks[b], ranks[1])) {
      ranks[1] = ranks[b];
    }
  }

  const auto fill = [&](const BaseRank& r, u8& base, u16& avg_q, u32& uniq,
                        u32& all) {
    if (r.all == 0) {
      base = kInvalidBase;
      avg_q = 0;
      uniq = 0;
      all = 0;
      return;
    }
    base = r.base;
    avg_q = static_cast<u16>(r.qual / r.all);
    uniq = r.uniq;
    all = r.all;
  };
  fill(ranks[0], row.best_base, row.best_avg_quality, row.best_uniq_count,
       row.best_all_count);
  fill(ranks[1], row.second_base, row.second_avg_quality,
       row.second_uniq_count, row.second_all_count);

  // ---- rank-sum test on unique-read qualities (best vs second base) ----------
  if (row.best_base != kInvalidBase && row.second_base != kInvalidBase) {
    // Quality histograms over [q_lo, q_hi]: the empty bins outside it hold
    // no tie group, so the test sees only the occupied span.
    std::array<u32, kQualityLevels> q_best{}, q_second{};
    u8 q_lo = kQualityLevels - 1, q_hi = 0;
    for (std::size_t k = 0; k < site_obs.size(); ++k) {
      if (site_hits[k] != 1) continue;
      const AlignedBase& ab = site_obs[k];
      if (ab.base != row.best_base && ab.base != row.second_base) continue;
      GSNP_CHECK_MSG(ab.quality < kQualityLevels,
                     "assemble_row: quality " << int(ab.quality)
                                              << " out of range");
      ++(ab.base == row.best_base ? q_best : q_second)[ab.quality];
      q_lo = std::min(q_lo, ab.quality);
      q_hi = std::max(q_hi, ab.quality);
    }
    const std::size_t bins = q_lo <= q_hi ? q_hi - q_lo + 1u : 0u;
    row.rank_sum_p = round_p(
        rank_sum_p_counts(std::span<const u32>(q_best).subspan(q_lo, bins),
                          std::span<const u32>(q_second).subspan(q_lo, bins)));
  } else {
    row.rank_sum_p = 1.0;
  }

  // ---- average copy number -----------------------------------------------------
  row.copy_number =
      stats.depth == 0
          ? 0.0
          : std::round(100.0 * static_cast<double>(stats.hit_sum) /
                       static_cast<double>(stats.depth)) /
                100.0;
  return row;
}

SnpRow compute_posterior(u64 pos, u8 ref_base,
                         const genome::KnownSnpEntry* known,
                         const PriorParams& params,
                         const TypeLikely& type_likely, const SiteStats& stats,
                         std::span<const AlignedBase> site_obs,
                         std::span<const u32> site_hits) {
  const GenotypePriors log_prior = genotype_log_priors(ref_base, known, params);
  return assemble_row(pos, ref_base, known != nullptr,
                      select_genotype(log_prior, type_likely), stats, site_obs,
                      site_hits);
}

}  // namespace gsnp::core
