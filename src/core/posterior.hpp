#pragma once
// Posterior probability computation (workflow component `posterior`):
// combines the per-site genotype log-likelihoods with the genotype prior,
// selects the consensus genotype and quality, and fills the remaining
// statistics columns of the output row.

#include <span>

#include "src/core/likelihood.hpp"
#include "src/core/prior.hpp"
#include "src/core/snp_row.hpp"
#include "src/core/window.hpp"

namespace gsnp::core {

/// Compute one site's output row.
///
/// `site_obs`/`site_hits` are the arrival-order observations (for the
/// rank-sum test, which uses qualities of uniquely aligned reads only),
/// `stats` the per-site aggregates, `type_likely` the ten log10 likelihoods,
/// `ref_base` the reference base (kInvalidBase for 'N'), `known` the dbSNP
/// entry or nullptr.
SnpRow compute_posterior(u64 pos, u8 ref_base,
                         const genome::KnownSnpEntry* known,
                         const PriorParams& params, const TypeLikely& type_likely,
                         const SiteStats& stats,
                         std::span<const AlignedBase> site_obs,
                         std::span<const u32> site_hits);

/// The genotype-selection part of the posterior, separated out so the device
/// kernel and the host path share one definition: best/second genotype by
/// log posterior (prior + likelihood) and the Phred-scaled gap.
struct PosteriorCall {
  i8 best = 0;
  i8 second = 0;
  u16 quality = 0;  ///< clamp(round(10*(best-second)), 0, 99)
};
PosteriorCall select_genotype(const GenotypePriors& log_prior,
                              const TypeLikely& type_likely);

/// The selection scan over ten already-summed log posteriors
/// (prior + likelihood).  select_genotype and the SIMD backend both funnel
/// through this so the tie-breaking and quality-rounding rules have exactly
/// one definition (`lp` points at kNumGenotypes doubles).
PosteriorCall select_from_log_posteriors(const double* lp);

/// Assemble the full output row given an already-selected genotype call
/// (host path: select_genotype; GSNP path: the device posterior kernel,
/// which computes the identical selection).
SnpRow assemble_row(u64 pos, u8 ref_base, bool in_dbsnp,
                    const PosteriorCall& call, const SiteStats& stats,
                    std::span<const AlignedBase> site_obs,
                    std::span<const u32> site_hits);

/// Memoizes novel-site priors by reference base (they depend only on the
/// base), so per-site prior construction is O(1) away from dbSNP sites.
class PriorCache {
 public:
  explicit PriorCache(const PriorParams& params);

  /// Prior for a site: cached for novel sites, computed for dbSNP entries.
  const GenotypePriors& get(u8 ref_base, const genome::KnownSnpEntry* known);
  /// The cached prior of a novel site (read-only, so shareable by threads).
  const GenotypePriors& novel(u8 ref_base) const {
    return novel_[ref_base < kNumBases ? ref_base : kNumBases];
  }

 private:
  PriorParams params_;
  std::array<GenotypePriors, kNumBases + 1> novel_;  // [4] = 'N'
  GenotypePriors scratch_;
};

}  // namespace gsnp::core
