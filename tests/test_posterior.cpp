// Tests for the Bayesian posterior: genotype priors, the rank-sum test, and
// the per-site output row computation.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/posterior.hpp"
#include "src/core/prior.hpp"
#include "src/core/ranksum.hpp"

namespace gsnp::core {
namespace {

// ---- priors -----------------------------------------------------------------

TEST(Prior, LinearMassSumsToOne) {
  const PriorParams params;
  for (u8 r = 0; r < kNumBases; ++r) {
    const GenotypePriors lp = genotype_log_priors(r, nullptr, params);
    double total = 0.0;
    for (const double v : lp) total += std::pow(10.0, v);
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(Prior, HomRefDominates) {
  const PriorParams params;
  for (u8 r = 0; r < kNumBases; ++r) {
    const GenotypePriors lp = genotype_log_priors(r, nullptr, params);
    const int rr = genotype_rank(r, r);
    for (int g = 0; g < kNumGenotypes; ++g)
      if (g != rr) EXPECT_GT(lp[rr], lp[g]);
  }
}

TEST(Prior, TransitionFavoredOverTransversion) {
  const PriorParams params;
  // ref A: transition partner G, transversion partners C and T.
  const GenotypePriors lp = genotype_log_priors(0, nullptr, params);
  EXPECT_GT(lp[genotype_rank(0, 2)], lp[genotype_rank(0, 1)]);  // AG > AC
  EXPECT_GT(lp[genotype_rank(0, 2)], lp[genotype_rank(0, 3)]);  // AG > AT
}

TEST(Prior, HetRateHonored) {
  PriorParams params;
  params.novel_het_rate = 1e-3;
  const GenotypePriors lp = genotype_log_priors(0, nullptr, params);
  double het_mass = 0.0;
  for (const u8 alt : {1, 2, 3})
    het_mass += std::pow(10.0, lp[genotype_rank(0, alt)]);
  EXPECT_NEAR(het_mass, 1e-3, 1e-5);
}

TEST(Prior, NRefGivesFlatPrior) {
  const PriorParams params;
  const GenotypePriors lp = genotype_log_priors(kInvalidBase, nullptr, params);
  for (int g = 1; g < kNumGenotypes; ++g) EXPECT_DOUBLE_EQ(lp[g], lp[0]);
}

TEST(Prior, DbSnpShiftsMassTowardListedAllele) {
  const PriorParams params;
  genome::KnownSnpEntry known;
  known.freq = {0.6, 0.0, 0.4, 0.0};  // A and G alleles
  known.validated = true;

  const GenotypePriors novel = genotype_log_priors(0, nullptr, params);
  const GenotypePriors with_db = genotype_log_priors(0, &known, params);
  // Het AG jumps by orders of magnitude at a known site.
  EXPECT_GT(with_db[genotype_rank(0, 2)], novel[genotype_rank(0, 2)] + 1.0);
  // Hom ref mass decreases.
  EXPECT_LT(with_db[genotype_rank(0, 0)], novel[genotype_rank(0, 0)]);
}

TEST(Prior, ValidatedEntriesWeighHeavier) {
  const PriorParams params;
  genome::KnownSnpEntry known;
  known.freq = {0.5, 0.0, 0.5, 0.0};
  known.validated = false;
  const GenotypePriors unvalidated = genotype_log_priors(0, &known, params);
  known.validated = true;
  const GenotypePriors validated = genotype_log_priors(0, &known, params);
  EXPECT_GT(validated[genotype_rank(0, 2)], unvalidated[genotype_rank(0, 2)]);
}

// ---- rank-sum -----------------------------------------------------------------

TEST(RankSum, EmptySamplesGiveOne) {
  const std::vector<u8> a = {30, 31};
  EXPECT_DOUBLE_EQ(rank_sum_p({}, a), 1.0);
  EXPECT_DOUBLE_EQ(rank_sum_p(a, {}), 1.0);
}

TEST(RankSum, IdenticalDistributionsGiveHighP) {
  const std::vector<u8> a = {30, 32, 31, 29, 33, 30, 31, 32};
  const std::vector<u8> b = {31, 30, 32, 33, 29, 31, 30, 32};
  EXPECT_GT(rank_sum_p(a, b), 0.5);
}

TEST(RankSum, DisjointDistributionsGiveLowP) {
  const std::vector<u8> high = {40, 41, 42, 43, 44, 45, 46, 47, 48, 49};
  const std::vector<u8> low = {5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  EXPECT_LT(rank_sum_p(high, low), 0.001);
}

TEST(RankSum, Symmetric) {
  const std::vector<u8> a = {10, 20, 30, 25};
  const std::vector<u8> b = {15, 22, 40};
  EXPECT_NEAR(rank_sum_p(a, b), rank_sum_p(b, a), 1e-12);
}

TEST(RankSum, AllTiedGivesOne) {
  const std::vector<u8> a = {30, 30, 30};
  const std::vector<u8> b = {30, 30};
  EXPECT_DOUBLE_EQ(rank_sum_p(a, b), 1.0);
}

/// The pooled-sort rank-sum the histogram version replaced: pool both
/// samples, sort, and add each tie group's mid-rank once per member of `a`.
double pooled_sort_rank_sum_p(const std::vector<u8>& a,
                              const std::vector<u8>& b) {
  const double n1 = static_cast<double>(a.size());
  const double n2 = static_cast<double>(b.size());
  if (a.empty() || b.empty()) return 1.0;
  std::vector<std::pair<u8, bool>> pool;
  for (const u8 v : a) pool.push_back({v, true});
  for (const u8 v : b) pool.push_back({v, false});
  std::sort(pool.begin(), pool.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  double rank_sum_a = 0.0;
  double tie_correction = 0.0;
  const std::size_t n = pool.size();
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && pool[j].first == pool[i].first) ++j;
    const double t = static_cast<double>(j - i);
    const double mid =
        (static_cast<double>(i + 1) + static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k < j; ++k)
      if (pool[k].second) rank_sum_a += mid;
    tie_correction += t * t * t - t;
    i = j;
  }
  const double total = n1 + n2;
  const double u = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
  const double mean_u = n1 * n2 / 2.0;
  const double var_u = n1 * n2 / 12.0 *
                       (total + 1.0 - tie_correction / (total * (total - 1.0)));
  if (var_u <= 0.0) return 1.0;
  const double z = (std::abs(u - mean_u) - 0.5) / std::sqrt(var_u);
  const double p = 2.0 * (0.5 * std::erfc(std::max(0.0, z) / std::sqrt(2.0)));
  return std::min(1.0, p);
}

TEST(RankSum, HistogramMatchesPooledSortExactly) {
  Rng rng(2024);
  const auto sample = [&](std::size_t n, int lo, int hi) {
    std::vector<u8> v(n);
    for (auto& q : v) q = static_cast<u8>(rng.uniform_range(lo, hi));
    return v;
  };
  std::vector<std::pair<std::vector<u8>, std::vector<u8>>> cases = {
      {{30, 30, 30}, {30, 30}},   // all tied
      {{0}, {63}},                // one-element sides, extreme qualities
      {{63}, {0, 0, 63}},
      {{0, 63, 0, 63}, {63}},
      {sample(2'000, 0, 63), sample(1'700, 0, 63)},  // 2,000-deep site
      {sample(2'000, 20, 25), sample(300, 0, 63)},
      {sample(1'000, 40, 40), sample(1'000, 40, 40)},
  };
  for (int trial = 0; trial < 300; ++trial) {
    const int lo = static_cast<int>(rng.uniform(64));
    const int hi = lo + static_cast<int>(rng.uniform(64 - lo));
    cases.emplace_back(sample(1 + rng.uniform(60), lo, hi),
                       sample(1 + rng.uniform(12), 0, 63));
  }
  for (const auto& [a, b] : cases) {
    std::array<u32, kQualityLevels> ha{}, hb{};
    for (const u8 q : a) ++ha[q];
    for (const u8 q : b) ++hb[q];
    const double expected = pooled_sort_rank_sum_p(a, b);
    // Bit-for-bit: these doubles feed the 1e-4 output grid.
    EXPECT_EQ(rank_sum_p_counts(ha, hb), expected)
        << a.size() << " vs " << b.size();
    EXPECT_EQ(rank_sum_p_counts(hb, ha), pooled_sort_rank_sum_p(b, a));
    EXPECT_EQ(rank_sum_p(a, b), expected);
  }
}

TEST(RankSum, RoundPIsOnGrid) {
  for (const double p : {0.123456, 0.99999, 1e-9, 0.5}) {
    const double r = round_p(p);
    EXPECT_NEAR(r * 1e4, std::round(r * 1e4), 1e-9);
    EXPECT_NEAR(r, p, 5e-5);
  }
}

// ---- compute_posterior ---------------------------------------------------------

class Posterior : public ::testing::Test {
 protected:
  /// Build consistent (type_likely, stats, obs, hits) for n_a reads of
  /// base_a and n_b of base_b — likelihood shaped like clean q40 data.
  void build_site(u8 base_a, int n_a, u8 base_b, int n_b) {
    obs_.clear();
    hits_.clear();
    stats_ = SiteStats{};
    tl_ = TypeLikely{};
    int coord = 0;
    const auto add = [&](u8 base, int count) {
      for (int i = 0; i < count; ++i) {
        AlignedBase ab;
        ab.base = base;
        ab.quality = 40;
        ab.coord = static_cast<u16>(coord++ * 3);
        obs_.push_back(ab);
        hits_.push_back(1);
        ++stats_.count_uniq[base];
        ++stats_.count_all[base];
        stats_.qual_sum_all[base] += 40;
        ++stats_.depth;
        stats_.hit_sum += 1;
        // Simple independent-evidence likelihood: matching allele ~ log10(1),
        // half-match ~ log10(0.5), miss ~ log10(1e-4).
        for (int g = 0; g < kNumGenotypes; ++g) {
          const Genotype gt = genotype_from_rank(g);
          const int match = (gt.allele1 == base) + (gt.allele2 == base);
          tl_[g] += match == 2 ? -1e-5 : (match == 1 ? -0.301 : -4.0);
        }
      }
    };
    add(base_a, n_a);
    if (n_b > 0) add(base_b, n_b);
  }

  SnpRow call(u8 ref, const genome::KnownSnpEntry* known = nullptr) {
    return compute_posterior(100, ref, known, params_, tl_, stats_, obs_,
                             hits_);
  }

  PriorParams params_;
  TypeLikely tl_{};
  SiteStats stats_;
  std::vector<AlignedBase> obs_;
  std::vector<u32> hits_;
};

TEST_F(Posterior, CleanHomRefCallsHomRef) {
  build_site(/*A*/ 0, 12, 0, 0);
  const SnpRow row = call(0);
  EXPECT_EQ(row.genotype_rank, genotype_rank(0, 0));
  EXPECT_GT(row.quality, 20);
  EXPECT_EQ(row.best_base, 0);
  EXPECT_EQ(row.best_uniq_count, 12u);
  EXPECT_EQ(row.second_base, kInvalidBase);
  EXPECT_FALSE(row.in_dbsnp);
}

TEST_F(Posterior, BalancedEvidenceCallsHet) {
  build_site(/*A*/ 0, 6, /*G*/ 2, 6);
  const SnpRow row = call(0);
  EXPECT_EQ(row.genotype_rank, genotype_rank(0, 2));
  EXPECT_EQ(row.best_all_count, 6u);
  EXPECT_EQ(row.second_all_count, 6u);
}

TEST_F(Posterior, StrongAltEvidenceCallsHomAlt) {
  build_site(/*T*/ 3, 14, 0, 0);
  const SnpRow row = call(/*ref C*/ 1);
  EXPECT_EQ(row.genotype_rank, genotype_rank(3, 3));
  EXPECT_EQ(row.best_base, 3);
}

TEST_F(Posterior, QualityGrowsWithDepth) {
  // Shallow depths keep both calls below the 99 clamp.
  build_site(0, 2, 2, 2);
  const u16 q_shallow = call(0).quality;
  build_site(0, 3, 2, 3);
  const u16 q_deep = call(0).quality;
  EXPECT_GT(q_deep, q_shallow);
  EXPECT_LT(q_deep, 99);
}

TEST_F(Posterior, NoCoverageGivesQualityZeroAndPriorCall) {
  build_site(0, 0, 0, 0);
  const SnpRow row = call(2);
  EXPECT_EQ(row.quality, 0);
  EXPECT_EQ(row.genotype_rank, genotype_rank(2, 2));  // prior-only: hom ref
  EXPECT_EQ(row.best_base, kInvalidBase);
  EXPECT_EQ(row.depth, 0u);
  EXPECT_DOUBLE_EQ(row.rank_sum_p, 1.0);
}

TEST_F(Posterior, BestAndSecondOrderedByUniqueCount) {
  build_site(/*G*/ 2, 9, /*T*/ 3, 4);
  const SnpRow row = call(2);
  EXPECT_EQ(row.best_base, 2);
  EXPECT_EQ(row.second_base, 3);
  EXPECT_EQ(row.best_uniq_count, 9u);
  EXPECT_EQ(row.second_uniq_count, 4u);
  EXPECT_EQ(row.best_avg_quality, 40);
}

TEST_F(Posterior, CopyNumberAveragesHitCounts) {
  build_site(0, 4, 0, 0);
  // Make two of the observations multi-hit (hit_count 3).
  hits_[0] = 3;
  hits_[1] = 3;
  stats_.hit_sum = 3 + 3 + 1 + 1;
  const SnpRow row = call(0);
  EXPECT_DOUBLE_EQ(row.copy_number, 2.0);  // 8 / 4
}

TEST_F(Posterior, RankSumComputedBetweenBestAndSecond) {
  build_site(0, 8, 2, 8);
  // Skew qualities: A reads high, G reads low.
  for (std::size_t i = 0; i < obs_.size(); ++i)
    obs_[i].quality = obs_[i].base == 0 ? 45 : 8;
  const SnpRow row = call(0);
  EXPECT_LT(row.rank_sum_p, 0.05);
}

TEST_F(Posterior, DbSnpFlagSetWhenEntryPresent) {
  build_site(0, 10, 0, 0);
  genome::KnownSnpEntry known;
  known.freq = {0.9, 0.0, 0.1, 0.0};
  const SnpRow row = call(0, &known);
  EXPECT_TRUE(row.in_dbsnp);
}

TEST_F(Posterior, MultiHitReadsExcludedFromConsensusQualityGate) {
  // Only multi-hit evidence -> quality must be 0 (prior-only call).
  build_site(0, 5, 0, 0);
  for (auto& h : hits_) h = 4;
  const SnpRow row = call(0);
  EXPECT_EQ(row.quality, 0);
}

// ---- snp_row text format ------------------------------------------------------------

TEST(SnpRowFormat, RoundTrip) {
  SnpRow row;
  row.pos = 12344;
  row.ref_base = 1;
  row.genotype_rank = static_cast<i8>(genotype_rank(1, 3));
  row.quality = 57;
  row.best_base = 1;
  row.best_avg_quality = 38;
  row.best_uniq_count = 7;
  row.best_all_count = 8;
  row.second_base = 3;
  row.second_avg_quality = 31;
  row.second_uniq_count = 5;
  row.second_all_count = 5;
  row.depth = 13;
  row.rank_sum_p = 0.1234;
  row.copy_number = 1.25;
  row.in_dbsnp = true;

  std::string seq_name;
  const SnpRow parsed =
      parse_snp_row(format_snp_row("chrZ", row), seq_name);
  EXPECT_EQ(seq_name, "chrZ");
  EXPECT_EQ(parsed, row);
}

TEST(SnpRowFormat, SeventeenColumns) {
  const SnpRow row;
  const std::string line = format_snp_row("c", row);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 16);
}

TEST(SnpRowFormat, IupacCodes) {
  EXPECT_EQ(iupac_from_rank(genotype_rank(0, 0)), 'A');
  EXPECT_EQ(iupac_from_rank(genotype_rank(0, 2)), 'R');  // A/G
  EXPECT_EQ(iupac_from_rank(genotype_rank(1, 3)), 'Y');  // C/T
  EXPECT_EQ(iupac_from_rank(genotype_rank(2, 3)), 'K');  // G/T
  for (int g = 0; g < kNumGenotypes; ++g)
    EXPECT_EQ(rank_from_iupac(iupac_from_rank(g)), g);
  EXPECT_EQ(rank_from_iupac('N'), -1);
}

}  // namespace
}  // namespace gsnp::core
