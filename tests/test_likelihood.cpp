// Tests for the likelihood calculation: the dense/sparse CPU equivalence
// (the §IV-G consistency property at the algorithm level) and the device
// kernel variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/common/rng.hpp"
#include "src/core/base_occ.hpp"
#include "src/core/base_word.hpp"
#include "src/core/kernels.hpp"
#include "src/core/likelihood.hpp"
#include "src/core/new_pmatrix.hpp"
#include "src/core/pmatrix.hpp"

namespace gsnp::core {
namespace {

/// Shared fixture: a recalibrated p_matrix / new_p_matrix pair plus random
/// per-site observation sets.
class Likelihood : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PMatrixCounter counter;
    Rng rng(123);
    for (int i = 0; i < 50000; ++i) {
      const int allele = static_cast<int>(rng.uniform(4));
      const int obs = rng.bernoulli(0.97)
                          ? allele
                          : static_cast<int>(rng.uniform(4));
      counter.add(static_cast<int>(rng.uniform(kQualityLevels)),
                  static_cast<int>(rng.uniform(100)), allele, obs);
    }
    pm_ = new PMatrix(finalize_p_matrix(counter));
    npm_ = new NewPMatrix(*pm_);
  }
  static void TearDownTestSuite() {
    delete pm_;
    delete npm_;
    pm_ = nullptr;
    npm_ = nullptr;
  }

  static std::vector<AlignedBase> random_site(u64 seed, int n,
                                              int coord_range = 100) {
    Rng rng(seed);
    std::vector<AlignedBase> obs(n);
    for (auto& ab : obs) {
      ab.base = static_cast<u8>(rng.uniform(kNumBases));
      ab.quality = static_cast<u8>(rng.uniform(kQualityLevels));
      ab.coord = static_cast<u16>(rng.uniform(coord_range));
      ab.strand = static_cast<Strand>(rng.uniform(2));
    }
    return obs;
  }

  static TypeLikely dense_of(const std::vector<AlignedBase>& obs) {
    BaseOccWindow window(1);
    for (const auto& ab : obs) window.add(0, ab);
    return likelihood_dense_site(window.site(0), *pm_);
  }

  static TypeLikely sparse_of(const std::vector<AlignedBase>& obs) {
    std::vector<u32> words;
    for (const auto& ab : obs) words.push_back(base_word_pack(ab));
    std::sort(words.begin(), words.end());
    return likelihood_sparse_site(words, *npm_);
  }

  static PMatrix* pm_;
  static NewPMatrix* npm_;
};

PMatrix* Likelihood::pm_ = nullptr;
NewPMatrix* Likelihood::npm_ = nullptr;

TEST_F(Likelihood, EmptySiteGivesZeroLogLikelihoods) {
  const TypeLikely dense = dense_of({});
  const TypeLikely sparse = sparse_of({});
  for (int g = 0; g < kNumGenotypes; ++g) {
    EXPECT_EQ(dense[g], 0.0);
    EXPECT_EQ(sparse[g], 0.0);
  }
}

TEST_F(Likelihood, DenseAndSparseBitIdentical) {
  // The central consistency property: Algorithm 1 (dense, runtime log10) and
  // Algorithm 4 (sorted sparse, precomputed table) produce IDENTICAL doubles.
  for (u64 seed = 1; seed <= 30; ++seed) {
    const auto obs = random_site(seed, static_cast<int>(1 + seed % 40));
    const TypeLikely dense = dense_of(obs);
    const TypeLikely sparse = sparse_of(obs);
    for (int g = 0; g < kNumGenotypes; ++g)
      ASSERT_EQ(dense[g], sparse[g]) << "seed " << seed << " genotype " << g;
  }
}

TEST_F(Likelihood, DuplicateObservationsArePenalized) {
  // Two identical observations: the second contributes with a decayed
  // quality (dep_count = 2), so the total is not simply double the single
  // observation's contribution.
  AlignedBase ab;
  ab.base = 1;
  ab.quality = 40;
  ab.coord = 7;
  ab.strand = Strand::kForward;
  const TypeLikely one = sparse_of({ab});
  const TypeLikely two = sparse_of({ab, ab});
  for (int g = 0; g < kNumGenotypes; ++g)
    EXPECT_NE(two[g], 2.0 * one[g]) << "genotype " << g;
}

TEST_F(Likelihood, IndependentObservationsAdd) {
  // Observations at different coordinates are independent: log-likelihoods
  // sum exactly.
  AlignedBase a, b;
  a.base = b.base = 2;
  a.quality = b.quality = 35;
  a.coord = 3;
  b.coord = 90;
  a.strand = b.strand = Strand::kForward;
  const TypeLikely la = sparse_of({a});
  const TypeLikely lb = sparse_of({b});
  const TypeLikely lab = sparse_of({a, b});
  for (int g = 0; g < kNumGenotypes; ++g)
    EXPECT_DOUBLE_EQ(lab[g], la[g] + lb[g]);
}

TEST_F(Likelihood, MatchingHomozygoteIsMostLikely) {
  // 10 clean high-quality 'G' reads: genotype GG must top the list.
  std::vector<AlignedBase> obs;
  for (int i = 0; i < 10; ++i) {
    AlignedBase ab;
    ab.base = 2;
    ab.quality = 45;
    ab.coord = static_cast<u16>(i * 7);
    ab.strand = static_cast<Strand>(i & 1);
    obs.push_back(ab);
  }
  const TypeLikely tl = sparse_of(obs);
  const int gg = genotype_rank(2, 2);
  for (int g = 0; g < kNumGenotypes; ++g)
    if (g != gg) EXPECT_GT(tl[gg], tl[g]);
}

TEST_F(Likelihood, HetBeatsBothHomsOnBalancedEvidence) {
  std::vector<AlignedBase> obs;
  for (int i = 0; i < 12; ++i) {
    AlignedBase ab;
    ab.base = (i % 2 == 0) ? 0 : 2;  // alternating A and G
    ab.quality = 40;
    ab.coord = static_cast<u16>(i * 5);
    ab.strand = static_cast<Strand>(i & 1);
    obs.push_back(ab);
  }
  const TypeLikely tl = sparse_of(obs);
  const int ag = genotype_rank(0, 2);
  EXPECT_GT(tl[ag], tl[genotype_rank(0, 0)]);
  EXPECT_GT(tl[ag], tl[genotype_rank(2, 2)]);
}

TEST_F(Likelihood, ZeroProbabilityCellStaysFiniteAndConsistent) {
  // Regression: the dense path used to evaluate log10(0.5*p1 + 0.5*p2)
  // unguarded, so a zero p_matrix cell (possible in loaded or hand-built
  // matrices; finalize_p_matrix's pseudocount keeps real calibrations
  // positive) produced -inf in the dense likelihood while the sparse path's
  // NewPMatrix construction hit the same -inf at table-build time.  Both now
  // clamp through likely_log10, so the result is finite AND the dense/sparse
  // §IV-G equivalence survives a zero cell.
  PMatrix pm;  // all-zero table
  // Give exactly one (q, coord) cell column real mass for observed base 1,
  // true alleles 0 and 1; every other allele keeps probability zero.
  pm.at(40, 7, 0, 1) = 0.25;
  pm.at(40, 7, 1, 1) = 0.9;
  const NewPMatrix npm(pm);
  for (int combo = 0; combo < kNumGenotypes; ++combo)
    EXPECT_TRUE(std::isfinite(npm.at(40, 7, 1, combo))) << "combo " << combo;

  AlignedBase ab;
  ab.base = 1;
  ab.quality = 40;
  ab.coord = 7;
  ab.strand = Strand::kForward;

  BaseOccWindow occ(1);
  occ.add(0, ab);
  const TypeLikely dense = likelihood_dense_site(occ.site(0), pm);
  const TypeLikely sparse =
      likelihood_sparse_site(std::vector<u32>{base_word_pack(ab)}, npm);
  for (int g = 0; g < kNumGenotypes; ++g) {
    EXPECT_TRUE(std::isfinite(dense[g])) << "genotype " << g;
    ASSERT_EQ(dense[g], sparse[g]) << "genotype " << g;
  }
  // The clamp floor really bites for the all-zero allele pairs.
  EXPECT_EQ(dense[genotype_rank(2, 3)], std::log10(kMinAllelePairProb));
}

TEST_F(Likelihood, UnsortedWindowIsRejected) {
  // Algorithm 4's ten-add accumulation and its duplicate-decay bookkeeping
  // are only correct over an ascending base_word stream; a descending pair
  // must be rejected loudly, not silently miscounted.
  const auto obs = random_site(991, 12);
  std::vector<u32> words;
  for (const auto& ab : obs) words.push_back(base_word_pack(ab));
  std::sort(words.begin(), words.end());
  std::swap(words.front(), words.back());  // descending pair at index 1
#ifdef NDEBUG
  EXPECT_THROW(likelihood_sparse_site(words, *npm_), UnsortedWindowError);
  try {
    likelihood_sparse_site(words, *npm_);
    FAIL() << "expected UnsortedWindowError";
  } catch (const UnsortedWindowError& e) {
    EXPECT_NE(std::string(e.what()).find("not sorted"), std::string::npos);
  }
#else
  EXPECT_DEATH(likelihood_sparse_site(words, *npm_), "sorted");
#endif
}

TEST_F(Likelihood, CpuSortMatchesStdSortPerSite) {
  BaseWordWindow window(5);
  Rng rng(77);
  std::vector<std::vector<u32>> expected;
  window.offsets = {0};
  for (u32 s = 0; s < 5; ++s) {
    const auto obs = random_site(200 + s, static_cast<int>(rng.uniform(30)));
    std::vector<u32> words;
    for (const auto& ab : obs) words.push_back(base_word_pack(ab));
    window.words.insert(window.words.end(), words.begin(), words.end());
    window.offsets.push_back(window.words.size());
    std::sort(words.begin(), words.end());
    expected.push_back(std::move(words));
  }
  likelihood_sort_cpu(window);
  for (u32 s = 0; s < 5; ++s) {
    const auto site = window.site(s);
    EXPECT_TRUE(std::equal(site.begin(), site.end(), expected[s].begin(),
                           expected[s].end()));
  }
}

// ---- device kernels ------------------------------------------------------------

class LikelihoodDevice : public Likelihood {
 protected:
  static BaseWordWindow make_window(u32 n_sites, u64 seed) {
    BaseWordWindow window(n_sites);
    Rng rng(seed);
    window.offsets = {0};
    for (u32 s = 0; s < n_sites; ++s) {
      const auto obs =
          random_site(seed * 1000 + s, static_cast<int>(rng.uniform(35)));
      std::vector<u32> words;
      for (const auto& ab : obs) words.push_back(base_word_pack(ab));
      std::sort(words.begin(), words.end());
      window.words.insert(window.words.end(), words.begin(), words.end());
      window.offsets.push_back(window.words.size());
    }
    return window;
  }
};

TEST_F(LikelihoodDevice, AllVariantsMatchCpuSparse) {
  device::Device dev;
  const DeviceScoreTables tables(dev, *pm_, *npm_);
  const BaseWordWindow window = make_window(150, 31);

  std::vector<TypeLikely> expected(window.window_size());
  for (u32 s = 0; s < window.window_size(); ++s)
    expected[s] = likelihood_sparse_site(window.site(s), *npm_);

  for (const bool use_shared : {false, true}) {
    for (const bool use_table : {false, true}) {
      const SparseKernelOpts opts{use_shared, use_table};
      const auto result = device_likelihood_sparse(dev, window, tables, opts);
      ASSERT_EQ(result.size(), expected.size());
      for (u32 s = 0; s < window.window_size(); ++s)
        for (int g = 0; g < kNumGenotypes; ++g)
          ASSERT_EQ(result[s][g], expected[s][g])
              << "site " << s << " g " << g << " shared=" << use_shared
              << " table=" << use_table;
    }
  }
}

TEST_F(LikelihoodDevice, DenseKernelMatchesCpuDense) {
  device::Device dev;
  const DeviceScoreTables tables(dev, *pm_, *npm_);
  const BaseWordWindow window = make_window(40, 57);

  const auto device_result = device_likelihood_dense(dev, window, tables);
  for (u32 s = 0; s < window.window_size(); ++s) {
    BaseOccWindow occ(1);
    for (const u32 w : window.site(s)) occ.add(0, base_word_unpack(w));
    const TypeLikely expected = likelihood_dense_site(occ.site(0), *pm_);
    for (int g = 0; g < kNumGenotypes; ++g)
      ASSERT_EQ(device_result[s][g], expected[g]) << "site " << s;
  }
}

TEST_F(LikelihoodDevice, SharedMemoryVariantReducesGlobalTraffic) {
  // The Fig 8 / Table III effect, asserted on real counters.
  device::Device dev;
  const DeviceScoreTables tables(dev, *pm_, *npm_);
  const BaseWordWindow window = make_window(200, 71);

  dev.reset_counters();
  device_likelihood_sparse(dev, window, tables, {false, true});
  const auto base = dev.counters();
  dev.reset_counters();
  device_likelihood_sparse(dev, window, tables, {true, true});
  const auto shared = dev.counters();

  EXPECT_LT(shared.global_loads() + shared.global_stores(),
            base.global_loads() + base.global_stores());
  EXPECT_GT(shared.shared_loads, 0u);
  EXPECT_EQ(base.shared_loads, 0u);
}

TEST_F(LikelihoodDevice, NewTableVariantHalvesTableReadsAndDropsLog10) {
  device::Device dev;
  const DeviceScoreTables tables(dev, *pm_, *npm_);
  const BaseWordWindow window = make_window(200, 73);

  dev.reset_counters();
  device_likelihood_sparse(dev, window, tables, {true, false});
  const auto log10_variant = dev.counters();
  dev.reset_counters();
  device_likelihood_sparse(dev, window, tables, {true, true});
  const auto table_variant = dev.counters();

  // 20 p_matrix reads/word -> 10 new_p reads/word, and the transcendental
  // instruction cost disappears.
  EXPECT_LT(table_variant.global_loads_random,
            log10_variant.global_loads_random);
  EXPECT_LT(table_variant.instructions, log10_variant.instructions);
}

TEST_F(LikelihoodDevice, DenseKernelStreamsWholeMatrix) {
  device::Device dev;
  const DeviceScoreTables tables(dev, *pm_, *npm_);
  const BaseWordWindow window = make_window(8, 91);
  dev.reset_counters();
  device_likelihood_dense(dev, window, tables);
  // Must read at least window_size * 131,072 dense cells.
  EXPECT_GE(dev.counters().global_load_bytes_coalesced,
            8ull * kBaseOccPerSite);
}

}  // namespace
}  // namespace gsnp::core
