// Targeted device-kernel tests beyond the random-property suites: the
// dep_count tag trick under adversarial duplicate patterns, the dictionary
// kernel's constant-memory fallback, and device reuse across windows.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.hpp"
#include "src/compress/device_rledict.hpp"
#include "src/core/kernels.hpp"
#include "src/core/likelihood.hpp"

namespace gsnp::core {
namespace {

class KernelsExtra : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pm_ = new PMatrix(finalize_p_matrix(PMatrixCounter{}));
    npm_ = new NewPMatrix(*pm_);
  }
  static void TearDownTestSuite() {
    delete pm_;
    delete npm_;
  }
  static PMatrix* pm_;
  static NewPMatrix* npm_;
};

PMatrix* KernelsExtra::pm_ = nullptr;
NewPMatrix* KernelsExtra::npm_ = nullptr;

TEST_F(KernelsExtra, DepCountResetsAcrossBaseChanges) {
  // Adversarial pattern for the tag trick: the SAME (strand, coord) cell is
  // hit repeatedly under each of the four bases, with duplicates.  A buggy
  // reset would leak counts from base b into base b+1.
  std::vector<u32> words;
  for (u8 base = 0; base < kNumBases; ++base) {
    for (int rep = 0; rep < 3; ++rep) {
      AlignedBase ab;
      ab.base = base;
      ab.quality = 40;
      ab.coord = 7;
      ab.strand = Strand::kForward;
      words.push_back(base_word_pack(ab));
      ab.strand = Strand::kReverse;
      words.push_back(base_word_pack(ab));
    }
  }
  std::sort(words.begin(), words.end());

  const TypeLikely cpu = likelihood_sparse_site(words, *npm_);

  device::Device dev;
  const DeviceScoreTables tables(dev, *pm_, *npm_);
  BaseWordWindow window(1);
  window.words.assign(words.begin(), words.end());
  window.offsets = {0, words.size()};
  const auto gpu = device_likelihood_sparse(dev, window, tables);
  for (int g = 0; g < kNumGenotypes; ++g) ASSERT_EQ(gpu[0][g], cpu[g]);
}

TEST_F(KernelsExtra, DepCountIsolatedBetweenSites) {
  // Two sites with identical words: per-site dep state must not leak.
  AlignedBase ab;
  ab.base = 1;
  ab.quality = 35;
  ab.coord = 3;
  ab.strand = Strand::kForward;
  const u32 w = base_word_pack(ab);

  BaseWordWindow window(2);
  window.words = {w, w, w, w};  // two duplicates per site
  window.offsets = {0, 2, 4};

  device::Device dev;
  const DeviceScoreTables tables(dev, *pm_, *npm_);
  const auto result = device_likelihood_sparse(dev, window, tables);
  const TypeLikely expected =
      likelihood_sparse_site(std::span<const u32>(window.words.data(), 2),
                             *npm_);
  for (int g = 0; g < kNumGenotypes; ++g) {
    ASSERT_EQ(result[0][g], expected[g]);
    ASSERT_EQ(result[1][g], expected[g]);  // identical input -> identical out
  }
}

TEST_F(KernelsExtra, DeviceReuseAcrossWindowsAccumulatesCounters) {
  device::Device dev;
  const DeviceScoreTables tables(dev, *pm_, *npm_);
  Rng rng(5);
  BaseWordWindow window(16);
  window.offsets = {0};
  for (int s = 0; s < 16; ++s) {
    for (int k = 0; k < 5; ++k) {
      AlignedBase ab;
      ab.base = static_cast<u8>(rng.uniform(4));
      ab.quality = static_cast<u8>(rng.uniform(64));
      ab.coord = static_cast<u16>(rng.uniform(100));
      ab.strand = static_cast<Strand>(rng.uniform(2));
      window.words.push_back(base_word_pack(ab));
    }
    window.offsets.push_back(window.words.size());
  }
  likelihood_sort_cpu(window);

  const auto first = device_likelihood_sparse(dev, window, tables);
  const u64 launches_after_one = dev.counters().kernel_launches;
  const auto second = device_likelihood_sparse(dev, window, tables);
  EXPECT_EQ(first, second);  // deterministic across runs on one device
  EXPECT_GT(dev.counters().kernel_launches, launches_after_one);
  // Per-window buffers are released: allocation returns to tables only.
  EXPECT_EQ(dev.allocated_bytes(),
            tables.p_matrix().bytes() + tables.new_p_matrix().bytes());
}

TEST(DeviceDict, FallsBackToGlobalMemoryForLargeDictionaries) {
  // > constant_bytes/2 / 4 = 8192 distinct values forces the global path.
  std::vector<u32> column(20'000);
  for (std::size_t i = 0; i < column.size(); ++i)
    column[i] = static_cast<u32>(i * 3 + (i % 7));
  device::Device dev;
  const auto m = compress::device_build_dict(dev, column);
  EXPECT_GT(m.dict.size(), 8192u);
  for (std::size_t i = 0; i < column.size(); ++i)
    ASSERT_EQ(m.dict[m.indices[i]], column[i]);
  // No lingering constant-memory reservation either way.
  EXPECT_EQ(dev.constant_bytes_used(), 0u);
}

TEST(DeviceDict, SingleValueColumn) {
  std::vector<u32> column(100, 42);
  device::Device dev;
  const auto m = compress::device_build_dict(dev, column);
  ASSERT_EQ(m.dict.size(), 1u);
  for (const u32 idx : m.indices) EXPECT_EQ(idx, 0u);
}

TEST_F(KernelsExtra, PosteriorKernelHandlesKnownSitePriors) {
  const PriorParams params;
  genome::KnownSnpEntry known;
  known.freq = {0.4, 0.0, 0.6, 0.0};
  known.validated = true;

  std::vector<TypeLikely> tls(8, TypeLikely{});
  std::vector<GenotypePriors> priors;
  for (int i = 0; i < 8; ++i)
    priors.push_back(genotype_log_priors(static_cast<u8>(i % 4),
                                         i % 2 ? &known : nullptr, params));
  device::Device dev;
  const auto calls = device_posterior(dev, tls, priors);
  for (int i = 0; i < 8; ++i) {
    const PosteriorCall expected = select_genotype(priors[i], tls[i]);
    EXPECT_EQ(calls[i].best, expected.best) << i;
    EXPECT_EQ(calls[i].quality, expected.quality) << i;
  }
}

}  // namespace
}  // namespace gsnp::core
