// Tests for the score tables: log_table, quality adjustment, p_matrix
// construction, and new_p_matrix (Algorithm 3's precomputation).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/phred.hpp"
#include "src/common/rng.hpp"
#include "src/core/adjust.hpp"
#include "src/core/log_table.hpp"
#include "src/core/new_pmatrix.hpp"
#include "src/core/pmatrix.hpp"

namespace gsnp::core {
namespace {

// ---- log table ---------------------------------------------------------------

TEST(LogTable, ValuesAreBase10Logs) {
  const auto& table = log_table();
  EXPECT_DOUBLE_EQ(table[1], 0.0);
  EXPECT_DOUBLE_EQ(table[10], 1.0);
  EXPECT_DOUBLE_EQ(table[64], std::log10(64.0));
  EXPECT_DOUBLE_EQ(table[0], 0.0);  // sentinel, never used with dep >= 1
}

TEST(LogTable, CoversPaperRange) {
  // "we calculate all base-10 logarithm results of the 64 integers" (§IV-G).
  EXPECT_EQ(kLogTableSize, 65);
}

TEST(LogTable, SharedInstanceIsStable) {
  EXPECT_EQ(&log_table(), &log_table());
}

// ---- adjust ---------------------------------------------------------------------

TEST(Adjust, FirstObservationKeepsScore) {
  const double* logs = log_table().data();
  for (int q = 0; q < kQualityLevels; ++q)
    EXPECT_EQ(adjust_quality(q, 1, logs), q);
}

TEST(Adjust, PenaltyGrowsWithDependencyCount) {
  const double* logs = log_table().data();
  int prev = adjust_quality(40, 1, logs);
  for (int dep = 2; dep <= 64; dep *= 2) {
    const int q = adjust_quality(40, dep, logs);
    EXPECT_LE(q, prev);
    prev = q;
  }
  // dep=10 -> penalty 10; dep=100 (clamped to 64) -> penalty ~18.
  EXPECT_EQ(adjust_quality(40, 10, logs), 30);
}

TEST(Adjust, ClampsToValidRange) {
  const double* logs = log_table().data();
  EXPECT_EQ(adjust_quality(2, 64, logs), 0);
  EXPECT_GE(adjust_quality(0, 64, logs), 0);
  EXPECT_LT(adjust_quality(63, 1, logs), kQualityLevels);
}

TEST(Adjust, DepCountClampedAtTableEnd) {
  const double* logs = log_table().data();
  EXPECT_EQ(adjust_quality(40, 64, logs), adjust_quality(40, 500, logs));
}

// ---- p_matrix ----------------------------------------------------------------------

TEST(PMatrixIndex, MatchesAlgorithm2Layout) {
  // p1 = q << 12 | coord << 4 | allele << 2 | base.
  EXPECT_EQ(PMatrix::index(0, 0, 0, 0), 0u);
  EXPECT_EQ(PMatrix::index(1, 0, 0, 0), 4096u);
  EXPECT_EQ(PMatrix::index(0, 1, 0, 0), 16u);
  EXPECT_EQ(PMatrix::index(0, 0, 1, 0), 4u);
  EXPECT_EQ(PMatrix::index(0, 0, 0, 1), 1u);
  EXPECT_EQ(PMatrix::index(63, 255, 3, 3), PMatrix::kSize - 1);
}

TEST(PMatrixFinalize, NoDataFallsBackToPhredModel) {
  PMatrixCounter counter;  // empty
  const PMatrix pm = finalize_p_matrix(counter);
  for (const int q : {5, 20, 40}) {
    const double e = phred_to_error(q);
    EXPECT_NEAR(pm.at(q, 10, 0, 0), 1.0 - e, 1e-12);
    EXPECT_NEAR(pm.at(q, 10, 0, 1), e / 3.0, 1e-12);
  }
}

TEST(PMatrixFinalize, RowsSumToOne) {
  PMatrixCounter counter;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i)
    counter.add(static_cast<int>(rng.uniform(kQualityLevels)),
                static_cast<int>(rng.uniform(100)),
                static_cast<int>(rng.uniform(4)),
                static_cast<int>(rng.uniform(4)));
  const PMatrix pm = finalize_p_matrix(counter);
  for (const int q : {0, 17, 63})
    for (const int c : {0, 50, 255})
      for (int a = 0; a < 4; ++a) {
        double total = 0.0;
        for (int o = 0; o < 4; ++o) total += pm.at(q, c, a, o);
        EXPECT_NEAR(total, 1.0, 1e-9);
      }
}

TEST(PMatrixFinalize, HeavyCountsDominatePseudocounts) {
  PMatrixCounter counter;
  // 10000 observations at (q=30, c=5, allele=A): 90% A, 10% C — far from the
  // Phred expectation of 99.9% A.
  for (int i = 0; i < 9000; ++i) counter.add(30, 5, 0, 0);
  for (int i = 0; i < 1000; ++i) counter.add(30, 5, 0, 1);
  const PMatrix pm = finalize_p_matrix(counter);
  EXPECT_NEAR(pm.at(30, 5, 0, 0), 0.9, 0.01);
  EXPECT_NEAR(pm.at(30, 5, 0, 1), 0.1, 0.01);
}

TEST(PMatrixFinalize, AllValuesAreProbabilities) {
  PMatrixCounter counter;
  counter.add(10, 3, 2, 1);
  const PMatrix pm = finalize_p_matrix(counter);
  for (const double v : pm.flat()) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

// ---- new_p_matrix -----------------------------------------------------------------------

TEST(NewPMatrixIndex, MatchesAlgorithm3Layout) {
  // idx = (q << 10 | coord << 2 | base) * 10 + i.
  EXPECT_EQ(NewPMatrix::index(0, 0, 0, 0), 0u);
  EXPECT_EQ(NewPMatrix::index(0, 0, 0, 9), 9u);
  EXPECT_EQ(NewPMatrix::index(0, 0, 1, 0), 10u);
  EXPECT_EQ(NewPMatrix::index(0, 1, 0, 0), 40u);
  EXPECT_EQ(NewPMatrix::index(1, 0, 0, 0), 10240u);
  EXPECT_EQ(NewPMatrix::kSize,
            static_cast<u64>(kQualityLevels) * 1024 * kNumGenotypes);
}

TEST(NewPMatrix, EqualsLikelyUpdateExpression) {
  // Property: every cell equals log10(0.5*p1 + 0.5*p2) of the source matrix
  // (Algorithm 2 vs Algorithm 3 equivalence).
  PMatrixCounter counter;
  Rng rng(9);
  for (int i = 0; i < 20000; ++i)
    counter.add(static_cast<int>(rng.uniform(kQualityLevels)),
                static_cast<int>(rng.uniform(kMaxReadLen)),
                static_cast<int>(rng.uniform(4)),
                static_cast<int>(rng.uniform(4)));
  const PMatrix pm = finalize_p_matrix(counter);
  const NewPMatrix npm(pm);

  for (int trial = 0; trial < 2000; ++trial) {
    const int q = static_cast<int>(rng.uniform(kQualityLevels));
    const int c = static_cast<int>(rng.uniform(kMaxReadLen));
    const int obs = static_cast<int>(rng.uniform(4));
    int combo = 0;
    for (int a1 = 0; a1 < 4; ++a1) {
      for (int a2 = a1; a2 < 4; ++a2) {
        const double expected = std::log10(
            0.5 * pm.at(q, c, a1, obs) + 0.5 * pm.at(q, c, a2, obs));
        // Bit-exact: the table stores exactly this expression (§IV-G).
        EXPECT_EQ(npm.at(q, c, obs, combo), expected);
        ++combo;
      }
    }
  }
}

TEST(NewPMatrix, EqualsAnAllRowsReferenceBitForBit) {
  // The table computes a (q, coord) row only when its p_matrix inputs
  // differ from the previous coord's, and copies the row otherwise.  Against
  // a plain likely_log10 over every row: calibration data in scattered rows
  // (never at q < 10 or q >= 40, so whole quality levels have none), runs
  // of identical data rows, and a hand-set zero cell.
  PMatrixCounter counter;
  Rng rng(17);
  for (int i = 0; i < 3000; ++i)
    counter.add(10 + static_cast<int>(rng.uniform(30)),
                static_cast<int>(rng.uniform(kMaxReadLen)),
                static_cast<int>(rng.uniform(4)),
                static_cast<int>(rng.uniform(4)));
  for (int coord = 50; coord < 60; ++coord) counter.add(20, coord, 1, 2);
  counter.add(25, 0, 0, 0);
  counter.add(25, kMaxReadLen - 1, 3, 3);
  PMatrix pm = finalize_p_matrix(counter);
  pm.at(30, 7, 2, 1) = 0.0;
  pm.at(30, 7, 3, 1) = 0.0;

  std::vector<double> reference(NewPMatrix::kSize);
  for (int q = 0; q < kQualityLevels; ++q)
    for (int coord = 0; coord < kMaxReadLen; ++coord)
      for (int obs = 0; obs < kNumBases; ++obs) {
        int combo = 0;
        for (int a1 = 0; a1 < kNumBases; ++a1)
          for (int a2 = a1; a2 < kNumBases; ++a2)
            reference[NewPMatrix::index(q, coord, obs, combo++)] =
                likely_log10(pm.at(q, coord, a1, obs),
                             pm.at(q, coord, a2, obs));
      }
  const auto expect_reference = [&](const NewPMatrix& npm) {
    ASSERT_EQ(npm.flat().size(), reference.size());
    EXPECT_EQ(std::memcmp(npm.flat().data(), reference.data(),
                          reference.size() * sizeof(double)),
              0);
  };
  expect_reference(NewPMatrix(pm));
  const InlineComputeScope one_thread;
  expect_reference(NewPMatrix(pm));
}

TEST(PMatrixCounter, AbsorbFoldsShardsAndZeroesThem) {
  // Shards folded after each batch give the counts of one serial pass;
  // empty shards (slots that never ran) are skipped.
  PMatrixCounter serial, sharded;
  std::vector<std::vector<u32>> shards(3);
  shards[0].assign(PMatrix::kSize, 0);
  shards[2].assign(PMatrix::kSize, 0);
  Rng rng(5);
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 5000; ++i) {
      const int q = static_cast<int>(rng.uniform(kQualityLevels));
      const int c = static_cast<int>(rng.uniform(kMaxReadLen));
      const int a = static_cast<int>(rng.uniform(4));
      const int o = static_cast<int>(rng.uniform(4));
      serial.add(q, c, a, o);
      ++shards[i % 2 == 0 ? 0 : 2][PMatrix::index(q, c, a, o)];
    }
    sharded.absorb(shards);
    for (const std::vector<u32>& shard : {shards[0], shards[2]})
      EXPECT_EQ(std::count(shard.begin(), shard.end(), 0u),
                static_cast<std::ptrdiff_t>(PMatrix::kSize));
  }
  EXPECT_TRUE(shards[1].empty());
  EXPECT_EQ(sharded.counts(), serial.counts());
}

TEST(NewPMatrix, TenValuesPerCell) {
  // The table is ten times p_matrix's (q, coord, obs) cell count (§IV-D).
  EXPECT_EQ(NewPMatrix::kSize / NewPMatrix::kCells,
            static_cast<u64>(kNumGenotypes));
}

}  // namespace
}  // namespace gsnp::core
