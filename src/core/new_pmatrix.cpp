#include "src/core/new_pmatrix.hpp"

#include <algorithm>
#include <cstring>

#include "src/common/parallel.hpp"

namespace gsnp::core {

NewPMatrix::NewPMatrix(const PMatrix& pm) : values_(kSize, 0.0) {
  // A (q, coord) row maps p_matrix's 16 doubles [allele][obs] to 40 table
  // doubles [obs][combo].  Most rows carry no calibration data, so their
  // inputs are the error model for q and repeat the previous coord's
  // inputs; such a row copies the previous row, which the same inputs made.
  constexpr u64 kInputs = kNumBases * kNumBases;
  constexpr u64 kOutputs = kNumBases * kNumGenotypes;
  parallel_for(kQualityLevels, 1, [&](std::size_t begin, std::size_t end,
                                      std::size_t) {
    for (int q = static_cast<int>(begin); q < static_cast<int>(end); ++q) {
      for (int coord = 0; coord < kMaxReadLen; ++coord) {
        const double* const in =
            pm.flat().data() + PMatrix::index(q, coord, 0, 0);
        double* const out = values_.data() + index(q, coord, 0, 0);
        if (coord > 0 &&
            std::memcmp(in, in - kInputs, kInputs * sizeof(double)) == 0) {
          std::copy_n(out - kOutputs, kOutputs, out);
          continue;
        }
        for (int obs = 0; obs < kNumBases; ++obs) {
          int combo = 0;
          for (int a1 = 0; a1 < kNumBases; ++a1) {
            for (int a2 = a1; a2 < kNumBases; ++a2) {
              // Exactly likely_update's expression (Algorithm 2, zero guard
              // included), evaluated once here instead of per aligned base
              // at runtime.
              out[obs * kNumGenotypes + combo] = likely_log10(
                  pm.at(q, coord, a1, obs), pm.at(q, coord, a2, obs));
              ++combo;
            }
          }
        }
      }
    }
  });
}

}  // namespace gsnp::core
