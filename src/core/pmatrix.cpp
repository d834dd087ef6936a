#include "src/core/pmatrix.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "src/common/error.hpp"
#include "src/common/parallel.hpp"
#include "src/common/phred.hpp"

namespace gsnp::core {

void PMatrixCounter::absorb(std::span<std::vector<u32>> shards) {
  parallel_for(PMatrix::kSize, u64{1} << 14,
               [&](std::size_t begin, std::size_t end, std::size_t) {
                 for (std::vector<u32>& shard : shards) {
                   if (shard.empty()) continue;
                   for (std::size_t i = begin; i < end; ++i) {
                     counts_[i] += shard[i];
                     shard[i] = 0;
                   }
                 }
               });
}

PMatrix finalize_p_matrix(const PMatrixCounter& counter, double pseudocount) {
  GSNP_CHECK(pseudocount > 0.0);
  PMatrix pm;
  const auto& counts = counter.counts();
  for (int q = 0; q < kQualityLevels; ++q) {
    // Quality 0 means "no information": cap the error probability at 3/4 so
    // the call is uniformly random rather than certainly wrong — otherwise
    // P(obs == allele) would be exactly 0 and the log-likelihood -inf.
    const double p_err = std::min(phred_to_error(q), 0.75);
    for (int coord = 0; coord < kMaxReadLen; ++coord) {
      for (int allele = 0; allele < kNumBases; ++allele) {
        // Total observations for this (q, coord, allele) row.
        double total = 0.0;
        for (int obs = 0; obs < kNumBases; ++obs)
          total += static_cast<double>(
              counts[PMatrix::index(q, coord, allele, obs)]);
        for (int obs = 0; obs < kNumBases; ++obs) {
          const double observed = static_cast<double>(
              counts[PMatrix::index(q, coord, allele, obs)]);
          // Phred-model expectation for this cell.
          const double model = (obs == allele) ? (1.0 - p_err) : (p_err / 3.0);
          pm.at(q, coord, allele, obs) =
              (observed + pseudocount * model) / (total + pseudocount);
        }
      }
    }
  }
  return pm;
}

namespace {
constexpr char kPMatrixMagic[8] = {'G', 'S', 'N', 'P', 'M', 'T', 'X', '1'};
}  // namespace

void write_p_matrix(const std::filesystem::path& path, const PMatrix& pm) {
  std::ofstream out(path, std::ios::binary);
  GSNP_CHECK_MSG(out.good(), "cannot open p_matrix file for write " << path);
  out.write(kPMatrixMagic, sizeof(kPMatrixMagic));
  const u64 n = pm.flat().size();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(pm.flat().data()),
            static_cast<std::streamsize>(n * sizeof(double)));
  GSNP_CHECK_MSG(out.good(), "p_matrix write failed");
}

PMatrix read_p_matrix(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open p_matrix file " << path);
  char magic[sizeof(kPMatrixMagic)];
  in.read(magic, sizeof(magic));
  GSNP_CHECK_MSG(in.gcount() == sizeof(magic) &&
                     std::memcmp(magic, kPMatrixMagic, sizeof(magic)) == 0,
                 "bad p_matrix magic in " << path);
  u64 n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  GSNP_CHECK_MSG(n == PMatrix::kSize,
                 "p_matrix size mismatch: " << n << " vs " << PMatrix::kSize);
  PMatrix pm;
  std::vector<double> values(n);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  GSNP_CHECK_MSG(in.gcount() ==
                     static_cast<std::streamsize>(n * sizeof(double)),
                 "truncated p_matrix file");
  for (int q = 0; q < kQualityLevels; ++q)
    for (int c = 0; c < kMaxReadLen; ++c)
      for (int a = 0; a < kNumBases; ++a)
        for (int o = 0; o < kNumBases; ++o)
          pm.at(q, c, a, o) = values[PMatrix::index(q, c, a, o)];
  return pm;
}

}  // namespace gsnp::core
