#pragma once
// The global score matrix p_matrix and its calculation (workflow component
// cal_p_matrix).
//
// p_matrix[q][coord][allele][obs] is the calibrated probability of observing
// base `obs` at read coordinate `coord` with adjusted quality `q`, given the
// true allele is `allele`.  SOAPsnp builds it from a full counting pass over
// the alignment data blended with the Phred error model: the observed counts
// recalibrate the nominal quality per sequencing cycle.  GSNP keeps the exact
// computation but additionally compresses the input stream it reads into the
// temporary file read_site consumes (paper §V-A).
//
// Flat layout matches Algorithm 2's index arithmetic:
//   index = q << 12 | coord << 4 | allele << 2 | obs
// i.e. [kQualityLevels][kMaxReadLen][4][4] doubles (2 MiB; the paper reports
// 8 MB because it sizes the quality axis at 256 levels — see DESIGN.md).

#include <filesystem>
#include <span>
#include <vector>

#include "src/common/types.hpp"

namespace gsnp::core {

class PMatrix {
 public:
  static constexpr u64 kSize =
      static_cast<u64>(kQualityLevels) << 12;  // q<<12 spans the table

  PMatrix() : values_(kSize, 0.0) {}

  static constexpr u64 index(int q, int coord, int allele, int obs) {
    return (static_cast<u64>(q) << 12) | (static_cast<u64>(coord) << 4) |
           (static_cast<u64>(allele) << 2) | static_cast<u64>(obs);
  }

  double at(int q, int coord, int allele, int obs) const {
    return values_[index(q, coord, allele, obs)];
  }
  double& at(int q, int coord, int allele, int obs) {
    return values_[index(q, coord, allele, obs)];
  }

  double operator[](u64 flat) const { return values_[flat]; }
  const std::vector<double>& flat() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Accumulates the counting pass of cal_p_matrix: one count per uniquely
/// aligned base, keyed by (quality, coord, reference base, observed base).
class PMatrixCounter {
 public:
  PMatrixCounter() : counts_(PMatrix::kSize, 0) {}

  void add(int q, int coord, int ref_base, int obs_base) {
    ++counts_[PMatrix::index(q, coord, ref_base, obs_base)];
  }

  /// Fold in, on the compute executor, every non-empty shard of
  /// PMatrix::kSize counts, and zero them.  A parallel pass counts into one
  /// `u32` shard per executor slot that ran; `u64` adds commute, so the
  /// folded totals are one serial pass's.
  void absorb(std::span<std::vector<u32>> shards);

  const std::vector<u64>& counts() const { return counts_; }

 private:
  std::vector<u64> counts_;
};

/// Finalize p_matrix from the counting pass: observed frequencies blended
/// with the Phred error model through `pseudocount` virtual observations.
/// Cells with no data fall back to the pure error model; cells with deep data
/// are dominated by the measured miscall rates.
PMatrix finalize_p_matrix(const PMatrixCounter& counter,
                          double pseudocount = 32.0);

/// Serialize/load a finalized p_matrix (SOAPsnp's matrix dump feature: the
/// expensive calibration pass can be reused across runs over the same
/// library).  Binary format, bit-exact round trip — reloading preserves the
/// §IV-G consistency guarantee.
void write_p_matrix(const std::filesystem::path& path, const PMatrix& pm);
PMatrix read_p_matrix(const std::filesystem::path& path);

}  // namespace gsnp::core
