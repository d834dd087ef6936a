#pragma once
// Quality adjustment for dependent observations (Algorithm 1 line 10 /
// Algorithm 4 line 12).
//
// Multiple aligned bases landing on the same (strand, read-coordinate) cell
// of a site are likely PCR duplicates rather than independent evidence, so
// their qualities are decayed: the k-th repeat is penalized by
// round(10 * log10(k)).  The logarithm is served from log_table so the dense
// CPU path, the sparse CPU path and the device kernel produce identical
// integers (paper §IV-G).

#include <algorithm>
#include <array>

#include "src/common/types.hpp"
#include "src/core/log_table.hpp"

namespace gsnp::core {

/// The decay of the `dep_count`-th hit on a cell: round(10 * log10(k)) with
/// k = min(dep_count, kLogTableSize - 1).  `logs` is log_table() (or its
/// device constant-memory copy's host view).
constexpr int quality_penalty(int dep_count, const double* logs) {
  const int k = std::min(dep_count, kLogTableSize - 1);
  return static_cast<int>(10.0 * logs[static_cast<std::size_t>(k)] + 0.5);
}

/// `score` less `penalty`, clamped to the quality range.
constexpr int apply_penalty(int score, int penalty) {
  const int q = score - penalty;
  return q < 0 ? 0 : (q >= kQualityLevels ? kQualityLevels - 1 : q);
}

/// Adjusted quality for an observation with raw Phred `score` that is the
/// `dep_count`-th hit on its (strand, coord) cell (dep_count >= 1).
constexpr int adjust_quality(int score, int dep_count, const double* logs) {
  return apply_penalty(score, quality_penalty(dep_count, logs));
}

/// quality_penalty of every dep_count below kLogTableSize, built once from
/// log_table: the host sparse kernels look penalties up instead of
/// converting a logarithm per aligned base, with identical integers.
const std::array<int, kLogTableSize>& quality_penalties();

/// adjust_quality with the penalty read from quality_penalties().
inline int adjust_quality(int score, int dep_count, const int* penalties) {
  return apply_penalty(score,
                       penalties[std::min(dep_count, kLogTableSize - 1)]);
}

}  // namespace gsnp::core
