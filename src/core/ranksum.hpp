#pragma once
// Wilcoxon rank-sum test (Mann-Whitney U) on quality scores.
//
// SOAPsnp's output column 15 reports, for each site, the rank-sum p-value
// comparing the quality scores of reads supporting the best base against
// those supporting the second-best base: a lopsided distribution suggests
// the minority allele is a systematic sequencing artifact rather than a true
// heterozygote.  Computed with the normal approximation and tie correction.

#include <span>

#include "src/common/types.hpp"

namespace gsnp::core {

/// Two-sided rank-sum p-value for samples `a` and `b` (quality scores).
/// Returns 1.0 when either sample is empty or both are too small for the
/// approximation to mean anything (n1*n2 == 0).
double rank_sum_p(std::span<const u8> a, std::span<const u8> b);

/// The same test on samples given as value histograms: `a_counts[v]` and
/// `b_counts[v]` count the occurrences of value v in each sample (spans of
/// equal length).  Each tie group is one bin, so no pooled sort is needed;
/// the result is the very double rank_sum_p returns on the expanded samples.
double rank_sum_p_counts(std::span<const u32> a_counts,
                         std::span<const u32> b_counts);

/// Round a p-value to the 1e-4 grid used by the output table (column 15),
/// ensuring it is exactly representable for the quantized codec.
double round_p(double p);

}  // namespace gsnp::core
