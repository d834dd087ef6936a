#pragma once
// Read simulator: samples short reads from a diploid individual, applies
// quality-driven sequencing errors, and emits alignment records sorted by
// reference position — the same distribution of (site -> aligned bases) the
// paper's BGI datasets feed into SNP detection (see DESIGN.md substitutions).

#include <algorithm>
#include <vector>

#include "src/common/phred.hpp"
#include "src/common/rng.hpp"
#include "src/genome/synthetic.hpp"
#include "src/reads/alignment.hpp"
#include "src/reads/quality_model.hpp"

namespace gsnp::reads {

struct ReadSimSpec {
  u32 read_len = 100;
  double depth = 10.0;          ///< target sequencing depth (X)
  double error_scale = 1.0;     ///< multiplies the Phred error probability
  double multi_hit_rate = 0.08; ///< fraction of reads with hit_count > 1
  /// Fraction of the genome reads can align to.  Real resequencing leaves
  /// repetitive/unmappable regions uncovered (paper Table II: 88% coverage
  /// for Ch.1, 68% for Ch.21); reads are only sampled from mappable blocks.
  double mappable_fraction = 1.0;
  u32 mappable_block = 2'000;   ///< granularity of unmappable gaps (bp)
  /// Paired-end simulation: reads are emitted as mate pairs sharing a read
  /// id, tagged 'a'/'b', with the mate placed ~insert_size bp downstream.
  /// false = single-end (each read an independent draw).
  bool paired_end = false;
  u32 insert_size = 300;        ///< outer distance between paired-read starts
  u32 insert_spread = 30;       ///< +/- uniform jitter on the insert size
  /// Depth hotspots: extra single-end reads are piled onto each island so its
  /// realized depth is ~depth_multiplier * `depth`.  Hotspot reads ignore the
  /// mappability mask — the scenario models collapsed repeats / CNV gains,
  /// which stack reads precisely where mappability is dubious.
  std::vector<genome::HotspotIsland> hotspots;
  QualityModelSpec quality;
  u64 seed = 3;
};

/// Simulate reads over the diploid individual.  Records come out sorted by
/// (pos, read_id); reads never cross the sequence end, and reads whose window
/// overlaps an 'N' gap keep the gap cycles as low-quality random bases (as a
/// real aligner would report mismatching tails).
std::vector<AlignmentRecord> simulate_reads(const genome::Diploid& individual,
                                            const ReadSimSpec& spec);

/// The observed base of record `rec` at reference position `site_pos`
/// together with the read coordinate (sequencing cycle) it came from.
/// Returns false if the record does not cover the site or its base there is
/// not A/C/G/T ('N' and other IUPAC letters carry no observation).
struct SiteObservation {
  u8 base;      ///< observed base, expressed on the forward reference strand
  u8 quality;   ///< Phred quality of that cycle
  u16 coord;    ///< sequencing cycle (coordinate on the read as sequenced)
  Strand strand;
};

namespace detail {
/// The observation of sequencing cycle `cycle` of a read with bases `seq`
/// and qualities `qual` (read strand) aligned on `strand`; false for a
/// non-ACGT base.  The stored base is on the read strand, so a reverse
/// read's base is complemented back to the reference strand.
inline bool observe_cycle(const char* seq, const char* qual, u32 cycle,
                          Strand strand, SiteObservation& out) {
  const u8 b = base_from_char(seq[cycle]);
  if (b >= kNumBases) return false;
  out.base = strand == Strand::kForward ? b : complement(b);
  out.quality = static_cast<u8>(quality_from_char(qual[cycle]));
  out.coord = static_cast<u16>(cycle);
  out.strand = strand;
  return true;
}
}  // namespace detail

inline bool observe_site(const AlignmentRecord& rec, u64 site_pos,
                         SiteObservation& out) {
  if (site_pos < rec.pos || site_pos >= rec.pos + rec.length) return false;
  // Reference offset j of a reverse read was sequenced at cycle (len-1-j).
  const u32 offset = static_cast<u32>(site_pos - rec.pos);
  const u32 cycle =
      rec.strand == Strand::kForward ? offset : rec.length - 1u - offset;
  return detail::observe_cycle(rec.seq.data(), rec.qual.data(), cycle,
                               rec.strand, out);
}

/// Walk `rec` (an AlignmentRecord or AlignmentView) once in reference order
/// over the positions it covers inside [lo, hi), calling fn(site_pos,
/// observation) for each A/C/G/T base (the observe_site of each position,
/// without re-deriving the read per call).
template <typename Record, typename Fn>
void for_each_observation(const Record& rec, u64 lo, u64 hi, Fn&& fn) {
  lo = std::max(lo, rec.pos);
  hi = std::min<u64>(hi, rec.pos + rec.length);
  const char* const seq = rec.seq.data();
  const char* const qual = rec.qual.data();
  const Strand strand = rec.strand;
  const u32 last_cycle = rec.length - 1u;
  SiteObservation so;
  for (u64 p = lo; p < hi; ++p) {
    const u32 offset = static_cast<u32>(p - rec.pos);
    const u32 cycle = strand == Strand::kForward ? offset : last_cycle - offset;
    if (detail::observe_cycle(seq, qual, cycle, strand, so)) fn(p, so);
  }
}

}  // namespace gsnp::reads
