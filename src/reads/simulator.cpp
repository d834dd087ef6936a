#include "src/reads/simulator.hpp"

#include <algorithm>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/phred.hpp"

namespace gsnp::reads {

namespace {

/// Apply a sequencing error: substitute a uniformly random different base.
u8 misread(u8 true_base, Rng& rng) {
  const u8 shift = static_cast<u8>(1 + rng.uniform(3));
  return static_cast<u8>((true_base + shift) & 3);
}

}  // namespace

std::vector<AlignmentRecord> simulate_reads(const genome::Diploid& individual,
                                            const ReadSimSpec& spec) {
  const genome::Reference& ref = individual.reference();
  GSNP_CHECK_MSG(ref.size() >= spec.read_len,
                 "reference shorter than read length");
  GSNP_CHECK(spec.read_len > 0 && spec.read_len <= kMaxReadLen);

  Rng rng(spec.seed);
  const QualityModel qmodel(spec.quality);

  const u64 n_reads = static_cast<u64>(
      spec.depth * static_cast<double>(ref.size()) / spec.read_len);
  const u64 max_start = ref.size() - spec.read_len;

  // Unmappable-region mask at block granularity: reads never start inside an
  // unmappable block (rejection sampling, bounded attempts).
  std::vector<bool> mappable;
  if (spec.mappable_fraction < 1.0) {
    GSNP_CHECK(spec.mappable_fraction > 0.0 && spec.mappable_block > 0);
    const u64 n_blocks = ref.size() / spec.mappable_block + 1;
    mappable.resize(n_blocks);
    for (u64 b = 0; b < n_blocks; ++b)
      mappable[b] = rng.bernoulli(spec.mappable_fraction);
  }
  const auto is_mappable = [&](u64 start) {
    return mappable.empty() || mappable[start / spec.mappable_block];
  };

  // Plan all reads first (positions, strands, haplotypes, pairing), sort by
  // position, then synthesize — records come out position-ordered like a
  // real aligner output prepared for SOAPsnp.
  struct ReadPlan {
    u64 start;
    Strand strand;
    int hap;
    char tag;
    u64 fragment;
  };
  std::vector<ReadPlan> plans;
  plans.reserve(n_reads);

  const auto sample_start = [&](u64 bound) {
    u64 s = rng.uniform(bound + 1);
    for (int attempt = 0; attempt < 64 && !is_mappable(s); ++attempt)
      s = rng.uniform(bound + 1);
    return s;
  };

  if (!spec.paired_end) {
    for (u64 i = 0; i < n_reads; ++i) {
      const Strand strand =
          rng.bernoulli(0.5) ? Strand::kForward : Strand::kReverse;
      const int hap = rng.bernoulli(0.5) ? 1 : 0;
      const char tag = rng.bernoulli(0.5) ? 'a' : 'b';
      plans.push_back({sample_start(max_start), strand, hap, tag, i});
    }
  } else {
    // Both mates come from the same DNA fragment: same haplotype, read 2
    // reverse-oriented ~insert_size downstream.
    GSNP_CHECK(spec.insert_size >= spec.read_len);
    const u64 n_frags = n_reads / 2;
    for (u64 f = 0; f < n_frags; ++f) {
      const u32 jitter = spec.insert_spread
                             ? static_cast<u32>(
                                   rng.uniform(2 * spec.insert_spread + 1))
                             : 0;
      u64 insert = spec.insert_size + jitter;
      insert = std::max<u64>(insert > spec.insert_spread
                                 ? insert - spec.insert_spread
                                 : spec.read_len,
                             spec.read_len);
      if (insert >= ref.size()) insert = spec.read_len;
      const u64 frag_start = sample_start(ref.size() - insert);
      const int hap = rng.bernoulli(0.5) ? 1 : 0;
      plans.push_back({frag_start, Strand::kForward, hap, 'a', f});
      plans.push_back(
          {frag_start + insert - spec.read_len, Strand::kReverse, hap, 'b', f});
    }
  }
  // Hotspot pileups: extra single-end reads over each island, enough that the
  // island's realized depth approaches depth_multiplier * baseline.  Starts
  // are uniform across the island (not the whole genome) and skip the
  // mappability rejection loop deliberately — see ReadSimSpec::hotspots.
  u64 next_fragment = spec.paired_end ? n_reads / 2 : n_reads;
  for (const genome::HotspotIsland& island : spec.hotspots) {
    GSNP_CHECK_MSG(island.length > 0 &&
                       island.start + island.length <= ref.size(),
                   "hotspot island [" << island.start << ", +" << island.length
                                      << ") out of bounds");
    GSNP_CHECK_MSG(island.depth_multiplier >= 1.0,
                   "hotspot multiplier " << island.depth_multiplier << " < 1");
    const u64 n_extra = static_cast<u64>(
        (island.depth_multiplier - 1.0) * spec.depth *
        static_cast<double>(island.length) / spec.read_len);
    GSNP_CHECK_MSG(island.start <= max_start,
                   "hotspot island start " << island.start
                                           << " leaves no room for a read");
    const u64 hi_start =
        std::min<u64>(island.start + island.length - 1, max_start);
    for (u64 i = 0; i < n_extra; ++i) {
      const u64 start = island.start + rng.uniform(hi_start - island.start + 1);
      const Strand strand =
          rng.bernoulli(0.5) ? Strand::kForward : Strand::kReverse;
      const int hap = rng.bernoulli(0.5) ? 1 : 0;
      plans.push_back({start, strand, hap, 'a', next_fragment++});
    }
  }

  std::sort(plans.begin(), plans.end(),
            [](const ReadPlan& a, const ReadPlan& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.fragment != b.fragment) return a.fragment < b.fragment;
              return a.tag < b.tag;
            });

  std::vector<AlignmentRecord> records;
  records.reserve(plans.size());

  for (u64 i = 0; i < plans.size(); ++i) {
    const ReadPlan& plan = plans[i];
    const u64 start = plan.start;
    const Strand strand = plan.strand;
    const int hap = plan.hap;

    const std::vector<u8> quals = qmodel.sample(spec.read_len, rng);

    // Bases on the forward reference strand covered by this read, with
    // sequencing errors applied per-cycle.
    std::string fwd_bases(spec.read_len, 'N');
    for (u32 j = 0; j < spec.read_len; ++j) {
      const u64 pos = start + j;
      u8 b = individual.haplotype_base(pos, hap);
      if (b >= kNumBases) {
        // 'N' gap in the reference: a real sequencer still emits a base.
        b = static_cast<u8>(rng.uniform(4));
      }
      // The sequencing cycle for this reference offset depends on strand.
      const u32 cycle =
          strand == Strand::kForward ? j : (spec.read_len - 1 - j);
      const double p_err =
          std::min(1.0, phred_to_error(quals[cycle]) * spec.error_scale);
      if (rng.bernoulli(p_err)) b = misread(b, rng);
      fwd_bases[j] = char_from_base(b);
    }

    AlignmentRecord rec;
    {
      std::ostringstream id;
      id << (spec.paired_end ? "frag_" : "read_") << plan.fragment;
      rec.read_id = id.str();
    }
    rec.length = static_cast<u16>(spec.read_len);
    rec.strand = strand;
    rec.chr_name = ref.name();
    rec.pos = start;
    rec.pair_tag = plan.tag;
    rec.hit_count =
        rng.bernoulli(spec.multi_hit_rate)
            ? static_cast<u32>(2 + rng.uniform(4))
            : 1;

    // Store seq/qual on the read's own strand, as aligners report them.
    rec.seq.resize(spec.read_len);
    rec.qual.resize(spec.read_len);
    for (u32 j = 0; j < spec.read_len; ++j) {
      const u8 fwd = base_from_char(fwd_bases[j]);
      if (strand == Strand::kForward) {
        rec.seq[j] = char_from_base(fwd);
        rec.qual[j] = quality_to_char(quals[j]);
      } else {
        // Read cycle c covers reference offset (len-1-c), complemented.
        const u32 c = spec.read_len - 1 - j;
        rec.seq[c] = char_from_base(complement(fwd));
        rec.qual[c] = quality_to_char(quals[c]);
      }
    }
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace gsnp::reads
