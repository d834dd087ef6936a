#include "src/genome/dbsnp.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "src/common/error.hpp"
#include "src/common/strings.hpp"

namespace gsnp::genome {

DbSnpTable::DbSnpTable(std::string seq_name, std::vector<KnownSnpEntry> entries)
    : seq_name_(std::move(seq_name)), entries_(std::move(entries)) {
  GSNP_CHECK_MSG(std::is_sorted(entries_.begin(), entries_.end(),
                                [](const auto& a, const auto& b) {
                                  return a.pos < b.pos;
                                }),
                 "dbSNP entries must be sorted by position");
}

const KnownSnpEntry* DbSnpTable::find(u64 pos) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), pos,
      [](const KnownSnpEntry& e, u64 p) { return e.pos < p; });
  return (it != entries_.end() && it->pos == pos) ? &*it : nullptr;
}

DbSnpTable make_dbsnp(const Reference& ref,
                      const std::vector<PlantedSnp>& snps,
                      double decoy_rate, u64 seed) {
  Rng rng(seed);
  std::vector<KnownSnpEntry> entries;

  // Real planted SNPs flagged as known: frequency mass split between the
  // reference allele and the alternate allele(s).
  for (const auto& snp : snps) {
    if (!snp.in_dbsnp) continue;
    KnownSnpEntry e;
    e.pos = snp.pos;
    const u8 alt = snp.genotype.allele1 == snp.ref_base ? snp.genotype.allele2
                                                        : snp.genotype.allele1;
    const double alt_freq = 0.05 + 0.45 * rng.uniform_double();
    e.freq[snp.ref_base] = 1.0 - alt_freq;
    e.freq[alt] += alt_freq;
    e.validated = rng.bernoulli(0.7);
    entries.push_back(e);
  }

  // Decoy sites: known population polymorphisms this individual doesn't carry.
  const u64 n_decoys = static_cast<u64>(decoy_rate * ref.size());
  for (u64 i = 0; i < n_decoys; ++i) {
    const u64 pos = rng.uniform(ref.size());
    const u8 rb = ref.base(pos);
    if (rb >= kNumBases) continue;
    KnownSnpEntry e;
    e.pos = pos;
    const u8 alt = draw_alt_allele(rb, 2.0, rng);
    const double alt_freq = 0.01 + 0.2 * rng.uniform_double();
    e.freq[rb] = 1.0 - alt_freq;
    e.freq[alt] += alt_freq;
    e.validated = rng.bernoulli(0.5);
    entries.push_back(e);
  }

  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.pos < b.pos; });
  // Deduplicate colliding positions (keep the first, i.e. prefer real SNPs
  // which were inserted before decoys at equal positions after stable sort).
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.pos == b.pos;
                            }),
                entries.end());
  return DbSnpTable(ref.name(), std::move(entries));
}

void write_dbsnp(std::ostream& out, const DbSnpTable& table) {
  out << "# seq pos freqA freqC freqG freqT validated\n";
  for (const auto& e : table.entries()) {
    out << table.seq_name() << '\t' << e.pos;
    for (const double f : e.freq) out << '\t' << f;
    out << '\t' << (e.validated ? 1 : 0) << '\n';
  }
}

void write_dbsnp_file(const std::filesystem::path& path,
                      const DbSnpTable& table) {
  std::ofstream out(path);
  GSNP_CHECK_MSG(out.good(), "cannot open dbSNP file for write " << path);
  write_dbsnp(out, table);
}

namespace {

KnownSnpEntry parse_dbsnp_line(std::string_view body, const ParseContext& ctx,
                               std::string& seq_name) {
  const auto fields = split(body, '\t');
  if (fields.size() != 7)
    ctx.fail("record", IngestReason::kTruncatedRecord,
             "expected 7 tab-separated fields, got " +
                 std::to_string(fields.size()));
  if (seq_name.empty()) seq_name = std::string(fields[0]);
  if (fields[0] != seq_name)
    ctx.fail("seq name", IngestReason::kBadField,
             "file mixes sequences '" + seq_name + "' and '" +
                 std::string(fields[0]) + "'");
  KnownSnpEntry e;
  e.pos = parse_int_ctx<u64>(fields[1], ctx, "dbSNP pos");
  if (e.pos > kMaxIngestPosition)
    ctx.fail("dbSNP pos", IngestReason::kPositionOutOfRange,
             "position " + std::string(fields[1]) + " is absurd");
  if (ctx.reference_length > 0 && e.pos >= ctx.reference_length)
    ctx.fail("dbSNP pos", IngestReason::kPositionOutOfRange,
             "position " + std::to_string(e.pos) +
                 " beyond the reference end (" +
                 std::to_string(ctx.reference_length) + ")");
  for (int b = 0; b < kNumBases; ++b) {
    double f = 0.0;
    if (!try_parse_double(fields[static_cast<std::size_t>(2 + b)], f))
      ctx.fail("dbSNP freq", IngestReason::kBadField,
               "'" + std::string(fields[static_cast<std::size_t>(2 + b)]) +
                   "' is not a finite number");
    if (f < 0.0 || f > 1.0)
      ctx.fail("dbSNP freq", IngestReason::kBadField,
               "allele frequency " + std::to_string(f) +
                   " outside [0, 1]");
    e.freq[static_cast<std::size_t>(b)] = f;
  }
  e.validated = parse_int_ctx<int>(fields[6], ctx, "dbSNP validated") != 0;
  return e;
}

}  // namespace

DbSnpTable read_dbsnp(std::istream& in, const std::string& label,
                      const IngestPolicy& policy, IngestStats* stats_out,
                      u64 reference_length) {
  std::string seq_name;
  std::vector<KnownSnpEntry> entries;
  std::string line;
  ParseContext ctx;
  ctx.file = label;
  ctx.reference_length = reference_length;
  IngestStats stats;
  QuarantineWriter quarantine(policy.quarantine_file);
  while (std::getline(in, line)) {
    ++ctx.line_no;
    try {
      ctx.check_line_length(line);
      const auto body = trim(line);
      if (body.empty() || body.front() == '#') continue;
      KnownSnpEntry e = parse_dbsnp_line(body, ctx, seq_name);
      if (!entries.empty() && e.pos <= entries.back().pos)
        ctx.fail("dbSNP pos", IngestReason::kSortOrderViolation,
                 "position " + std::to_string(e.pos) +
                     " after position " + std::to_string(entries.back().pos) +
                     " — entries must be strictly increasing");
      entries.push_back(e);
      ++stats.records_ok;
    } catch (const ParseError& err) {
      if (!policy.lenient()) throw;
      quarantine_record(policy, stats, &quarantine, err, line);
    }
  }
  if (stats_out) *stats_out = stats;
  return DbSnpTable(std::move(seq_name), std::move(entries));
}

DbSnpTable read_dbsnp_file(const std::filesystem::path& path,
                           const IngestPolicy& policy, IngestStats* stats_out,
                           u64 reference_length) {
  std::ifstream in(path);
  GSNP_CHECK_MSG(in.good(), "cannot open dbSNP file " << path);
  return read_dbsnp(in, path.string(), policy, stats_out, reference_length);
}

}  // namespace gsnp::genome
