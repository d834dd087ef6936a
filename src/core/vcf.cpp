#include "src/core/vcf.hpp"

#include <fstream>
#include <sstream>

#include "src/common/error.hpp"

namespace gsnp::core {

void write_vcf_header(std::ostream& out, const std::string& seq_name,
                      u64 seq_length, const VcfOptions& options) {
  out << "##fileformat=VCFv4.2\n"
      << "##source=gsnp\n"
      << "##contig=<ID=" << seq_name << ",length=" << seq_length << ">\n"
      << "##INFO=<ID=DP,Number=1,Type=Integer,Description=\"Sequencing "
         "depth\">\n"
      << "##INFO=<ID=RSP,Number=1,Type=Float,Description=\"Rank-sum test "
         "p-value between best and second-best base qualities\">\n"
      << "##INFO=<ID=CN,Number=1,Type=Float,Description=\"Average copy "
         "number of covering reads\">\n"
      << "##INFO=<ID=DB,Number=0,Type=Flag,Description=\"Site present in "
         "the known-SNP prior table\">\n"
      << "##FORMAT=<ID=GT,Number=1,Type=String,Description=\"Genotype\">\n"
      << "##FORMAT=<ID=GQ,Number=1,Type=Integer,Description=\"Consensus "
         "quality\">\n"
      << "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tSAMPLE\n";
}

std::string format_vcf_line(const std::string& seq_name, const SnpRow& row,
                            const VcfOptions& options) {
  if (row.genotype_rank < 0 || row.ref_base >= kNumBases) return {};
  if (row.quality < static_cast<u16>(options.min_quality)) return {};

  const Genotype g = genotype_from_rank(row.genotype_rank);
  const bool is_ref = g.allele1 == row.ref_base && g.allele2 == row.ref_base;
  if (is_ref && !options.include_ref_sites) return {};

  // ALT alleles: the genotype's non-reference alleles, deduplicated.
  std::string alt;
  int alt1 = 0, alt2 = 0;  // GT indices (0 = REF)
  const auto alt_index = [&](u8 allele) {
    if (allele == row.ref_base) return 0;
    const char c = char_from_base(allele);
    const auto at = alt.find(c);
    if (at != std::string::npos) return static_cast<int>(at / 2) + 1;
    if (!alt.empty()) alt += ',';
    alt += c;
    return static_cast<int>((alt.size() - 1) / 2) + 1;
  };
  alt1 = alt_index(g.allele1);
  alt2 = alt_index(g.allele2);
  if (alt.empty()) alt = ".";

  std::ostringstream os;
  os << seq_name << '\t' << (row.pos + 1) << "\t.\t"
     << char_from_base(row.ref_base) << '\t' << alt << '\t' << row.quality
     << "\tPASS\tDP=" << row.depth;
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ";RSP=%.4f;CN=%.2f", row.rank_sum_p,
                  row.copy_number);
    os << buf;
  }
  if (row.in_dbsnp) os << ";DB";
  os << "\tGT:GQ\t" << std::min(alt1, alt2) << '/' << std::max(alt1, alt2)
     << ':' << row.quality;
  return os.str();
}

u64 write_vcf_file(const std::filesystem::path& path,
                   const std::string& seq_name, u64 seq_length,
                   std::span<const SnpRow> rows, const VcfOptions& options) {
  std::ofstream out(path);
  GSNP_CHECK_MSG(out.good(), "cannot open VCF file for write " << path);
  write_vcf_header(out, seq_name, seq_length, options);
  u64 written = 0;
  for (const SnpRow& row : rows) {
    const std::string line = format_vcf_line(seq_name, row, options);
    if (line.empty()) continue;
    out << line << '\n';
    ++written;
  }
  GSNP_CHECK_MSG(out.good(), "VCF write failed");
  return written;
}

}  // namespace gsnp::core
