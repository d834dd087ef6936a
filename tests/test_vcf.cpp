// Tests for the VCF exporter.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/core/vcf.hpp"
#include "tests/temp_path.hpp"

namespace gsnp::core {
namespace {

namespace fs = std::filesystem;

SnpRow het_row() {
  SnpRow row;
  row.pos = 41;  // -> POS 42 in VCF
  row.ref_base = base_from_char('A');
  row.genotype_rank = static_cast<i8>(genotype_rank(0, 2));  // A/G
  row.quality = 57;
  row.depth = 14;
  row.rank_sum_p = 0.4321;
  row.copy_number = 1.05;
  row.in_dbsnp = true;
  return row;
}

TEST(Vcf, HeaderHasRequiredLines) {
  std::ostringstream os;
  write_vcf_header(os, "chrV", 1000, {});
  const std::string header = os.str();
  EXPECT_NE(header.find("##fileformat=VCFv4.2"), std::string::npos);
  EXPECT_NE(header.find("##contig=<ID=chrV,length=1000>"), std::string::npos);
  EXPECT_NE(header.find("#CHROM\tPOS\tID\tREF\tALT"), std::string::npos);
}

TEST(Vcf, HetLine) {
  const std::string line = format_vcf_line("chrV", het_row(), {});
  EXPECT_EQ(line, "chrV\t42\t.\tA\tG\t57\tPASS\t"
                  "DP=14;RSP=0.4321;CN=1.05;DB\tGT:GQ\t0/1:57");
}

TEST(Vcf, HomAltLine) {
  SnpRow row = het_row();
  row.genotype_rank = static_cast<i8>(genotype_rank(2, 2));  // GG
  row.in_dbsnp = false;
  const std::string line = format_vcf_line("chrV", row, {});
  EXPECT_NE(line.find("\tA\tG\t"), std::string::npos);
  EXPECT_NE(line.find("\t1/1:"), std::string::npos);
  EXPECT_EQ(line.find(";DB"), std::string::npos);
}

TEST(Vcf, DoubleNonRefHet) {
  SnpRow row = het_row();
  row.genotype_rank = static_cast<i8>(genotype_rank(1, 2));  // C/G, ref A
  const std::string line = format_vcf_line("chrV", row, {});
  EXPECT_NE(line.find("\tA\tC,G\t"), std::string::npos);
  EXPECT_NE(line.find("\t1/2:"), std::string::npos);
}

TEST(Vcf, HomRefFilteredByDefault) {
  SnpRow row = het_row();
  row.genotype_rank = static_cast<i8>(genotype_rank(0, 0));
  EXPECT_TRUE(format_vcf_line("chrV", row, {}).empty());
  VcfOptions all;
  all.include_ref_sites = true;
  const std::string line = format_vcf_line("chrV", row, all);
  EXPECT_NE(line.find("\t0/0:"), std::string::npos);
}

TEST(Vcf, QualityFilter) {
  VcfOptions options;
  options.min_quality = 60;
  EXPECT_TRUE(format_vcf_line("chrV", het_row(), options).empty());
  options.min_quality = 57;
  EXPECT_FALSE(format_vcf_line("chrV", het_row(), options).empty());
}

TEST(Vcf, UncallableSitesFiltered) {
  SnpRow row = het_row();
  row.genotype_rank = -1;
  EXPECT_TRUE(format_vcf_line("chrV", row, {}).empty());
  row = het_row();
  row.ref_base = kInvalidBase;
  EXPECT_TRUE(format_vcf_line("chrV", row, {}).empty());
}

TEST(Vcf, FileExportCountsVariants) {
  std::vector<SnpRow> rows;
  for (int i = 0; i < 10; ++i) {
    SnpRow row = het_row();
    row.pos = static_cast<u64>(i);
    if (i % 2 == 0) row.genotype_rank = static_cast<i8>(genotype_rank(0, 0));
    rows.push_back(row);
  }
  const fs::path path = test_temp_path("gsnp_test.vcf");
  const u64 n = write_vcf_file(path, "chrV", 10, rows);
  EXPECT_EQ(n, 5u);

  std::ifstream in(path);
  std::string line;
  u64 data_lines = 0;
  while (std::getline(in, line))
    if (!line.empty() && line[0] != '#') ++data_lines;
  EXPECT_EQ(data_lines, 5u);
  fs::remove(path);
}

}  // namespace
}  // namespace gsnp::core
