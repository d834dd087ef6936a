#include "src/core/consistency.hpp"

#include <sstream>

#include "src/compress/container.hpp"
#include "src/core/output_codec.hpp"

namespace gsnp::core {

ConsistencyReport compare_rows(const std::vector<SnpRow>& a,
                               const std::vector<SnpRow>& b) {
  ConsistencyReport report;
  if (a.size() != b.size()) {
    std::ostringstream os;
    os << "row count mismatch: " << a.size() << " vs " << b.size();
    report.detail = os.str();
    return report;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      report.first_mismatch_row = i;
      std::ostringstream os;
      os << "first mismatch at row " << i << ":\n  a: "
         << format_snp_row("?", a[i]) << "\n  b: " << format_snp_row("?", b[i]);
      report.detail = os.str();
      report.rows_compared = i;
      return report;
    }
  }
  report.identical = true;
  report.rows_compared = a.size();
  return report;
}

std::vector<SnpRow> read_snp_output(const std::filesystem::path& path,
                                    std::string& seq_name) {
  if (compress::has_magic(path, kOutputMagic))
    return read_snp_compressed_file(path, seq_name);
  return read_snp_text_file(path, seq_name);
}

ConsistencyReport compare_output_files(const std::filesystem::path& a,
                                       const std::filesystem::path& b) {
  std::string name_a, name_b;
  const std::vector<SnpRow> rows_a = read_snp_output(a, name_a);
  const std::vector<SnpRow> rows_b = read_snp_output(b, name_b);
  ConsistencyReport report = compare_rows(rows_a, rows_b);
  if (report.identical && name_a != name_b) {
    report.identical = false;
    report.detail = "sequence name mismatch: " + name_a + " vs " + name_b;
  }
  return report;
}

}  // namespace gsnp::core
