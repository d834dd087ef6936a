#pragma once
// VCF 4.2 export of SNP calls.
//
// The paper predates VCF's dominance (its output is the 17-column SOAPsnp
// table), but downstream tooling today consumes VCF; this exporter emits the
// variant sites (consensus genotype != homozygous reference) with genotype,
// consensus quality, depth and the rank-sum p as INFO/FORMAT fields.  It is
// an export, not a round-trip format — the compressed GSNP output remains
// the lossless record.

#include <filesystem>
#include <iosfwd>
#include <span>
#include <string>

#include "src/core/snp_row.hpp"

namespace gsnp::core {

struct VcfOptions {
  int min_quality = 0;        ///< emit only calls with consensus quality >= this
  bool include_ref_sites = false;  ///< also emit hom-ref sites (gVCF-style)
};

/// Write the VCF header (fileformat, INFO/FORMAT declarations, contig).
void write_vcf_header(std::ostream& out, const std::string& seq_name,
                      u64 seq_length, const VcfOptions& options);

/// Format one row as a VCF data line; returns empty when the row is filtered
/// (hom-ref without include_ref_sites, below min_quality, or uncallable).
std::string format_vcf_line(const std::string& seq_name, const SnpRow& row,
                            const VcfOptions& options);

/// Convert rows to a VCF file; returns the number of variant lines written.
u64 write_vcf_file(const std::filesystem::path& path,
                   const std::string& seq_name, u64 seq_length,
                   std::span<const SnpRow> rows, const VcfOptions& options = {});

}  // namespace gsnp::core
