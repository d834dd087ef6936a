#pragma once
// SAM lines for tests that feed the same records as SOAP and as SAM.

#include <array>
#include <string>
#include <string_view>

#include "src/common/strings.hpp"
#include "src/reads/sam.hpp"

namespace gsnp {

/// `rec` as format_sam_record writes it, but with `left` and `right`
/// soft-clipped bases around the match run, and with QUAL `*` when
/// `no_qual` (for a record whose qualities are all '!').  The SAM readers
/// read the line back as `rec`.
inline std::string clipped_sam_line(const reads::AlignmentRecord& rec,
                                    u32 left, u32 right,
                                    bool no_qual = false) {
  const std::string line = reads::format_sam_record(rec);
  std::array<std::string_view, 11> f;
  split_first(line, '\t', f);
  std::string out;
  for (std::size_t i = 0; i < 5; ++i) out.append(f[i]) += '\t';
  if (left > 0) out += std::to_string(left) + 'S';
  out.append(f[5]);
  if (right > 0) out += std::to_string(right) + 'S';
  for (std::size_t i = 6; i < 9; ++i) out.append("\t").append(f[i]);
  out.append("\t").append(left, 'A').append(f[9]).append(right, 'C');
  out += '\t';
  if (no_qual)
    out += '*';
  else
    out.append(left, '#').append(f[10]).append(right, '#');
  return out.append(f[10].data() + f[10].size(), line.data() + line.size());
}

}  // namespace gsnp
