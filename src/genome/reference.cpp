#include "src/genome/reference.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/common/error.hpp"
#include "src/common/fs_fault.hpp"
#include "src/common/ingest.hpp"
#include "src/common/strings.hpp"

namespace gsnp::genome {

/// Memory-DoS guard for single-line FASTA (a whole human chromosome on one
/// line is ~250 MB; 1 GiB leaves headroom without letting a corrupt stream
/// buffer unbounded bytes).
inline constexpr u64 kMaxFastaLineBytes = u64{1} << 30;

std::string Reference::substring(u64 pos, u64 len) const {
  GSNP_CHECK_MSG(pos + len <= size(), "substring out of range");
  std::string s;
  s.reserve(len);
  for (u64 i = 0; i < len; ++i) s.push_back(char_from_base(bases_[pos + i]));
  return s;
}

std::vector<Reference> read_fasta(std::istream& in, const std::string& label) {
  std::vector<Reference> refs;
  std::string name;
  std::vector<u8> bases;
  bool have_seq = false;
  ParseContext ctx;
  ctx.file = label;

  const auto flush = [&] {
    if (have_seq) refs.emplace_back(std::move(name), std::move(bases));
    name.clear();
    bases.clear();
  };

  std::string line;
  while (std::getline(in, line)) {
    ++ctx.line_no;
    // Single-line FASTA puts a whole sequence on one line, so the cap here
    // is a memory-DoS guard, not a format limit.
    if (line.size() > kMaxFastaLineBytes)
      ctx.fail("line", IngestReason::kLineTooLong,
               std::to_string(line.size()) + " bytes in one FASTA line");
    const std::string_view body = trim(line);
    if (body.empty()) continue;
    if (body.front() == '>') {
      flush();
      // Header: sequence name is the first whitespace-delimited token.
      const auto rest = trim(body.substr(1));
      const auto space = rest.find(' ');
      name = std::string(space == std::string_view::npos ? rest
                                                         : rest.substr(0, space));
      have_seq = true;
      if (name.empty())
        ctx.fail("header", IngestReason::kBadHeader,
                 "FASTA header without a name");
    } else {
      if (!have_seq)
        ctx.fail("sequence", IngestReason::kBadHeader,
                 "FASTA data before the first '>' header");
      for (const char c : body) {
        // Letters only: known bases get their 2-bit code, IUPAC ambiguity
        // codes are stored as 'N'; anything else is file corruption.
        if (!((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')))
          ctx.fail("sequence", IngestReason::kBadField,
                   "non-base character " + hex_byte(c));
        bases.push_back(base_from_char(c));
      }
    }
  }
  flush();
  return refs;
}

std::vector<Reference> read_fasta_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  GSNP_CHECK_MSG(in.good(), "cannot open FASTA file " << path);
  return read_fasta(in, path.string());
}

void write_fasta(std::ostream& out, const Reference& ref, int line_width) {
  GSNP_CHECK(line_width > 0);
  out << '>' << ref.name() << '\n';
  const u64 n = ref.size();
  for (u64 i = 0; i < n; i += static_cast<u64>(line_width)) {
    const u64 len = std::min<u64>(line_width, n - i);
    out << ref.substring(i, len) << '\n';
  }
}

void write_fasta_file(const std::filesystem::path& path,
                      const std::vector<Reference>& refs, int line_width) {
  std::ofstream out(path);
  GSNP_CHECK_MSG(out.good(), "cannot open FASTA file for write " << path);
  std::ostringstream buf;
  for (const auto& ref : refs) write_fasta(buf, ref, line_width);
  fsfault::write(out, path, buf.str());
  out.flush();
  fsfault::check_stream(out, path, "flush");
}

}  // namespace gsnp::genome
