#pragma once
// Small string helpers for parsing the tab/space separated text formats
// (FASTA headers, SOAP alignment lines, dbSNP prior lines).

#include <array>
#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/error.hpp"

namespace gsnp {

/// Split `s` on a single separator character; empty fields are preserved.
inline std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// The first N `sep`-separated fields of `s`, the last of them ending at
/// the next separator, if any.  Returns how many fields `s` has, up to N.
template <std::size_t N>
std::size_t split_first(std::string_view s, char sep,
                        std::array<std::string_view, N>& fields) {
  std::size_t n = 0;
  for (std::size_t start = 0; n < N;) {
    const std::size_t at = s.find(sep, start);
    fields[n++] = s.substr(start, at == s.npos ? at : at - start);
    if (at == s.npos) break;
    start = at + 1;
  }
  return n;
}

/// "0x3d": a byte as two hex digits, for error messages.
inline std::string hex_byte(char c) {
  constexpr char kDigits[] = "0123456789abcdef";
  const auto b = static_cast<unsigned char>(c);
  return {'0', 'x', kDigits[b >> 4], kDigits[b & 15]};
}

/// Strip leading/trailing whitespace (space, tab, CR, LF).
inline std::string_view trim(std::string_view s) {
  const auto is_ws = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!s.empty() && is_ws(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_ws(s.back())) s.remove_suffix(1);
  return s;
}

/// Outcome of a non-throwing integer parse: overflow is distinguished from
/// garbage bytes so ingest can classify the two differently.
enum class IntParseStatus { kOk, kMalformed, kOverflow };

/// Parse an integral field without throwing.  The whole field must be
/// consumed; partial parses ("12x") are malformed.
template <typename Int>
IntParseStatus try_parse_int(std::string_view field, Int& value) {
  value = Int{};
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec == std::errc::result_out_of_range) return IntParseStatus::kOverflow;
  if (ec != std::errc() || ptr != field.data() + field.size())
    return IntParseStatus::kMalformed;
  return IntParseStatus::kOk;
}

/// Parse an integral field, throwing gsnp::Error on malformed input.
template <typename Int>
Int parse_int(std::string_view field, std::string_view what = "integer") {
  Int value{};
  GSNP_CHECK_MSG(try_parse_int(field, value) == IntParseStatus::kOk,
                 "bad " << what << ": '" << field << "'");
  return value;
}

/// Parse a floating-point field without throwing; rejects NaN/inf and
/// partial parses.
inline bool try_parse_double(std::string_view field, double& value) {
  value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  return ec == std::errc() && ptr == field.data() + field.size() &&
         std::isfinite(value);
}

/// Parse a floating-point field, throwing gsnp::Error on malformed input.
inline double parse_double(std::string_view field,
                           std::string_view what = "number") {
  // std::from_chars for double is available in libstdc++ 11+.
  double value{};
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  GSNP_CHECK_MSG(ec == std::errc() && ptr == field.data() + field.size(),
                 "bad " << what << ": '" << field << "'");
  return value;
}

}  // namespace gsnp
