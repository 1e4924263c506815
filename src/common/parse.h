// Strict, whole-string numeric parsing for CLI frontends.
//
// Unlike atoi/atof, these reject partial parses ("4x"), empty strings, and
// out-of-range values instead of silently reading 0 — callers turn
// std::nullopt into their own usage errors. The integer parsers accept only
// decimal digits (no signs or whitespace); the double parser accepts any
// finite strtod() spelling covering the whole string (signed, exponent or
// hex-float forms included) but no whitespace or NUL in it, rejecting NaN and
// infinities so callers' range checks behave as written.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace grs {

/// Non-negative decimal integer; the entire string must be digits.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

[[nodiscard]] inline std::optional<std::uint32_t> parse_u32(std::string_view s) {
  const std::optional<std::uint64_t> v = parse_u64(s);
  if (!v.has_value() || *v > UINT32_MAX) return std::nullopt;
  return static_cast<std::uint32_t>(*v);
}

/// Finite double spelled by the whole of `s` in any strtod() form, with no
/// leading whitespace and no NUL (NaN and inf are rejected, so a range check
/// like `*v >= lo && *v <= hi` behaves as written).
[[nodiscard]] inline std::optional<double> parse_finite_double(std::string_view s) {
  if (s.empty() || std::isspace(static_cast<unsigned char>(s.front())) != 0 ||
      s.find('\0') != std::string_view::npos)
    return std::nullopt;
  const std::string text(s);  // strtod reads up to a NUL
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) return std::nullopt;
  if (!(v == v) || v > 1e308 || v < -1e308) return std::nullopt;  // NaN / inf
  return v;
}

}  // namespace grs
