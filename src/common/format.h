// Number spellings appended in place, for the canonical texts that are hashed
// or stored (GpuConfig::canonical_kv, .gkd, result-cache payloads): one
// growing buffer, no std::to_string or snprintf string per number.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace grs {

/// Append `v` in decimal.
inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];  // UINT64_MAX has 20 digits
  char* p = buf + sizeof(buf);
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  out.append(p, buf + sizeof(buf));
}

/// Append `v` in decimal, '-' first when negative.
inline void append_i64(std::string& out, std::int64_t v) {
  if (v < 0) out += '-';
  // Negate in unsigned arithmetic, so INT64_MIN does not overflow.
  append_u64(out, v < 0 ? 0 - static_cast<std::uint64_t>(v) : static_cast<std::uint64_t>(v));
}

/// Append `v` as %.17g, which round-trips every IEEE-754 binary64 value
/// exactly and prints identically on every correctly-rounding libc.
inline void append_exact(std::string& out, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace grs
