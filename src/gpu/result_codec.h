// Self-describing SimResult codec: one canonical field enumeration shared by
// the content-addressed result cache (src/cache) and the CSV/JSON sinks
// (src/runner/sink.cc).
//
// result_fields() enumerates every statistic a SimResult carries — all of
// GpuStats, SmStats, and Occupancy, plus the derived rates (IPC, miss rates)
// — each with a stable name, display formatting, and raw accessors. The sink
// flat-row schema is the `flat`-flagged subset in enumeration order; the
// cache payload is the non-`derived` subset encoded exactly (integers in
// decimal, doubles as %.17g, which round-trips binary64 bit-for-bit).
//
// Adding a field to SmStats/GpuStats/Occupancy without extending the
// enumeration fails the coverage guards in tests/test_cache.cc, and any
// layout change must bump kResultCodecVersion so stale cache entries can
// never alias the new schema (they land under a different store directory —
// see src/cache/key.h).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/simulator.h"

namespace grs {

/// Bump whenever the encoded field set, order, spelling, or meaning changes.
inline constexpr int kResultCodecVersion = 1;

/// One enumerated statistic of a SimResult.
struct ResultField {
  const char* name;
  bool flat;        ///< appears in the runner CSV/JSON flat row schema
  bool fractional;  ///< %.6f in flat rows (else integer)
  bool derived;     ///< recomputed from other fields; excluded from encode()

  // Raw accessors; exactly one getter is non-null (get_u64 for integer
  // fields, get_f64 for fractional ones). Setters are null on derived fields.
  std::uint64_t (*get_u64)(const SimResult&);
  void (*set_u64)(SimResult&, std::uint64_t);
  double (*get_f64)(const SimResult&);
  void (*set_f64)(SimResult&, double);
};

/// The canonical enumeration, in stable order.
[[nodiscard]] const std::vector<ResultField>& result_fields();

/// `f`'s display spelling for flat rows: decimal for integers, %.6f for
/// fractional fields (byte-identical to the pre-codec sink formatting).
[[nodiscard]] std::string format_result_field(const ResultField& f, const SimResult& r);

/// Canonical exact text encoding of every non-derived field (versioned
/// header, one "name value" line per field, trailing "end" line). This is the
/// cache payload; equal encodings imply field-wise equal results.
[[nodiscard]] std::string encode_result(const SimResult& r);

/// Strict inverse of encode_result() for the stats/occupancy payload (the
/// config is not part of the payload — the cache key already pins it, and the
/// caller restores it). Returns false on any malformed, truncated,
/// reordered, or version-mismatched input without touching `out` partially
/// observable state the caller relies on (on false, `out` must be discarded).
/// Reads `text` in place: one pass, no per-line allocation.
[[nodiscard]] bool decode_result(std::string_view text, SimResult& out);

}  // namespace grs
