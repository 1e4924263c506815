// JSON string literals for every artifact this project writes (traces,
// result sinks, run manifests): one escaper, so they agree.
#pragma once

#include <string>
#include <string_view>

namespace grs {

/// Append `s` to `out` as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, control characters (below 0x20) become `\u00XX`, and
/// every other byte passes through unchanged, so UTF-8 stays as it is.
void append_json_string(std::string& out, std::string_view s);

}  // namespace grs
