#include "common/json.h"

#include <cstdio>

namespace grs {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      char tmp[8];
      std::snprintf(tmp, sizeof tmp, "\\u%04x", static_cast<unsigned>(byte));
      out += tmp;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace grs
