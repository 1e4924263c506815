// Tiny file I/O helpers shared by every loader and writer.
#pragma once

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace grs {

/// The whole of `path` as a string, or nullopt when it cannot be opened.
/// Callers own the error policy (throw, diagnostic, ...) — which is why this
/// does not throw itself.
[[nodiscard]] inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// Replace the contents of `path` with `body`. Throws std::runtime_error
/// naming the path when the file cannot be opened or fully written.
inline void write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open '" + path + "' for writing");
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  f.close();
  if (!f) throw std::runtime_error("failed writing '" + path + "'");
}

}  // namespace grs
