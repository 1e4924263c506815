// Tiny file I/O helpers shared by every loader and writer.
#pragma once

#include <fstream>
#include <optional>
#include <sstream>
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

/// Replace the contents of `path` with `body`: open it (creating it when
/// missing), overwrite it from offset 0, then cut a regular file to
/// body.size(); a device or pipe is only written. An existing file is never
/// truncated to zero first: ext4 answers a truncate-then-rewrite by starting
/// writeback at close() (its auto_da_alloc heuristic), which made rewriting
/// a 3.4 KB study report cost 56-117 us against 4-5 us in place (a shared
/// 4-vCPU VM). The trade-off: a crash mid-write leaves the new bytes
/// followed by the tail of the old contents, where a truncating writer
/// would leave a short file. Writers that must never be seen half done
/// (cache entries) write a temporary file and rename it instead.
/// Throws std::runtime_error naming the path when the file cannot be opened
/// or fully written.
void write_file(const std::string& path, const std::string& body);

}  // namespace grs
