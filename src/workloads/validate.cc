#include "workloads/validate.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "common/io.h"
#include "core/occupancy.h"
#include "workloads/format/gkd.h"

namespace grs::workloads {

namespace {

/// 1-based line numbers of interesting constructs, recovered by a raw text
/// scan so semantic diagnostics can point at their source. The parser has
/// already accepted the document when this runs, so a lexical scan agrees
/// with it on what is where.
struct LineIndex {
  int header(const std::string& key) const {
    const auto it = header_lines.find(key);
    return it == header_lines.end() ? 1 : it->second;
  }
  std::map<std::string, int> header_lines;
  /// Lines of global-memory instructions carrying a `profile` block, in
  /// program order (matches the order of profiled instructions in the
  /// parsed Program).
  std::vector<int> profile_lines;
  /// Lines of global loads, in program order.
  std::vector<int> load_lines;
};

LineIndex index_lines(const std::string& text) {
  LineIndex idx;
  std::istringstream in(text);
  std::string raw;
  int number = 0;
  while (std::getline(in, raw)) {
    ++number;
    std::size_t start = raw.find_first_not_of(" \t");
    if (start == std::string::npos || raw[start] == '#') continue;
    const std::size_t end = raw.find_first_of(" \t", start);
    const std::string word = raw.substr(start, end == std::string::npos ? std::string::npos
                                                                        : end - start);
    for (const char* key : {"threads", "regs", "smem", "grid", "lanes", "kernel"}) {
      if (word == key && idx.header_lines.find(key) == idx.header_lines.end()) {
        idx.header_lines[key] = number;
      }
    }
    if (word == "ld.global") idx.load_lines.push_back(number);
    if ((word == "ld.global" || word == "st.global")) {
      const std::size_t hash = raw.find('#');
      const std::string code = hash == std::string::npos ? raw : raw.substr(0, hash);
      // Whitespace-preceded "profile" token; the loader accepts tabs too.
      for (std::size_t p = code.find("profile"); p != std::string::npos;
           p = code.find("profile", p + 1)) {
        if (p > 0 && (code[p - 1] == ' ' || code[p - 1] == '\t')) {
          idx.profile_lines.push_back(number);
          break;
        }
      }
    }
  }
  return idx;
}

std::string at(const std::string& file, int line, const std::string& msg) {
  return file + ":" + std::to_string(line) + ": " + msg;
}

}  // namespace

std::vector<std::string> lint_gkd(const std::string& text, const std::string& filename,
                                  const GpuConfig& cfg) {
  std::vector<std::string> out;

  KernelInfo k;
  try {
    k = gkd::parse(text, filename);
  } catch (const gkd::ParseError& e) {
    out.push_back(e.what());  // already "file:line:col: message"
    return out;
  }
  const LineIndex idx = index_lines(text);

  // --- SM fit -------------------------------------------------------------
  const KernelResources& res = k.resources;
  if (res.threads_per_block > cfg.max_threads_per_sm) {
    out.push_back(at(filename, idx.header("threads"),
                     "block size " + std::to_string(res.threads_per_block) +
                         " exceeds the SM's " + std::to_string(cfg.max_threads_per_sm) +
                         "-thread limit"));
  }
  if (res.warps_per_block(cfg.warp_size) > cfg.max_warps_per_sm()) {
    out.push_back(at(filename, idx.header("threads"),
                     "block needs " + std::to_string(res.warps_per_block(cfg.warp_size)) +
                         " warps but the SM hosts at most " +
                         std::to_string(cfg.max_warps_per_sm())));
  }
  if (res.regs_per_block() > cfg.registers_per_sm) {
    out.push_back(at(filename, idx.header("regs"),
                     "block needs " + std::to_string(res.regs_per_block()) +
                         " registers but the SM has " +
                         std::to_string(cfg.registers_per_sm)));
  }
  if (res.smem_per_block > cfg.scratchpad_per_sm) {
    out.push_back(at(filename, idx.header("smem"),
                     "block needs " + std::to_string(res.smem_per_block) +
                         " scratchpad bytes but the SM has " +
                         std::to_string(cfg.scratchpad_per_sm)));
  }
  if (!out.empty()) return out;  // occupancy math below assumes a fitting kernel

  // --- occupancy / sharing t-range ----------------------------------------
  const Occupancy occ = compute_occupancy(cfg, res);
  if (k.grid_blocks < cfg.num_sms) {
    out.push_back(at(filename, idx.header("grid"),
                     "grid of " + std::to_string(k.grid_blocks) + " blocks leaves " +
                         std::to_string(cfg.num_sms - k.grid_blocks) + " of " +
                         std::to_string(cfg.num_sms) + " SMs idle"));
  }
  if (cfg.sharing.enabled) {
    const double t = cfg.sharing.threshold_t;
    if (!(t >= 0.001 && t <= 1.0)) {
      out.push_back(at(filename, 1,
                       "sharing threshold t=" + std::to_string(t) + " outside [0.001, 1]"));
    } else if (!occ.sharing_active) {
      out.push_back(at(filename, idx.header(cfg.sharing.resource == Resource::kScratchpad
                                                ? "smem"
                                                : "regs"),
                       std::string("sharing ") + to_string(cfg.sharing.resource) +
                           " at t=" + std::to_string(t) +
                           " launches no extra blocks for this kernel (limiter: " +
                           to_string(occ.limiter) + ")"));
    }
  }

  // --- loads that can never fit the L1 MSHR ---------------------------------
  // simulate() refuses these: the SM holds a load until all its transactions
  // fit in the MSHR at once.
  std::size_t loads = 0;
  for (const Segment& s : k.program.segments()) {
    for (const Instruction& i : s.instrs) {
      if (i.op != Op::kLdGlobal) continue;
      const int line = loads < idx.load_lines.size() ? idx.load_lines[loads] : 1;
      ++loads;
      if (i.max_transactions() > cfg.l1.mshr_entries) {
        out.push_back(at(filename, line,
                         "global load of " + std::to_string(i.max_transactions()) +
                             " transactions can never fit l1.mshr_entries " +
                             std::to_string(cfg.l1.mshr_entries)));
      }
    }
  }

  // --- profile-histogram sanity -------------------------------------------
  std::size_t profiled = 0;
  for (const Segment& s : k.program.segments()) {
    for (const Instruction& i : s.instrs) {
      if (!i.profile) continue;
      const int line = profiled < idx.profile_lines.size()
                           ? idx.profile_lines[profiled]
                           : 1;
      ++profiled;
      const MemProfile& p = *i.profile;
      for (const ProfileBucket& b : p.coalesce) {
        if (static_cast<std::uint64_t>(b.value) > k.active_lanes) {
          out.push_back(at(filename, line,
                           "coalesce degree " + std::to_string(b.value) +
                               " exceeds the kernel's " + std::to_string(k.active_lanes) +
                               " active lanes"));
        }
      }
      for (const ProfileBucket& b : p.stride) {
        const std::uint64_t mag = b.value < 0 ? static_cast<std::uint64_t>(-b.value)
                                              : static_cast<std::uint64_t>(b.value);
        if (mag >= p.footprint_lines && p.footprint_lines > 1) {
          out.push_back(at(filename, line,
                           "stride " + std::to_string(b.value) +
                               " never lands twice inside the " +
                               std::to_string(p.footprint_lines) + "-line footprint"));
        }
      }
      for (const ProfileBucket& b : p.reuse) {
        if (b.value != MemProfile::kColdReuse &&
            static_cast<std::uint64_t>(b.value) > (1ull << 32)) {
          out.push_back(at(filename, line,
                           "reuse distance " + std::to_string(b.value) +
                               " is implausibly large (> 2^32 accesses)"));
        }
      }
    }
  }
  return out;
}

std::vector<std::string> lint_gkd_file(const std::string& path, const GpuConfig& cfg) {
  const std::optional<std::string> text = read_file(path);
  if (!text.has_value()) return {path + ":1: cannot open file"};
  return lint_gkd(*text, path, cfg);
}

}  // namespace grs::workloads
