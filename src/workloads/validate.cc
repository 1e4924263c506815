#include "workloads/validate.h"

#include <optional>

#include "common/io.h"
#include "core/occupancy.h"
#include "gpu/simulator.h"
#include "workloads/format/gkd.h"

namespace grs::workloads {

namespace {

std::string at(const std::string& file, int line, const std::string& msg) {
  return file + ":" + std::to_string(line) + ": " + msg;
}

/// The header field that declares the demand a refused limit concerns.
const char* header_field(Resource limit) {
  switch (limit) {
    case Resource::kRegisters: return "regs";
    case Resource::kScratchpad: return "smem";
    case Resource::kThreads: return "threads";
    case Resource::kBlocks: break;  // the config admits no block of any kernel
  }
  return "kernel";
}

}  // namespace

std::vector<std::string> lint_gkd(const std::string& text, const std::string& filename,
                                  const GpuConfig& cfg) {
  std::vector<std::string> out;

  KernelInfo k;
  gkd::SourceLines lines;
  try {
    k = gkd::parse(text, filename, &lines);
  } catch (const gkd::ParseError& e) {
    out.push_back(e.what());  // already "file:line:col: message"
    return out;
  }
  const auto header = [&lines](const char* key) {
    const auto it = lines.header.find(key);
    return it == lines.header.end() ? 1 : it->second;
  };

  // --- what simulate() refuses: one diagnostic per limit and per load -----
  for (const Refusal& r : refusals(cfg, k)) {
    out.push_back(at(filename,
                     r.instruction ? lines.instructions[*r.instruction]
                                   : header(header_field(*r.limit)),
                     r.reason));
  }
  if (!out.empty()) return out;  // the occupancy math below needs a runnable kernel

  // --- occupancy / sharing t-range ----------------------------------------
  const Occupancy occ = compute_occupancy(cfg, k.resources);
  if (k.grid_blocks < cfg.num_sms) {
    out.push_back(at(filename, header("grid"),
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
      out.push_back(at(filename, header(cfg.sharing.resource == Resource::kScratchpad
                                            ? "smem"
                                            : "regs"),
                       std::string("sharing ") + to_string(cfg.sharing.resource) +
                           " at t=" + std::to_string(t) +
                           " launches no extra blocks for this kernel (limiter: " +
                           to_string(occ.limiter) + ")"));
    }
  }

  // --- profile-histogram sanity -------------------------------------------
  std::size_t index = 0;
  for (const Segment& s : k.program.segments()) {
    for (const Instruction& i : s.instrs) {
      const int line = lines.instructions[index++];
      if (!i.profile) continue;
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
