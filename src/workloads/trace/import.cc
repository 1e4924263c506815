#include "workloads/trace/import.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/io.h"
#include "workloads/trace/reduce.h"

namespace grs::workloads::trace {

namespace {

/// The imported kernel's block shape (import.h); grid and trip count derive
/// from the trace.
constexpr std::uint32_t kThreadsPerBlock = 256;
constexpr RegNum kRegsPerThread = 16;

/// Nearest classical pattern label for a measured coalescing histogram: the
/// dominant transactions-per-access bucket, rounded up to the enum menu.
MemPattern pattern_label(const MemProfile& p) {
  std::int64_t dominant = 1;
  std::uint64_t best = 0;
  for (const ProfileBucket& b : p.coalesce) {
    if (b.weight > best) {
      best = b.weight;
      dominant = b.value;
    }
  }
  if (dominant <= 1) return MemPattern::kCoalesced;
  if (dominant <= 2) return MemPattern::kStrided2;
  if (dominant <= 4) return MemPattern::kStrided4;
  if (dominant <= 8) return MemPattern::kScatter8;
  return MemPattern::kScatter32;
}

/// Nearest classical locality label: mostly-cold accesses stream; a compact
/// footprint with real reuse behaves warp-locally; a scattered stride menu
/// over a large footprint is effectively random; the rest reads like a
/// shared table.
Locality locality_label(const MemProfile& p) {
  std::uint64_t total = 0, cold = 0;
  for (const ProfileBucket& b : p.reuse) {
    total += b.weight;
    if (b.value == MemProfile::kColdReuse) cold += b.weight;
  }
  if (total == 0 || cold * 4 >= total * 3) return Locality::kStreaming;
  if (p.footprint_lines <= 4096) return Locality::kWarpLocal;
  std::uint64_t stride_total = 0, dominant_w = 0;
  for (const ProfileBucket& b : p.stride) {
    stride_total += b.weight;
    dominant_w = std::max(dominant_w, b.weight);
  }
  if (stride_total > 0 && dominant_w * 5 < stride_total * 2) return Locality::kRandom;
  return Locality::kGridShared;
}

std::string file_stem(const std::string& path) {
  if (path.empty() || path[0] == '<') return "trace";  // "<trace>" pseudo-names
  const std::size_t slash = path.find_last_of("/\\");
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem.erase(dot);
  return stem.empty() ? "trace" : stem;
}

}  // namespace

KernelInfo import_trace(const std::string& text, const std::string& filename) {
  const Trace trace = parse_trace(text, filename);
  const std::vector<InstrStats> instrs = reduce_trace(trace);

  // Loop trip count: mean dynamic accesses per (pc, warp) pair, so one
  // simulated warp issues about as many accesses per instruction as a trace
  // warp did.
  std::uint64_t total = 0, pairs = 0;
  for (const InstrStats& s : instrs) {
    total += s.instances;
    pairs += std::max<std::uint64_t>(s.warps, 1);
  }
  const auto iters = static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(pairs == 0 ? 1 : (total + pairs - 1) / pairs, 1, 256));

  const std::uint64_t threads_total = static_cast<std::uint64_t>(trace.max_tid) + 1;
  const auto grid = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
      (threads_total + kThreadsPerBlock - 1) / kThreadsPerBlock, 1, 1u << 20));

  // One loop segment walking the trace's instructions in pc order, ALU ops
  // threading a dependency through the register file between accesses.
  std::vector<Segment> segments;
  Segment body;
  body.iterations = iters;
  RegNum cursor = 0;
  auto next_reg = [&]() -> RegNum {
    const RegNum r = cursor;
    cursor = static_cast<RegNum>((cursor + 1) % kRegsPerThread);
    return r;
  };
  {
    Instruction seed;
    seed.op = Op::kAlu;
    seed.dst = next_reg();
    body.instrs.push_back(seed);
  }
  std::size_t idx = 0;
  for (const InstrStats& s : instrs) {
    Instruction m;
    m.op = s.is_store ? Op::kStGlobal : Op::kLdGlobal;
    m.pattern = pattern_label(s.profile);
    m.locality = locality_label(s.profile);
    m.region = static_cast<std::uint8_t>(1 + idx % 255);
    m.footprint_lines = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(s.profile.footprint_lines, UINT32_MAX));
    m.profile = std::make_shared<const MemProfile>(s.profile);
    const RegNum data = next_reg();
    if (s.is_store) {
      m.src0 = data;
    } else {
      m.dst = data;
    }
    body.instrs.push_back(m);

    Instruction mix;
    mix.op = Op::kAlu;
    mix.dst = next_reg();
    mix.src0 = data;
    body.instrs.push_back(mix);
    ++idx;
  }
  segments.push_back(std::move(body));

  Segment epilogue;
  epilogue.iterations = 1;
  Instruction exit;
  exit.op = Op::kExit;
  epilogue.instrs.push_back(exit);
  segments.push_back(std::move(epilogue));

  KernelInfo k;
  k.name = "trace-" + file_stem(filename);
  k.suite = "trace";
  k.set = "trace";
  k.resources = KernelResources{kThreadsPerBlock, kRegsPerThread, 0};
  k.grid_blocks = grid;
  k.active_lanes = 32;
  k.program = Program(std::move(segments), kRegsPerThread);
  k.validate();
  return k;
}

KernelInfo import_trace_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text.has_value()) throw std::runtime_error("cannot open " + path);
  return import_trace(*text, path);
}

}  // namespace grs::workloads::trace
