#include "workloads/trace/trace_reader.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace grs::workloads::trace {

namespace {

constexpr std::uint32_t kWarpSize = 32;

struct Cursor {
  const std::string& file;
  int line = 0;
};

[[noreturn]] void fail(const Cursor& c, const std::string& msg) {
  throw TraceError(c.file, c.line, msg);
}

std::string strip(const std::string& line) {
  std::string s = line;
  const std::size_t hash = s.find('#');
  if (hash != std::string::npos) s.erase(hash);
  while (!s.empty() && (s.back() == '\r' || s.back() == ' ' || s.back() == '\t')) s.pop_back();
  std::size_t start = 0;
  while (start < s.size() && (s[start] == ' ' || s[start] == '\t')) ++start;
  return s.substr(start);
}

std::uint64_t parse_u64_tok(const Cursor& c, const std::string& t, const char* what) {
  if (t.empty()) fail(c, std::string("empty ") + what + " field");
  std::uint64_t v = 0;
  if (t.size() > 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
    for (std::size_t i = 2; i < t.size(); ++i) {
      const char ch = t[i];
      std::uint64_t d;
      if (ch >= '0' && ch <= '9') d = static_cast<std::uint64_t>(ch - '0');
      else if (ch >= 'a' && ch <= 'f') d = static_cast<std::uint64_t>(ch - 'a') + 10;
      else if (ch >= 'A' && ch <= 'F') d = static_cast<std::uint64_t>(ch - 'A') + 10;
      else fail(c, std::string("bad hex digit in ") + what + " '" + t + "'");
      if (v > (UINT64_MAX - d) / 16) fail(c, std::string(what) + " is out of range");
      v = v * 16 + d;
    }
    return v;
  }
  for (const char ch : t) {
    if (ch < '0' || ch > '9') {
      fail(c, std::string("expected a number for ") + what + ", got '" + t + "'");
    }
    const auto d = static_cast<std::uint64_t>(ch - '0');
    if (v > (UINT64_MAX - d) / 10) fail(c, std::string(what) + " is out of range");
    v = v * 10 + d;
  }
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t next = s.find(sep, pos);
    const std::string piece =
        s.substr(pos, next == std::string::npos ? std::string::npos : next - pos);
    std::string trimmed;
    for (const char c : piece) {
      if (c != ' ' && c != '\t') trimmed += c;
    }
    out.push_back(trimmed);
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return out;
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

bool opcode_is_store(const Cursor& c, const std::string& op) {
  std::string lower;
  for (const char ch : op) lower += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  if (lower.find("st") == 0 || lower.find(".st") != std::string::npos || lower == "w") return true;
  if (lower.find("ld") == 0 || lower.find(".ld") != std::string::npos || lower == "r") return false;
  fail(c, "cannot classify opcode '" + op + "' as a load or store");
}

void parse_csv(const std::string& text, const std::string& filename, Trace& out) {
  Cursor c{filename, 0};
  std::istringstream in(text);
  std::string raw;
  // Lanes seen in the currently open warp access, to detect a new dynamic
  // instance when a lane repeats.
  std::vector<std::uint32_t> open_lanes;
  while (std::getline(in, raw)) {
    ++c.line;
    const std::string line = strip(raw);
    if (line.empty()) continue;
    const std::vector<std::string> f = split(line, ',');
    if (c.line == 1 || out.records == 0) {
      // Optional header row.
      if (!f.empty() && f[0] == "pc") continue;
    }
    if (f.size() != 4 && f.size() != 5) {
      fail(c, "expected pc,tid,addr,size[,r|w], got " + std::to_string(f.size()) + " fields");
    }
    const std::uint64_t pc = parse_u64_tok(c, f[0], "pc");
    const std::uint64_t tid = parse_u64_tok(c, f[1], "tid");
    if (tid > UINT32_MAX) fail(c, "tid is out of range");
    const Addr addr = parse_u64_tok(c, f[2], "addr");
    std::uint64_t size = parse_u64_tok(c, f[3], "size");
    if (size == 0) size = 4;
    if (size > 4096) fail(c, "size " + std::to_string(size) + " is implausibly large");
    bool is_store = false;
    if (f.size() == 5) is_store = opcode_is_store(c, f[4]);

    const auto warp = static_cast<std::uint32_t>(tid / kWarpSize);
    const auto lane = static_cast<std::uint32_t>(tid % kWarpSize);
    const bool same_instr = !out.accesses.empty() && out.accesses.back().pc == pc &&
                            out.accesses.back().warp_id == warp &&
                            out.accesses.back().is_store == is_store;
    const bool lane_repeats =
        same_instr &&
        std::find(open_lanes.begin(), open_lanes.end(), lane) != open_lanes.end();
    if (!same_instr || lane_repeats) {
      out.accesses.push_back(WarpAccess{pc, warp, is_store, {}});
      open_lanes.clear();
    }
    out.accesses.back().lanes.push_back(LaneAccess{addr, static_cast<std::uint32_t>(size)});
    open_lanes.push_back(lane);
    ++out.records;
    out.max_tid = std::max(out.max_tid, static_cast<std::uint32_t>(tid));
  }
}

void parse_memlog(const std::string& text, const std::string& filename, Trace& out) {
  Cursor c{filename, 0};
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++c.line;
    const std::string line = strip(raw);
    if (line.empty()) continue;
    const std::vector<std::string> f = split_ws(line);
    if (f.size() < 4) {
      fail(c, "expected '<pc> <warp> <opcode> <addr...>', got " + std::to_string(f.size()) +
                  " fields");
    }
    WarpAccess a;
    a.pc = parse_u64_tok(c, f[0], "pc");
    const std::uint64_t warp = parse_u64_tok(c, f[1], "warp id");
    if (warp > UINT32_MAX / kWarpSize) fail(c, "warp id is out of range");
    a.warp_id = static_cast<std::uint32_t>(warp);
    a.is_store = opcode_is_store(c, f[2]);
    for (std::size_t k = 3; k < f.size(); ++k) {
      a.lanes.push_back(LaneAccess{parse_u64_tok(c, f[k], "addr"), 4});
    }
    if (a.lanes.size() > kWarpSize) {
      fail(c, "warp access has " + std::to_string(a.lanes.size()) +
                  " lanes but the warp size is " + std::to_string(kWarpSize));
    }
    out.records += a.lanes.size();
    out.max_tid =
        std::max(out.max_tid, a.warp_id * kWarpSize +
                                  static_cast<std::uint32_t>(a.lanes.size()) - 1);
    out.accesses.push_back(std::move(a));
  }
}

}  // namespace

Trace parse_trace(const std::string& text, const std::string& filename) {
  Trace out;
  // Auto-detect: the generic format is comma-separated, the memory-log format
  // never contains a comma.
  bool csv = false;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    const std::string line = strip(raw);
    if (line.empty()) continue;
    csv = line.find(',') != std::string::npos;
    break;
  }
  if (csv) {
    parse_csv(text, filename, out);
  } else {
    parse_memlog(text, filename, out);
  }
  if (out.accesses.empty()) {
    throw TraceError(filename, 1, "trace contains no memory accesses");
  }
  return out;
}

}  // namespace grs::workloads::trace
