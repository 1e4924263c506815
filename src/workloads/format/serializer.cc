// Canonical .gkd emission. The loader (loader.cc) is the exact inverse on
// this output, which is what makes round-trips byte-identical.
#include <string>

#include "common/format.h"
#include "workloads/format/gkd.h"

namespace grs::workloads::gkd {

namespace {

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

void append_reg(std::string& out, RegNum r) {
  if (r == kNoReg) {
    out += '-';
    return;
  }
  out += "$r";
  append_u64(out, r);
}

/// `is_reuse` maps the kColdReuse sentinel to "cold"; stride histograms keep
/// plain -1 (a backwards unit stride).
void append_buckets(std::string& out, const std::vector<ProfileBucket>& h, bool is_reuse) {
  for (const ProfileBucket& b : h) {
    out += ' ';
    if (is_reuse && b.value == MemProfile::kColdReuse) {
      out += "cold";
    } else {
      append_i64(out, b.value);
    }
    out += ':';
    append_u64(out, b.weight);
  }
}

/// The `profile { ... }` block trailing a global-memory instruction line.
/// Field order and bucket order (canonical: sorted by value) are fixed so
/// serialize -> parse -> serialize stays byte-identical.
void append_profile_block(std::string& out, const MemProfile& p) {
  out += " profile {\n    coalesce";
  append_buckets(out, p.coalesce, false);
  out += "\n    stride";
  append_buckets(out, p.stride, false);
  out += "\n    reuse";
  append_buckets(out, p.reuse, true);
  out += "\n    footprint ";
  append_u64(out, p.footprint_lines);
  out += "\n  }";
}

void append_instr(std::string& out, const Instruction& i) {
  out += to_string(i.op);
  switch (i.op) {
    case Op::kAlu:
    case Op::kSfu: {
      // Print operands up to the last used slot; '-' fills interior holes.
      int last = -1;
      const RegNum ops[3] = {i.dst, i.src0, i.src1};
      for (int k = 0; k < 3; ++k) {
        if (ops[k] != kNoReg) last = k;
      }
      for (int k = 0; k <= last; ++k) {
        out += k == 0 ? " " : ", ";
        append_reg(out, ops[k]);
      }
      return;
    }
    case Op::kLdGlobal:
    case Op::kStGlobal:
      out += ' ';
      append_reg(out, i.op == Op::kLdGlobal ? i.dst : i.src0);
      out += ", ";
      out += to_string(i.pattern);
      out += ' ';
      out += to_string(i.locality);
      out += " region=";
      append_u64(out, i.region);
      out += " lines=";
      append_u64(out, i.footprint_lines);
      if (i.op == Op::kLdGlobal && i.src0 != kNoReg) {
        out += " addr=";
        append_reg(out, i.src0);
      }
      if (i.profile) append_profile_block(out, *i.profile);
      return;
    case Op::kLdShared:
    case Op::kStShared:
      out += ' ';
      append_reg(out, i.op == Op::kLdShared ? i.dst : i.src0);
      out += ", smem[";
      append_u64(out, i.smem_offset);
      out += ']';
      return;
    case Op::kBarrier:
    case Op::kExit:
      return;
  }
}

}  // namespace

std::string serialize(const KernelInfo& k) {
  std::string out;
  serialize(k, out);
  return out;
}

void serialize(const KernelInfo& k, std::string& out) {
  out += "gkd 1\nkernel ";
  append_quoted(out, k.name);
  out += "\nsuite ";
  append_quoted(out, k.suite);
  out += "\nset ";
  append_quoted(out, k.set);
  out += "\nthreads ";
  append_u64(out, k.resources.threads_per_block);
  out += "\nregs ";
  append_u64(out, k.resources.regs_per_thread);
  out += "\nsmem ";
  append_u64(out, k.resources.smem_per_block);
  out += "\ngrid ";
  append_u64(out, k.grid_blocks);
  out += "\nlanes ";
  append_u64(out, k.active_lanes);
  out += '\n';
  for (const Segment& s : k.program.segments()) {
    out += "\nsegment x";
    append_u64(out, s.iterations);
    out += " {\n";
    for (const Instruction& i : s.instrs) {
      out += "  ";
      append_instr(out, i);
      out += '\n';
    }
    out += "}\n";
  }
}

}  // namespace grs::workloads::gkd
