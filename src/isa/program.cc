#include "isa/program.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace grs {

Program::Program(std::vector<Segment> segments, RegNum num_regs)
    : storage_(std::make_shared<const std::vector<Segment>>(std::move(segments))),
      segs_(storage_->data()),
      num_segs_(storage_->size()),
      num_regs_(num_regs) {}

Program& Program::operator=(Program&& other) noexcept {
  storage_ = std::move(other.storage_);
  segs_ = std::exchange(other.segs_, nullptr);
  num_segs_ = std::exchange(other.num_segs_, 0);
  num_regs_ = std::exchange(other.num_regs_, 0);
  return *this;
}

const std::vector<Segment>& Program::segments() const {
  static const std::vector<Segment> kNone;
  return storage_ ? *storage_ : kNone;
}

std::uint64_t Program::dynamic_length() const {
  std::uint64_t n = 0;
  for (const auto& s : segments())
    n += static_cast<std::uint64_t>(s.instrs.size()) * s.iterations;
  return n;
}

std::size_t Program::static_length() const {
  std::size_t n = 0;
  for (const auto& s : segments()) n += s.instrs.size();
  return n;
}

std::uint32_t Program::max_smem_offset() const {
  std::uint32_t m = 0;
  for (const auto& s : segments())
    for (const auto& i : s.instrs)
      if (is_shared_mem(i.op)) m = std::max(m, i.smem_offset);
  return m;
}

std::uint32_t Program::max_load_transactions() const {
  std::uint32_t m = 0;
  for (const auto& s : segments())
    for (const auto& i : s.instrs)
      if (i.op == Op::kLdGlobal) m = std::max(m, i.max_transactions());
  return m;
}

bool Program::has_barrier() const {
  for (const auto& s : segments())
    for (const auto& i : s.instrs)
      if (i.op == Op::kBarrier) return true;
  return false;
}

void Program::validate() const {
  GRS_CHECK_MSG(!segments().empty(), "program has no segments");
  std::size_t n_exit = 0;
  for (const auto& s : segments()) {
    GRS_CHECK_MSG(!s.instrs.empty(), "empty segment");
    GRS_CHECK_MSG(s.iterations >= 1, "segment with zero iterations");
    for (const auto& i : s.instrs) {
      for (RegNum r : {i.dst, i.src0, i.src1}) {
        if (r != kNoReg) GRS_CHECK_MSG(r < num_regs_, "register number out of range");
      }
      if (i.profile) {
        GRS_CHECK_MSG(is_global_mem(i.op), "memory profile on a non-global-memory op");
        GRS_CHECK_MSG(i.profile->check().empty(), "invalid memory profile");
      }
      if (i.op == Op::kExit) ++n_exit;
    }
  }
  GRS_CHECK_MSG(n_exit == 1, "program must contain exactly one exit");
  const Segment& last = segments().back();
  GRS_CHECK_MSG(last.instrs.back().op == Op::kExit, "exit must be the last instruction");
  GRS_CHECK_MSG(last.iterations == 1, "exit segment must run exactly once");
}

std::string Program::to_text() const {
  std::string out;
  for (std::size_t si = 0; si < segments().size(); ++si) {
    const auto& s = segments()[si];
    out += "segment " + std::to_string(si) + " x" + std::to_string(s.iterations) + ":\n";
    for (const auto& i : s.instrs) out += "  " + i.to_text() + "\n";
  }
  return out;
}

ProgramCursor::ProgramCursor(const Program& p) { skip_empty(p); }

void ProgramCursor::skip_empty(const Program& p) {
  while (seg_ < p.num_segs_ && p.segs_[seg_].instrs.empty()) {
    ++seg_;
    idx_ = 0;
    iter_ = 0;
  }
}

const Instruction* ProgramCursor::peek(const Program& p) const {
  if (seg_ >= p.num_segs_) return nullptr;
  return &p.segs_[seg_].instrs[idx_];
}

void ProgramCursor::advance(const Program& p) {
  GRS_CHECK(seg_ < p.num_segs_);
  const Segment& s = p.segs_[seg_];
  ++consumed_;
  if (++idx_ < s.instrs.size()) return;
  idx_ = 0;
  if (++iter_ < s.iterations) return;
  iter_ = 0;
  ++seg_;
  skip_empty(p);
}

}  // namespace grs
