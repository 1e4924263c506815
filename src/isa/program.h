// Kernel program: a loop-structured sequence of IR instructions.
//
// A program is a list of *segments*; each segment is a straight-line
// instruction vector executed `iterations` times before control falls through
// to the next segment. This models the prologue / main-loop / epilogue shape
// of the paper's benchmark kernels without needing a branch unit: the
// paper's mechanisms act on registers, scratchpad and scheduling, not on
// control flow, so divergence is modelled as fewer active lanes per issue
// (KernelInfo::active_lanes).
//
// A Program is an immutable value over shared storage: copying one (and so
// every KernelInfo, sweep point and row that holds it) only bumps a
// reference count, and the storage's address identifies its segments
// (cache::Fingerprints keys on it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"

namespace grs {

struct Segment {
  std::vector<Instruction> instrs;
  std::uint32_t iterations = 1;
};

class Program {
 public:
  using Storage = std::shared_ptr<const std::vector<Segment>>;

  Program() = default;
  explicit Program(std::vector<Segment> segments, RegNum num_regs);
  Program(const Program&) = default;
  Program& operator=(const Program&) = default;
  /// A moved-from Program is empty, like a default-constructed one.
  Program(Program&& other) noexcept { *this = std::move(other); }
  Program& operator=(Program&& other) noexcept;

  [[nodiscard]] const std::vector<Segment>& segments() const;
  [[nodiscard]] RegNum num_regs() const { return num_regs_; }

  /// The segments every copy of this Program shares; null in a default-
  /// constructed (or moved-from) Program, which has no segments.
  [[nodiscard]] const Storage& storage() const { return storage_; }

  /// Dynamic warp-instruction count for one full execution.
  [[nodiscard]] std::uint64_t dynamic_length() const;

  /// Static instruction count (sum of segment sizes).
  [[nodiscard]] std::size_t static_length() const;

  /// Largest scratchpad offset referenced (bytes), or 0 if none.
  [[nodiscard]] std::uint32_t max_smem_offset() const;

  /// True if any instruction is a barrier.
  [[nodiscard]] bool has_barrier() const;

  /// Abort if malformed (register numbers out of range, empty segments,
  /// missing trailing Exit, Exit not last, zero iteration counts).
  void validate() const;

  /// Pretty-printed listing (tests, debugging).
  [[nodiscard]] std::string to_text() const;

 private:
  friend class ProgramCursor;

  Storage storage_;
  /// storage_'s segment array and size, cached so the cursor reads them
  /// with no more indirection than a plain vector member would need.
  const Segment* segs_ = nullptr;
  std::size_t num_segs_ = 0;
  RegNum num_regs_ = 0;
};

/// Iterates a Program one instruction at a time; the per-warp execution state.
/// Cheap to copy; stores no pointers into the program.
class ProgramCursor {
 public:
  ProgramCursor() = default;
  explicit ProgramCursor(const Program& p);

  /// nullptr when the program is exhausted.
  [[nodiscard]] const Instruction* peek(const Program& p) const;

  /// Advance past the instruction last returned by peek().
  void advance(const Program& p);

  [[nodiscard]] bool done(const Program& p) const { return seg_ >= p.num_segs_; }

  /// Number of dynamic instructions already consumed.
  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }

  // --- position of the instruction peek() returns ------------------------
  // Segments run exactly once each (in order), so `iteration()` is also the
  // number of times that instruction has already executed — the per-static-
  // instruction dynamic index that profile-backed address sampling keys on.
  [[nodiscard]] std::size_t segment_index() const { return seg_; }
  [[nodiscard]] std::uint32_t instr_index() const { return idx_; }
  [[nodiscard]] std::uint32_t iteration() const { return iter_; }

 private:
  void skip_empty(const Program& p);

  std::size_t seg_ = 0;
  std::uint32_t idx_ = 0;
  std::uint32_t iter_ = 0;
  std::uint64_t consumed_ = 0;
};

}  // namespace grs
