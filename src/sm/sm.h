// Streaming Multiprocessor: the per-core cycle model.
//
// Owns the resident warps and thread blocks, the private L1 data cache, the
// warp schedulers, and the sharing-pair lock/ownership state. Each cycle
// (`step`) it retires completed instructions and lets each scheduler issue at
// most one instruction from its highest-priority ready warp, classifying the
// cycle as issued / stall / idle (see common/stats.h for the definitions).
//
// A scheduler's scan walks the SM-wide ready bitset through its own slot
// mask, in ascending slot order, and so visits only its live warps that are
// not parked. It picks as it goes: it keeps the eligible warp with the
// lowest priority key (sm/scheduler.h). A warp the scan finds in one of five
// states is parked: it leaves the ready set and stays in that state until an
// event that can change the state wakes it. The scheduler's next scan then
// re-decides it. Until the wake its state cannot change, so the counters and
// the trace are bit-identical to re-scanning it every cycle. A live warp out
// of the ready set is parked exactly, in the state it holds (sm/warp.h).
// The states and their wake events:
//  * at a barrier: its block's barrier released;
//  * on its scoreboard, or draining for exit: a writeback drained for it;
//  * waiting on a sharing lock: a lock-state change in its sharing pair;
//  * a global load at a full L1 MSHR (kMshrFull), unless a Dyn gate stands
//    in front of it (Dyn on and a shared non-owner warp), whose verdict
//    flips with the gate's draws: the step's L1 drain, once the free entries
//    cover the smallest parked need; any LSU issue on the SM, which moves
//    the port, the queue and the MSHR; and a lock-state change in its pair,
//    which can make it a non-owner. The state is a structural hazard, so a
//    scheduler that issues nothing while holding such a warp counts a stall
//    cycle, as it did when its scan found the warp at the full MSHR.
//
// Counters are kept as intervals. Each warp records the state its last scan
// found and the cycle it entered it, and each scheduler the class of its
// last cycle (issued, stall or idle) the same way. A change closes the old
// interval into its counter (kStateAccounting in sm.cc), an exit closes the
// warp's, and stats(c) adds every open interval through cycle c. A parked
// warp and a sleeping SM change no state, so counting them costs nothing,
// and the observer's warp slices are the same intervals (obs/events.h).
//
// The scan of a warp has two parts, and neither reads the Program: they read
// what decode() recorded of the next instruction in the warp's first cache
// line (sm/warp.h). The instruction-level part (barrier, scoreboard, exit
// drain, sharing lock) decides four of the states that park; the per-cycle
// part (Dyn gate, LSU port and queue, MSHR, SFU port) runs after it. A warp
// whose next instruction passes the first part is marked decided, and later
// scans run only the second part, until the warp issues or a lock-state
// change in its pair clears the mark. Nothing else can turn a passed verdict
// into a wait: only the warp's own issue sets its barrier flag, adds
// scoreboard bits or raises its in-flight count, and a lock check can start
// to fail only at a new acquisition or an ownership transfer, both of which
// clear the marks of the pair's warps.
//
// The GPU loop (gpu/gpu.cc) calls tick() every cycle in both exec modes. In
// event mode a step that issues nothing opens an idle window up to the SM's
// next timed wakeup, whose cycles tick() skips: each would repeat that step,
// so every warp and scheduler stays in its open interval and the skip needs
// no accounting. An SM built for cycle mode opens no window and steps every
// cycle.
//
// Writebacks retire at the cycle their latency makes them due. ALU, SFU,
// scratchpad and L1-hit (load or store) writebacks have a latency fixed at
// issue, so each of these classes is due in issue order and waits in a FIFO
// ring; only a global load due later than an L1 hit (it missed or merged in
// L1) goes through a heap. Each scheduler issues at most once per cycle and
// a step drains before it issues, so a ring never holds more than
// (latency + 1) x num_schedulers writebacks: it is sized from the config and
// never grows. Writebacks due in the same cycle commute, so retiring them
// class by class is exact.
//
// The sharing runtime hooks live exactly where the paper puts them:
//  * issue-time register classification per Fig. 3 (unshared warp? RegNo
//    below threshold? lock acquired?);
//  * issue-time scratchpad classification per Fig. 4;
//  * ownership transfer and non-owner relaunch at block finish (§IV-A);
//  * the Dyn gate in front of non-owner global-memory issues (§IV-C).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/dyn_throttle.h"
#include "core/locks.h"
#include "core/occupancy.h"
#include "isa/program.h"
#include "memory/cache.h"
#include "memory/coalescer.h"
#include "memory/memsys.h"
#include "obs/events.h"
#include "sm/block.h"
#include "sm/scheduler.h"
#include "sm/warp.h"

namespace grs {

namespace obs {
class SimObserver;
}
namespace prof {
class HostProfiler;
}

class StreamingMultiprocessor {
 public:
  /// Invoked when a resident block finishes, so the GPU can refill the
  /// slot. Called after ownership transfer has been applied.
  using BlockFinishFn = std::function<void(SmId, BlockSlot)>;

  /// `obs` (optional) receives event-trace hooks and host-phase timings; its
  /// trace and profiler pointers are read once here, so the default-null
  /// case costs one untaken branch per hook site (src/obs/obs.h).
  StreamingMultiprocessor(SmId id, const GpuConfig& cfg, const Program& program,
                          const KernelResources& res, const Occupancy& occ,
                          std::uint32_t active_lanes, MemorySystem& memsys,
                          const DynThrottle* dyn, obs::SimObserver* obs = nullptr);

  void set_block_finish_callback(BlockFinishFn fn) { on_block_finish_ = std::move(fn); }

  /// Install a new block into `slot` (mapping: slots [0, U) are unshared,
  /// slots U+2p and U+2p+1 are the two sides of pair p).
  void launch_block(BlockSlot slot, std::uint64_t block_uid);

  /// Advance one GPU cycle. Returns true when any scheduler issued an
  /// instruction (the event-driven loop may only skip cycles in which no SM
  /// issued anything).
  bool step(Cycle now);

  /// True when no blocks are resident and no instructions are in flight.
  [[nodiscard]] bool drained() const;

  /// The GPU loop's per-cycle call, in both exec modes (see the file
  /// comment): O(1) inside a known-idle window (`now < idle_until()`),
  /// otherwise step(). Returns what step() returns, or false when idle.
  bool tick(Cycle now) {
    if (now < idle_until_) return false;  // known idle: every interval stays open
    return resume(now);
  }

  /// End of the current known-idle window: this SM's scan cannot change
  /// before this cycle. 0 when the SM must be stepped next cycle (always,
  /// in cycle mode); kNeverCycle when only external termination can end the
  /// window.
  [[nodiscard]] Cycle idle_until() const { return idle_until_; }

  /// Earliest future cycle at which this SM's candidate scan can change on
  /// its own: the first due writeback (the fronts of the fixed-latency rings
  /// and the top of the late-load heap) or the first L1 MSHR fill (which can
  /// unblock MSHR-capacity stalls before the owning warp's writeback).
  /// kNeverCycle when neither is pending. Everything else that affects
  /// issuability (locks, barriers, ownership, dispatch) only moves when some
  /// warp on this SM issues.
  [[nodiscard]] Cycle next_wakeup() const;

  /// True when this SM cannot change on its own: no writeback or L1 fill is
  /// pending, and no warp the last scan left at a Dyn gate could issue if
  /// its gate reopened at a monitoring boundary (none is gated, or the LSU
  /// has no issue port or no queue entry). If every SM is stuck after a
  /// cycle in which none issued, no warp can ever issue again: the GPU
  /// loop's deadlock rule (gpu/gpu.cc).
  [[nodiscard]] bool stuck() const;

  /// The counters as they stand at cycle `c` (default: the last stepped
  /// cycle), L1 counters included: the closed intervals, plus every open one
  /// through `c` (past the last step the SM sleeps in them).
  [[nodiscard]] SmStats stats(Cycle c = 0) const;
  /// Close the trace slice of each warp still in a state at `end`, one past
  /// the run's last cycle, where stats(c) ends the open intervals, so a run
  /// cut by max_cycles keeps slices equal to counters (gpu/gpu.cc, before
  /// the observer's finalize()). Counters are untouched.
  void end_trace(Cycle end) const;
  [[nodiscard]] SmId id() const { return id_; }
  [[nodiscard]] const Occupancy& occupancy() const { return occ_; }
  [[nodiscard]] std::uint32_t resident_blocks() const { return resident_blocks_; }
  [[nodiscard]] std::uint32_t resident_warps() const { return resident_warps_; }
  [[nodiscard]] std::uint32_t l1_mshr_inflight() const {
    return static_cast<std::uint32_t>(l1_.inflight());
  }
  [[nodiscard]] std::uint32_t warp_slots() const {
    return static_cast<std::uint32_t>(warps_.size());
  }

  // --- introspection for tests -------------------------------------------
  [[nodiscard]] const ResidentBlock& block(BlockSlot s) const { return blocks_[s]; }
  [[nodiscard]] const Warp& warp(std::uint32_t slot) const { return warps_[slot]; }
  [[nodiscard]] int pair_owner_side(std::uint32_t pair_id) const;
  [[nodiscard]] WarpClass classify(const Warp& w) const;
  [[nodiscard]] std::uint32_t warps_per_block() const { return warps_per_block_; }

 private:
  struct PairState {
    explicit PairState(std::uint32_t warp_positions) : locks(warp_positions) {}
    int owner_side = PairLockState::kNoSide;
    PairLockState locks;
  };

  /// One writeback: at `cycle`, warp `slot` retires an instruction writing
  /// `dst` (kNoReg: none). Whether it frees an LSU queue entry follows from
  /// the queue it waits in.
  struct Event {
    Cycle cycle = 0;
    std::uint32_t slot = 0;
    RegNum dst = kNoReg;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const { return a.cycle > b.cycle; }
  };

  /// The writebacks of one fixed-latency class, due in issue order (see the
  /// file comment): a FIFO ring whose capacity is fixed at construction.
  class WritebackRing {
   public:
    WritebackRing(Cycle latency, bool mem, std::uint32_t num_schedulers);
    /// Queue a writeback due `latency` cycles after `now`.
    void push(Cycle now, std::uint32_t slot, RegNum dst);
    void pop();
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] const Event& front() const { return buf_[head_]; }
    /// The class is an LSU one (scratchpad, L1 hit).
    [[nodiscard]] bool mem() const { return mem_; }

   private:
    Cycle latency_;
    bool mem_;
    std::vector<Event> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  /// The fixed-latency classes, in rings_ order.
  enum WritebackClass : std::size_t { kAluWb, kSfuWb, kSmemWb, kL1HitWb, kNumWritebackClasses };

  /// One scheduler's warps: slots s, s + n, s + 2n, ... for scheduler s of
  /// n, set in `mask` (laid out like ready_), and the class of its last
  /// cycle: the counter it adds to (issued, stall or idle cycles), held since
  /// `since`; null before the first step.
  struct ScanSet {
    std::vector<std::uint64_t> mask;
    std::uint64_t SmStats::*cycle_class = nullptr;
    Cycle since = 0;
  };

  /// tick() outside a known-idle window: step, and (event mode) open the
  /// next window.
  bool resume(Cycle now);
  void drain_events(Cycle now);
  /// Apply one due writeback; `mem` frees its LSU queue entry.
  void retire(const Event& e, bool mem);
  /// Scan scheduler `sched_id`'s ready warps, keeping the lowest-keyed
  /// eligible one, and issue it. Returns whether it issued.
  bool run_scheduler(std::uint32_t sched_id, Cycle now);
  /// Ready-set membership (see the file comment). make_ready() enters a
  /// launched warp, drop_ready() removes an exiting one, park() moves a
  /// scanned warp out in the state it holds, and wake() returns a parked
  /// one (on a ready warp it does nothing).
  void make_ready(std::uint32_t slot);
  void drop_ready(std::uint32_t slot);
  void park(Warp& w);
  void wake(Warp& w);
  /// Close `w`'s open interval into its counter and open one in `st` at
  /// `now` (kNone: none), telling the observer.
  void set_state(Warp& w, obs::WarpState st, Cycle now);
  /// Lock-state change in `p`: wake both blocks' lock-waiting and
  /// MSHR-waiting warps and clear their decided marks.
  void wake_lock_waiters(const PairState& p);
  /// Wake every warp parked at a full L1 MSHR (see the file comment).
  void wake_mshr_waiters();
#ifndef NDEBUG
  /// Each live warp of `sched_id` out of the ready set is parked: it still
  /// scans to the parking state it holds (an MSHR waiter through the full
  /// per-cycle check), and only MSHR-full ones are MSHR waiters. Every
  /// decided ready one still passes the instruction-level checks, and the
  /// mask matches the slot assignment.
  void check_parked(std::uint32_t sched_id) const;
#endif
  /// Decide a live warp's state for this cycle's candidate scan: the
  /// instruction-level checks unless the warp is decided, then the
  /// per-cycle ones. It writes only the decided mark (and decisions_).
  [[nodiscard]] obs::WarpState scan_warp(Warp& w, Cycle now);
  /// The instruction-level part of the scan: the parking state `w.next`
  /// waits in, or kEligible when it passes all four checks. Reads what
  /// decode() recorded, never the Program.
  [[nodiscard]] obs::WarpState instruction_wait(const Warp& w) const;
  /// A Dyn gate stands in front of `w`'s global accesses: Dyn is on and `w`
  /// is a shared non-owner warp.
  [[nodiscard]] bool dyn_exposed(const Warp& w) const;
  /// The structural part of the scan, after the Dyn gate: the stall state
  /// an LSU or SFU port, the LSU queue or the L1 MSHR holds `w.next` in, or
  /// kEligible.
  [[nodiscard]] obs::WarpState structural_wait(const Warp& w) const;
  void issue(Warp& w, const Instruction& ins, Cycle now);
  void do_global_access(Warp& w, const Instruction& ins, Cycle now, std::uint64_t instr_seq,
                        std::uint64_t instr_uid);
  void handle_exit(Warp& w, Cycle now);
  void finish_block(BlockSlot bs, Cycle now);
  void release_barrier_if_complete(ResidentBlock& b);
  void acquire_with_ownership(PairState& p, int side, bool reg, std::uint32_t pos, Cycle now);
  [[nodiscard]] std::uint32_t pair_id_of(const PairState& p) const {
    return static_cast<std::uint32_t>(&p - pairs_.data());
  }
  [[nodiscard]] std::uint32_t warp_slot_of(const Warp& w) const {
    return static_cast<std::uint32_t>(&w - warps_.data());
  }

  SmId id_;
  GpuConfig cfg_;
  const Program* program_;
  KernelResources res_;
  Occupancy occ_;
  std::uint32_t kernel_active_lanes_;
  MemorySystem* memsys_;
  const DynThrottle* dyn_;

  Cache l1_;
  Coalescer coalescer_;

  std::uint32_t warps_per_block_;
  std::vector<Warp> warps_;          ///< total_blocks * warps_per_block slots
  std::vector<ResidentBlock> blocks_;
  std::vector<PairState> pairs_;
  std::vector<WarpScheduler> schedulers_;
  std::vector<ScanSet> scan_sets_;  ///< one per scheduler
  /// The ready set: bit (slot % 64) of word (slot / 64) is set while the
  /// warp in `slot` is live and not parked.
  std::vector<std::uint64_t> ready_;
  /// Warps parked at a full L1 MSHR, laid out like ready_, and the fewest
  /// MSHR entries one of them needs: a step's drain that frees that many
  /// wakes them all. kNoMshrWaiter once they are woken; a lock wake that
  /// takes some of them out early leaves it low, which only wakes the rest
  /// sooner.
  std::vector<std::uint64_t> mshr_waiters_;
  static constexpr std::uint32_t kNoMshrWaiter = ~0u;
  std::uint32_t mshr_need_ = kNoMshrWaiter;

  std::array<WritebackRing, kNumWritebackClasses> rings_;
  /// Global loads due later than an L1 hit (they missed or merged in L1).
  std::priority_queue<Event, std::vector<Event>, EventAfter> late_loads_;
  std::uint32_t lsu_inflight_ = 0;
  std::uint32_t lsu_port_ = 0;  ///< per-cycle issue-port counters
  std::uint32_t sfu_port_ = 0;
  std::uint64_t next_dynamic_id_ = 0;
  std::uint32_t resident_blocks_ = 0;
  std::uint32_t resident_warps_ = 0;

  SmStats stats_;                       ///< the closed intervals and event counts
  std::uint32_t scanned_ = 0;           ///< scan_warp() calls this step
  std::uint32_t decisions_ = 0;         ///< instruction_wait() runs this step
  /// Built for event mode: tick() opens idle windows.
  bool event_mode_;
  Cycle idle_until_ = 0;                ///< end of the current known-idle window
  /// The cycle step() last ran, 0 before the first. stats() counts open
  /// intervals through it by default, and launch_block() stamps trace
  /// events with it (a refill runs inside the step that finished a block).
  Cycle now_ = 0;
  BlockFinishFn on_block_finish_;
  obs::SimObserver* trace_ = nullptr;   ///< null unless event tracing is on
  prof::HostProfiler* prof_ = nullptr;  ///< null unless host profiling is on

  std::vector<Addr> txns_;  ///< scratch buffer (avoids per-access allocation)
};

}  // namespace grs
