#include "sm/sm.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"
#include "obs/obs.h"
#include "prof/prof.h"

namespace grs {

namespace {

/// How one warp-cycle in each state is counted: the SmStats counter a warp's
/// interval in it closes into (sm.h), and whether it is a structural hazard,
/// which makes a scheduler that issues nothing count a stall cycle rather
/// than an idle one. A state that `parks` can end only at a wake event
/// (sm.h), so a warp the scan finds in it leaves the ready set. The four
/// instruction-level states are decided before the Dyn gate; kMshrFull is
/// decided after it and parks only a warp no gate stands in front of. A
/// parked warp stays in its state, and kMshrFull is the only parking stall
/// state, so a scheduler stalls on a parked warp exactly when it holds an
/// MSHR waiter, as the per-warp scan did when it found the warp there.
struct StateAccounting {
  std::uint64_t SmStats::*counter;  ///< nullptr: the state has no counter
  bool stall;
  bool parks;
};

/// Indexed by obs::WarpState.
constexpr StateAccounting kStateAccounting[] = {
    {nullptr, false, false},                         // kNone
    {nullptr, false, false},                         // kEligible
    {&SmStats::blocked_barrier, false, true},        // kBarrier
    {&SmStats::blocked_scoreboard, false, true},     // kScoreboard
    {nullptr, false, true},                          // kDrainExit
    {&SmStats::lock_wait_cycles, false, true},       // kLockWait
    {&SmStats::dyn_throttled_issues, false, false},  // kDynGated
    {&SmStats::blocked_lsu_port, true, false},       // kLsuPort
    {&SmStats::blocked_lsu_inflight, true, false},   // kLsuQueue
    {&SmStats::blocked_mshr, true, true},            // kMshrFull
    {&SmStats::blocked_sfu_port, true, false},       // kSfuPort
};
static_assert(std::size(kStateAccounting) == obs::kNumWarpStates,
              "one accounting entry per obs::WarpState");

const StateAccounting& accounting(obs::WarpState st) {
  return kStateAccounting[static_cast<std::size_t>(st)];
}

/// Close the interval held in `counter` of `s` since `since` (nullptr: an
/// uncounted one) at `end`, the first cycle after it.
void add_interval(SmStats& s, std::uint64_t SmStats::*counter, Cycle since, Cycle end) {
  if (counter != nullptr) s.*counter += end - since;
}

}  // namespace

StreamingMultiprocessor::StreamingMultiprocessor(SmId id, const GpuConfig& cfg,
                                                 const Program& program,
                                                 const KernelResources& res,
                                                 const Occupancy& occ,
                                                 std::uint32_t active_lanes,
                                                 MemorySystem& memsys,
                                                 const DynThrottle* dyn,
                                                 obs::SimObserver* obs)
    : id_(id),
      cfg_(cfg),
      program_(&program),
      res_(res),
      occ_(occ),
      kernel_active_lanes_(active_lanes),
      memsys_(&memsys),
      dyn_(dyn),
      l1_(cfg.l1),
      coalescer_(cfg.l1.line_bytes),
      warps_per_block_(res.warps_per_block(cfg.warp_size)),
      rings_{WritebackRing(cfg.alu_latency, false, cfg.num_schedulers),
             WritebackRing(cfg.sfu_latency, false, cfg.num_schedulers),
             WritebackRing(cfg.scratchpad_latency, true, cfg.num_schedulers),
             WritebackRing(cfg.l1_hit_latency, true, cfg.num_schedulers)},
      event_mode_(cfg.exec_mode == ExecMode::kEvent),
      trace_(obs::tracer(obs)),
      prof_(obs::profiler(obs)) {
  GRS_CHECK_MSG(program.num_regs() <= 64, "scoreboard supports at most 64 registers/thread");
  GRS_CHECK(occ.total_blocks >= 1);
  GRS_CHECK(occ.total_blocks * warps_per_block_ <= cfg.max_warps_per_sm());
  warps_.resize(static_cast<std::size_t>(occ.total_blocks) * warps_per_block_);
  blocks_.resize(occ.total_blocks);
  pairs_.reserve(occ.shared_pairs);
  for (std::uint32_t p = 0; p < occ.shared_pairs; ++p) pairs_.emplace_back(warps_per_block_);
  schedulers_.reserve(cfg.num_schedulers);
  for (std::uint32_t s = 0; s < cfg.num_schedulers; ++s)
    schedulers_.emplace_back(cfg.scheduler, static_cast<std::uint32_t>(warps_.size()),
                             cfg.two_level_group_size);
  const std::size_t words = (warps_.size() + 63) / 64;
  ready_.assign(words, 0);
  mshr_waiters_.assign(words, 0);
  scan_sets_.resize(cfg.num_schedulers);
  for (ScanSet& set : scan_sets_) set.mask.assign(words, 0);
  for (std::uint32_t slot = 0; slot < warps_.size(); ++slot)
    scan_sets_[slot % cfg.num_schedulers].mask[slot / 64] |= 1ull << (slot % 64);
  txns_.reserve(32);
}

int StreamingMultiprocessor::pair_owner_side(std::uint32_t pair_id) const {
  GRS_CHECK(pair_id < pairs_.size());
  return pairs_[pair_id].owner_side;
}

WarpClass StreamingMultiprocessor::classify(const Warp& w) const {
  const ResidentBlock& b = blocks_[w.block];
  if (!b.is_shared()) return WarpClass::kUnshared;
  const PairState& p = pairs_[b.pair_id];
  return p.owner_side == b.side ? WarpClass::kSharedOwner : WarpClass::kSharedNonOwner;
}

void StreamingMultiprocessor::launch_block(BlockSlot slot, std::uint64_t block_uid) {
  GRS_CHECK(slot < blocks_.size());
  ResidentBlock& b = blocks_[slot];
  GRS_CHECK_MSG(!b.active, "launch into an occupied block slot");

  b = ResidentBlock{};
  b.active = true;
  b.block_uid = block_uid;
  b.num_warps = warps_per_block_;
  b.first_warp_slot = slot * warps_per_block_;

  if (slot >= occ_.unshared_blocks) {
    b.pair_id = static_cast<int>((slot - occ_.unshared_blocks) / 2);
    b.side = static_cast<int>((slot - occ_.unshared_blocks) % 2);
    PairState& p = pairs_[b.pair_id];
    p.locks.on_block_replace(b.side);
    // First occupant of an empty pair owns the shared pool.
    if (p.owner_side == PairLockState::kNoSide) p.owner_side = b.side;
    if (cfg_.sharing.resource == Resource::kRegisters)
      b.lock_rule = {LockNeed::kReg, occ_.unshared_regs_per_thread};
    if (cfg_.sharing.resource == Resource::kScratchpad)
      b.lock_rule = {LockNeed::kSmem, occ_.unshared_smem_bytes};
  }

  const std::uint32_t tail_threads = res_.threads_per_block % cfg_.warp_size;
  for (std::uint32_t i = 0; i < warps_per_block_; ++i) {
    Warp& w = warps_[b.first_warp_slot + i];
    GRS_CHECK(!w.active);
    w.reset();
    w.active = true;
    w.pos_in_block = i;
    w.block = slot;
    w.warp_uid = block_uid * warps_per_block_ + i;
    w.dynamic_id = next_dynamic_id_++;
    w.cursor = ProgramCursor(*program_);
    w.decode(*program_, b.lock_rule);
    w.active_lanes = kernel_active_lanes_;
    if (i + 1 == warps_per_block_ && tail_threads != 0)
      w.active_lanes = std::min(w.active_lanes, tail_threads);
    make_ready(b.first_warp_slot + i);
  }

  ++resident_blocks_;
  resident_warps_ += warps_per_block_;
  ++stats_.blocks_launched;
  stats_.max_resident_blocks = std::max(stats_.max_resident_blocks, resident_blocks_);
  stats_.max_resident_warps = std::max(stats_.max_resident_warps, resident_warps_);

  if (trace_) {
    const bool owner = b.is_shared() && pairs_[b.pair_id].owner_side == b.side;
    trace_->block_launch(id_, slot, block_uid, now_, b.is_shared() ? b.pair_id : -1, b.side,
                         owner);
  }
}

StreamingMultiprocessor::WritebackRing::WritebackRing(Cycle latency, bool mem,
                                                      std::uint32_t num_schedulers)
    : latency_(latency), mem_(mem), buf_((latency + 1) * num_schedulers) {}

void StreamingMultiprocessor::WritebackRing::push(Cycle now, std::uint32_t slot, RegNum dst) {
  GRS_CHECK_MSG(size_ < buf_.size(), "writeback ring overflow");
  std::size_t tail = head_ + size_;
  if (tail >= buf_.size()) tail -= buf_.size();
  buf_[tail] = Event{now + latency_, slot, dst};
  ++size_;
}

void StreamingMultiprocessor::WritebackRing::pop() {
  if (++head_ == buf_.size()) head_ = 0;
  --size_;
}

void StreamingMultiprocessor::drain_events(Cycle now) {
  for (WritebackRing& ring : rings_) {
    for (; !ring.empty() && ring.front().cycle <= now; ring.pop())
      retire(ring.front(), ring.mem());
  }
  for (; !late_loads_.empty() && late_loads_.top().cycle <= now; late_loads_.pop())
    retire(late_loads_.top(), true);
}

void StreamingMultiprocessor::retire(const Event& e, bool mem) {
  Warp& w = warps_[e.slot];
  w.pending_writes &= ~reg_bit(e.dst);
  GRS_CHECK(w.inflight > 0);
  --w.inflight;
  if (mem) {
    GRS_CHECK(lsu_inflight_ > 0);
    --lsu_inflight_;
  }
  if (w.state == obs::WarpState::kScoreboard || w.state == obs::WarpState::kDrainExit) wake(w);
}

void StreamingMultiprocessor::make_ready(std::uint32_t slot) {
  ready_[slot / 64] |= 1ull << (slot % 64);
}

void StreamingMultiprocessor::drop_ready(std::uint32_t slot) {
  ready_[slot / 64] &= ~(1ull << (slot % 64));
}

void StreamingMultiprocessor::park(Warp& w) {
  const std::uint32_t slot = warp_slot_of(w);
  drop_ready(slot);
  if (w.state == obs::WarpState::kMshrFull) {
    mshr_waiters_[slot / 64] |= 1ull << (slot % 64);
    mshr_need_ = std::min(mshr_need_, w.next_load_lines);
  }
}

void StreamingMultiprocessor::wake(Warp& w) {
  const std::uint32_t slot = warp_slot_of(w);
  mshr_waiters_[slot / 64] &= ~(1ull << (slot % 64));
  make_ready(slot);
}

void StreamingMultiprocessor::set_state(Warp& w, obs::WarpState st, Cycle now) {
  add_interval(stats_, accounting(w.state).counter, w.since, now);
  if (trace_) trace_->warp_state(id_, warp_slot_of(w), now, w.state, st);
  w.state = st;
  w.since = now;
}

void StreamingMultiprocessor::wake_lock_waiters(const PairState& p) {
  const std::uint32_t first_block = occ_.unshared_blocks + pair_id_of(p) * 2;
  const std::uint32_t first = first_block * warps_per_block_;
  for (std::uint32_t slot = first; slot < first + 2 * warps_per_block_; ++slot) {
    Warp& w = warps_[slot];
    // A lock check that passed may fail now: re-decide at the next scan. An
    // ownership change can also put a Dyn gate in front of an MSHR waiter.
    w.decided = false;
    if (w.state == obs::WarpState::kLockWait || w.state == obs::WarpState::kMshrFull) wake(w);
  }
}

void StreamingMultiprocessor::wake_mshr_waiters() {
  for (std::size_t word = 0; word < mshr_waiters_.size(); ++word) {
    for (std::uint64_t bits = mshr_waiters_[word]; bits != 0; bits &= bits - 1)
      wake(warps_[word * 64 + __builtin_ctzll(bits)]);
  }
  mshr_need_ = kNoMshrWaiter;
}

void StreamingMultiprocessor::acquire_with_ownership(PairState& p, int side, bool reg,
                                                     std::uint32_t pos, Cycle now) {
  // Paper §IV-A: the block whose warps enter the shared region first becomes
  // the owner block (a waiting partner then "waits for shared resources from
  // the owner").
  const bool first_lock = p.locks.locked_side() == PairLockState::kNoSide;
  bool newly = false;
  if (reg) {
    newly = !p.locks.reg_held(side, pos);
    p.locks.reg_acquire(side, pos);
  } else {
    newly = p.locks.smem_holder() != side;
    p.locks.smem_acquire(side);
  }
  if (newly) {
    ++stats_.lock_acquisitions;
    if (first_lock) {
      // First access to the shared pool in this pair epoch: the accessing
      // block becomes the owner and is entitled to the pool (paper §III).
      p.owner_side = side;
      p.locks.set_entitled(side);
    }
    if (trace_) trace_->lock_acquire(id_, pair_id_of(p), now, reg, side, pos, first_lock);
    wake_lock_waiters(p);
  }
}

bool StreamingMultiprocessor::step(Cycle now) {
  now_ = now;
  {
    prof::ScopedPhase prof_scope(prof_, prof::Phase::kExecute);
    drain_events(now);
    l1_.drain(now);
    if (mshr_need_ != kNoMshrWaiter && l1_.inflight() + mshr_need_ <= cfg_.l1.mshr_entries)
      wake_mshr_waiters();
  }
  lsu_port_ = 0;
  sfu_port_ = 0;
  scanned_ = 0;
  decisions_ = 0;
  bool issued = false;
  {
    prof::ScopedPhase prof_scope(prof_, prof::Phase::kSchedulerScan);
    for (std::uint32_t s = 0; s < schedulers_.size(); ++s) issued |= run_scheduler(s, now);
  }
  if (prof_) {
    prof_->add_warps_scanned(scanned_);
    prof_->add_warps_decided(decisions_);
  }
  return issued;
}

SmStats StreamingMultiprocessor::stats(Cycle c) const {
  SmStats s = stats_;
  const Cycle end = std::max(c, now_) + 1;
  for (const Warp& w : warps_) add_interval(s, accounting(w.state).counter, w.since, end);
  for (const ScanSet& set : scan_sets_) add_interval(s, set.cycle_class, set.since, end);
  s.l1_accesses = l1_.accesses;
  s.l1_misses = l1_.misses;
  s.l1_mshr_merges = l1_.merges;
  return s;
}

void StreamingMultiprocessor::end_trace(Cycle end) const {
  if (trace_ == nullptr) return;
  for (std::uint32_t slot = 0; slot < warps_.size(); ++slot)
    trace_->warp_state(id_, slot, end, warps_[slot].state, obs::WarpState::kNone);
}

Cycle StreamingMultiprocessor::next_wakeup() const {
  Cycle next = late_loads_.empty() ? kNeverCycle : late_loads_.top().cycle;
  for (const WritebackRing& ring : rings_) {
    if (!ring.empty()) next = std::min(next, ring.front().cycle);
  }
  return std::min(next, l1_.next_ready());
}

bool StreamingMultiprocessor::stuck() const {
  // Exact after a step that issued nothing: when it holds, no warp can ever
  // issue again. A warp not at a Dyn gate is either parked, and only an
  // event wakes it, or structurally blocked. With nothing pending the LSU
  // queue and the L1 MSHR are empty (and the drain that emptied the MSHR
  // woke every warp parked at it), so a structural block means a zero
  // issue port (or LSU queue), and no gate change lifts that. A gated warp
  // waits to issue a global access, which needs an LSU port and a queue
  // entry but cannot fail the pre-check on an empty MSHR (simulate() rejects
  // wider loads): once its gate reopens it can issue iff both are nonzero.
  // The step issued nothing, so it scanned every ready warp.
  bool gated = false;
  for (std::size_t word = 0; word < ready_.size(); ++word) {
    for (std::uint64_t bits = ready_[word]; bits != 0; bits &= bits - 1)
      gated |= warps_[word * 64 + __builtin_ctzll(bits)].state == obs::WarpState::kDynGated;
  }
  const bool lsu_open = cfg_.lsu_issue_per_cycle != 0 && cfg_.lsu_max_inflight != 0;
  return next_wakeup() == kNeverCycle && !(gated && lsu_open);
}

bool StreamingMultiprocessor::resume(Cycle now) {
  if (step(now)) {
    idle_until_ = 0;  // machine state moved; re-scan next cycle
    return true;
  }
  if (!event_mode_) return false;  // cycle mode opens no window
  // Nothing issued: until a timed wakeup fires, every future scan repeats
  // this one — locks, barriers, ownership, and dispatch only move when a
  // warp on this SM issues — and this one scanned every ready warp. Dyn
  // caveats: a scan taken on a monitoring boundary used probabilities that
  // on_period_end is about to replace, and a warp that PASSED a fractional
  // gate (then stalled structurally) may be gated next cycle, so both pin us
  // to the next cycle. Warps BLOCKED at a fractional gate are handled
  // exactly: their per-cycle hash draws are the only cycle-dependent input,
  // so replay the gate sequence (two hash_combines per warp-cycle, far
  // cheaper than a scan) and stop at the first cycle any of them would be
  // let through. Never sleep across a monitoring boundary, where
  // probabilities (and with them the scan) move.
  prof::ScopedPhase prof_scope(prof_, prof::Phase::kEventSleep);
  Cycle wake = next_wakeup();
  if (dyn_ != nullptr && dyn_->enabled()) {
    wake = now % dyn_->period() == 0 ? now + 1 : std::min(wake, dyn_->next_period_boundary(now));
  }
  const bool replay = wake > now + 1 && dyn_ != nullptr && dyn_->gate_is_cycle_dependent(id_);
  for (std::size_t word = 0; replay && word < ready_.size(); ++word) {
    std::uint64_t gated = 0;
    for (std::uint64_t bits = ready_[word]; bits != 0; bits &= bits - 1) {
      const Warp& w = warps_[word * 64 + __builtin_ctzll(bits)];
      if (w.state == obs::WarpState::kDynGated) {
        gated |= bits & -bits;
      } else if (is_global_mem(w.next_op) && dyn_exposed(w)) {
        wake = now + 1;  // it passed its gate
      }
    }
    // A word at a time, cycle-major: the first cycle any gate lets through.
    for (Cycle t = now + 1; gated != 0 && t < wake; ++t) {
      for (std::uint64_t g = gated; g != 0; g &= g - 1) {
        if (dyn_->allow(id_, t, warps_[word * 64 + __builtin_ctzll(g)].warp_uid)) {
          wake = t;
          break;
        }
      }
    }
  }
  idle_until_ = wake;
  return false;
}

bool StreamingMultiprocessor::run_scheduler(std::uint32_t sched_id, Cycle now) {
  ScanSet& set = scan_sets_[sched_id];
  WarpScheduler& sched = schedulers_[sched_id];
#ifndef NDEBUG
  check_parked(sched_id);
#endif
  const bool owf = sched.kind() == SchedulerKind::kOwf;
  bool saw_stall = false;
  std::uint32_t pick = kInvalidSlot;
  std::uint64_t pick_key = 0;
  for (std::size_t word = 0; word < ready_.size(); ++word) {
    // A warp parked at a full MSHR when the scan starts stalls the scheduler
    // (kStateAccounting): one that a later scheduler's issue wakes still
    // holds its parked state this cycle.
    saw_stall |= (mshr_waiters_[word] & set.mask[word]) != 0;
    // Ascending bits are ascending slots, the order of the trace; the pick
    // is the lowest key whatever the order.
    for (std::uint64_t bits = ready_[word] & set.mask[word]; bits != 0; bits &= bits - 1) {
      const auto slot = static_cast<std::uint32_t>(word * 64 + __builtin_ctzll(bits));
      Warp& w = warps_[slot];
      const obs::WarpState st = scan_warp(w, now);
      ++scanned_;
      if (st != w.state) set_state(w, st, now);
      const StateAccounting& acct = accounting(st);
      saw_stall |= acct.stall;
      if (st == obs::WarpState::kEligible) {
        const std::uint64_t key =
            sched.key(slot, w.dynamic_id, owf ? classify(w) : WarpClass::kUnshared);
        if (pick == kInvalidSlot || key < pick_key) {
          pick = slot;
          pick_key = key;
        }
      } else if (acct.parks && !(st == obs::WarpState::kMshrFull && dyn_exposed(w))) {
        park(w);
      }
    }
  }

  std::uint64_t SmStats::*const cycle_class = pick != kInvalidSlot ? &SmStats::issued_cycles
                                              : saw_stall          ? &SmStats::stall_cycles
                                                                   : &SmStats::idle_cycles;
  if (cycle_class != set.cycle_class) {
    add_interval(stats_, set.cycle_class, set.since, now);
    set.cycle_class = cycle_class;
    set.since = now;
  }
  if (pick == kInvalidSlot) return false;

  prof::ScopedPhase prof_scope(prof_, prof::Phase::kIssue);
  sched.commit(pick);
  Warp& w = warps_[pick];
  const Instruction& ins = *w.next;
  if (trace_) trace_->warp_issue(id_, pick, now, ins.op);
  issue(w, ins, now);
  ++stats_.warp_instructions;
  stats_.thread_instructions += w.active_lanes;
  return true;
}

#ifndef NDEBUG
void StreamingMultiprocessor::check_parked(std::uint32_t sched_id) const {
  const ScanSet& set = scan_sets_[sched_id];
  const auto n_sched = static_cast<std::uint32_t>(scan_sets_.size());
  for (std::uint32_t slot = 0; slot < warps_.size(); ++slot) {
    const bool mine = ((set.mask[slot / 64] >> (slot % 64)) & 1) != 0;
    GRS_CHECK_MSG(mine == (slot % n_sched == sched_id),
                  "scheduler mask out of sync with the slot assignment");
    if (!mine) continue;
    const Warp& w = warps_[slot];
    const bool ready = ((ready_[slot / 64] >> (slot % 64)) & 1) != 0;
    const bool parked = w.live() && !ready;
    GRS_CHECK_MSG(!ready || w.live(), "ready set holds a warp that is not live");
    if (ready && w.decided) {
      GRS_CHECK_MSG(instruction_wait(w) == obs::WarpState::kEligible,
                    "decided warp missed its invalidation");
    }
    const bool mshr_waiter = ((mshr_waiters_[slot / 64] >> (slot % 64)) & 1) != 0;
    GRS_CHECK_MSG(mshr_waiter == (parked && w.state == obs::WarpState::kMshrFull),
                  "MSHR waiter set out of sync with the parked warps");
    if (!parked) continue;
    if (mshr_waiter) {
      // The full per-cycle check, as a scan at this point would run it.
      GRS_CHECK_MSG(w.decided && instruction_wait(w) == obs::WarpState::kEligible &&
                        !dyn_exposed(w) && structural_wait(w) == obs::WarpState::kMshrFull &&
                        w.next_load_lines >= mshr_need_,
                    "MSHR-parked warp missed its wake event");
    } else {
      GRS_CHECK_MSG(accounting(w.state).parks && instruction_wait(w) == w.state,
                    "parked warp missed its wake event");
    }
  }
}
#endif

obs::WarpState StreamingMultiprocessor::scan_warp(Warp& w, Cycle now) {
  using obs::WarpState;
  if (!w.decided) {
    ++decisions_;
    const WarpState st = instruction_wait(w);
    if (st != WarpState::kEligible) return st;
    w.decided = true;
  }

  // Dynamic warp execution gate (paper §IV-C): suppressed issue, also
  // "not ready" this cycle. With a fractional probability the decision may
  // flip from one cycle to the next; resume() reads which way it went off
  // the warp's state.
  if (is_global_mem(w.next_op) && dyn_exposed(w) && !dyn_->allow(id_, now, w.warp_uid))
    return WarpState::kDynGated;
  return structural_wait(w);
}

bool StreamingMultiprocessor::dyn_exposed(const Warp& w) const {
  return dyn_ != nullptr && dyn_->enabled() && classify(w) == WarpClass::kSharedNonOwner;
}

obs::WarpState StreamingMultiprocessor::structural_wait(const Warp& w) const {
  using obs::WarpState;
  const Op op = w.next_op;
  if (is_mem(op)) {
    if (lsu_port_ >= cfg_.lsu_issue_per_cycle) return WarpState::kLsuPort;
    if (lsu_inflight_ >= cfg_.lsu_max_inflight) return WarpState::kLsuQueue;
    // Stores bypass the MSHR (no-allocate).
    if (op == Op::kLdGlobal && l1_.inflight() + w.next_load_lines > cfg_.l1.mshr_entries)
      return WarpState::kMshrFull;
  } else if (op == Op::kSfu && sfu_port_ >= cfg_.sfu_issue_per_cycle) {
    return WarpState::kSfuPort;
  }
  return WarpState::kEligible;
}

obs::WarpState StreamingMultiprocessor::instruction_wait(const Warp& w) const {
  using obs::WarpState;
  if (w.at_barrier) return WarpState::kBarrier;  // synchronization wait -> idle class

  GRS_CHECK_MSG(w.next != nullptr, "live warp with exhausted program");

  // Scoreboard: RAW/WAW on in-flight results -> dependency wait (idle class).
  if ((w.pending_writes & w.next_hazard) != 0) return WarpState::kScoreboard;
  if (w.next_op == Op::kExit && w.inflight != 0) return WarpState::kDrainExit;
  if (w.next_lock == LockNeed::kNone) return WarpState::kEligible;

  // Sharing locks (paper Fig. 3/4 step (d)-(e)): the warp busy-waits; like
  // a scoreboard dependency it is "not ready", so a cycle with only
  // lock-blocked warps counts as idle, not as a pipeline stall.
  const ResidentBlock& b = blocks_[w.block];
  const PairLockState& locks = pairs_[b.pair_id].locks;
  const bool free = w.next_lock == LockNeed::kReg ? locks.reg_can_acquire(b.side, w.pos_in_block)
                                                  : locks.smem_can_acquire(b.side);
  return free ? WarpState::kEligible : WarpState::kLockWait;
}

void StreamingMultiprocessor::issue(Warp& w, const Instruction& ins, Cycle now) {
  ResidentBlock& b = blocks_[w.block];

  // Take the sharing lock `ins` needs (its legality was established by the
  // scan).
  if (w.next_lock != LockNeed::kNone) {
    const bool reg = w.next_lock == LockNeed::kReg;
    acquire_with_ownership(pairs_[b.pair_id], b.side, reg, reg ? w.pos_in_block : 0, now);
  }

  // Static identity and per-instruction execution index of `ins`, captured
  // before the cursor moves (profile-backed address sampling keys on them).
  const std::uint64_t instr_uid =
      (static_cast<std::uint64_t>(w.cursor.segment_index()) << 32) | w.cursor.instr_index();
  const std::uint64_t instr_seq = w.cursor.iteration();

  w.cursor.advance(*program_);
  w.decode(*program_, b.lock_rule);
  w.decided = false;

  switch (ins.op) {
    case Op::kAlu: {
      rings_[kAluWb].push(now, warp_slot_of(w), ins.dst);
      w.pending_writes |= reg_bit(ins.dst);
      ++w.inflight;
      break;
    }
    case Op::kSfu: {
      ++sfu_port_;
      rings_[kSfuWb].push(now, warp_slot_of(w), ins.dst);
      w.pending_writes |= reg_bit(ins.dst);
      ++w.inflight;
      break;
    }
    case Op::kLdShared:
    case Op::kStShared: {
      ++lsu_port_;
      ++lsu_inflight_;
      rings_[kSmemWb].push(now, warp_slot_of(w), ins.dst);
      w.pending_writes |= reg_bit(ins.dst);
      ++w.inflight;
      break;
    }
    case Op::kLdGlobal:
    case Op::kStGlobal: {
      ++lsu_port_;
      do_global_access(w, ins, now, instr_seq, instr_uid);
      break;
    }
    case Op::kBarrier: {
      w.at_barrier = true;
      ++b.barrier_arrived;
      release_barrier_if_complete(b);
      break;
    }
    case Op::kExit: {
      handle_exit(w, now);
      break;
    }
  }
  // The LSU issue moved the port, the queue and (a global access) the MSHR.
  if (is_mem(ins.op) && mshr_need_ != kNoMshrWaiter) wake_mshr_waiters();
}

void StreamingMultiprocessor::do_global_access(Warp& w, const Instruction& ins, Cycle now,
                                               std::uint64_t instr_seq,
                                               std::uint64_t instr_uid) {
  txns_.clear();
  const MemAccessContext ctx{w.warp_uid, blocks_[w.block].block_uid, w.mem_seq, instr_seq,
                             instr_uid};
  ++w.mem_seq;
  coalescer_.expand(ins, ctx, txns_);

  Cycle completion = now + cfg_.l1_hit_latency;
  if (ins.op == Op::kStGlobal) {
    // Write-through, no-allocate, fire-and-forget: the store consumes L2 and
    // DRAM bandwidth but the warp only waits for the write-queue handoff
    // (GPGPU-Sim models global stores the same way).
    for (const Addr line : txns_) {
      const Cache::LookupResult r = l1_.lookup(line, now);
      if (!r.hit && !r.mshr_merge && !r.mshr_full) {
        (void)memsys_->access(line, now);  // bandwidth/occupancy only
      }
      if (trace_) trace_->l1_transaction(id_, now, line, obs::L1Outcome::kStore, now);
    }
  } else {
    for (const Addr line : txns_) {
      const Cache::LookupResult r = l1_.lookup(line, now);
      GRS_CHECK_MSG(!r.mshr_full, "MSHR availability was pre-checked for loads");
      Cycle t;
      obs::L1Outcome outcome;
      if (r.hit) {
        t = now + cfg_.l1_hit_latency;
        outcome = obs::L1Outcome::kHit;
      } else if (r.mshr_merge) {
        t = std::max(r.ready, now + cfg_.l1_hit_latency);
        outcome = obs::L1Outcome::kMerge;
      } else {
        t = memsys_->access(line, now);
        l1_.fill_inflight(line, t);
        outcome = obs::L1Outcome::kMiss;
      }
      if (trace_) trace_->l1_transaction(id_, now, line, outcome, t);
      completion = std::max(completion, t);
    }
  }

  ++lsu_inflight_;
  if (completion == now + cfg_.l1_hit_latency) {
    rings_[kL1HitWb].push(now, warp_slot_of(w), ins.dst);
  } else {
    late_loads_.push(Event{completion, warp_slot_of(w), ins.dst});
  }
  w.pending_writes |= reg_bit(ins.dst);
  ++w.inflight;
}

void StreamingMultiprocessor::release_barrier_if_complete(ResidentBlock& b) {
  if (b.barrier_arrived == 0) return;
  if (b.barrier_arrived + b.warps_exited != b.num_warps) return;
  for (std::uint32_t i = 0; i < b.num_warps; ++i) {
    Warp& w = warps_[b.first_warp_slot + i];
    w.at_barrier = false;
    if (w.state == obs::WarpState::kBarrier) wake(w);
  }
  b.barrier_arrived = 0;
}

void StreamingMultiprocessor::handle_exit(Warp& w, Cycle now) {
  GRS_CHECK(w.inflight == 0 && w.pending_writes == 0);
  w.exited = true;
  drop_ready(warp_slot_of(w));
  ResidentBlock& b = blocks_[w.block];
  ++b.warps_exited;
  GRS_CHECK(resident_warps_ > 0);
  --resident_warps_;
  set_state(w, obs::WarpState::kNone, now);

  if (b.is_shared() && cfg_.sharing.resource == Resource::kRegisters) {
    // Shared registers release when their holder warp finishes (paper §III-A).
    PairState& p = pairs_[b.pair_id];
    p.locks.reg_release_on_warp_finish(b.side, w.pos_in_block);
    if (trace_) trace_->lock_release_warp(id_, b.pair_id, now, b.side, w.pos_in_block);
    wake_lock_waiters(p);
  }

  // An exited warp counts as arrived at any barrier the rest are waiting on.
  release_barrier_if_complete(b);

  if (b.finished()) finish_block(w.block, now);
}

void StreamingMultiprocessor::finish_block(BlockSlot bs, Cycle now) {
  ResidentBlock& b = blocks_[bs];
  GRS_CHECK(b.finished());
  b.active = false;
  GRS_CHECK(resident_blocks_ > 0);
  --resident_blocks_;
  ++stats_.blocks_finished;

  if (trace_) trace_->block_finish(id_, bs, b.block_uid, now);

  for (std::uint32_t i = 0; i < b.num_warps; ++i) warps_[b.first_warp_slot + i].active = false;

  if (b.is_shared()) {
    PairState& p = pairs_[b.pair_id];
    p.locks.on_block_finish(b.side);
    if (trace_) trace_->lock_release_block(id_, b.pair_id, now, b.side);
    // Ownership transfer (paper §IV-A): the surviving partner becomes the
    // owner; if the pair is now empty, the next launch re-seeds ownership.
    const BlockSlot partner_slot = occ_.unshared_blocks +
                                   static_cast<std::uint32_t>(b.pair_id) * 2 +
                                   static_cast<std::uint32_t>(1 - b.side);
    if (blocks_[partner_slot].active) {
      if (p.owner_side == b.side) {
        // Transfer ownership to the survivor and entitle it to the shared
        // pool, so the replacement block launched into this slot cannot win
        // the lock race against the resumed partner (paper §IV-A).
        p.owner_side = 1 - b.side;
        p.locks.set_entitled(p.owner_side);
        ++stats_.ownership_transfers;
        if (trace_) trace_->ownership_transfer(id_, b.pair_id, now, p.owner_side);
      }
    } else {
      p.owner_side = PairLockState::kNoSide;
    }
    wake_lock_waiters(p);
  }

  if (on_block_finish_) on_block_finish_(id_, bs);
}

bool StreamingMultiprocessor::drained() const {
  return resident_blocks_ == 0 && late_loads_.empty() &&
         std::all_of(rings_.begin(), rings_.end(),
                     [](const WritebackRing& r) { return r.empty(); });
}

}  // namespace grs
