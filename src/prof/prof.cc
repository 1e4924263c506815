#include "prof/prof.h"

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <numeric>

#include "common/clock.h"
#include "common/io.h"

namespace grs::prof {

namespace {

constexpr long kPeriodNs = 1000000;  ///< one sample per millisecond of wall time

/// The profiler whose root scope is open on this thread, else null.
thread_local HostProfiler* t_prof = nullptr;

/// Allocates nothing and takes no lock: one increment on the open profiler.
void on_sample(int) {
  if (t_prof != nullptr && t_open != kNoPhase) t_prof->add_sample(t_open);
}

/// This thread's sampler: a CLOCK_MONOTONIC timer that sends the thread
/// SIGPROF every kPeriodNs while one of its root scopes is open. Created at
/// the thread's first root scope, deleted when the thread exits.
struct Sampler {
  Sampler() {
    struct sigaction sa = {};
    sa.sa_handler = on_sample;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigevent ev{};
    ev.sigev_notify = SIGEV_THREAD_ID;
    ev.sigev_signo = SIGPROF;
    ev._sigev_un._tid = gettid();
    ok = sigaction(SIGPROF, &sa, nullptr) == 0 && timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0;
  }
  ~Sampler() {
    if (ok) timer_delete(timer);
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  timer_t timer{};
  bool ok = false;
  /// Time left to the next sample when the last root closed. The next root
  /// resumes it, so roots shorter than the period are sampled pro rata.
  timespec left{0, kPeriodNs};
  double start = 0.0;  ///< the open root's clock reading
};

Sampler& sampler() {
  thread_local Sampler s;
  return s;
}

}  // namespace

const char* to_string(Phase p) {
  static constexpr const char* kNames[kNumPhases] = {
      "simulate",    "execute_writeback", "scheduler_scan",  "issue",        "memsys_l2",
      "dram",        "event_sleep",       "timeline_sample", "cache_lookup", "cache_store"};
  return static_cast<std::size_t>(p) < kNumPhases ? kNames[static_cast<std::size_t>(p)] : "?";
}

void HostProfiler::open_root() {
  Sampler& s = sampler();
  t_prof = this;
  s.start = monotonic_seconds();
  if (s.ok) {
    const itimerspec arm{{0, kPeriodNs}, s.left};
    timer_settime(s.timer, 0, &arm, nullptr);
  }
}

void HostProfiler::close_root() {
  Sampler& s = sampler();
  wall_ += monotonic_seconds() - s.start;
  if (s.ok) {
    // A sample already due is delivered as this call returns, to the root.
    const itimerspec stop{};
    itimerspec old{};
    timer_settime(s.timer, 0, &stop, &old);
    const bool due = old.it_value.tv_sec == 0 && old.it_value.tv_nsec == 0;
    s.left = due ? timespec{0, kPeriodNs} : old.it_value;
  }
  t_prof = nullptr;
}

void HostProfiler::merge(const HostProfiler& o) {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    calls_[i] += o.calls_[i];
    samples_[i] += o.samples_[i];
  }
  wall_ += o.wall_;
  warps_scanned_ += o.warps_scanned_;
  warps_decided_ += o.warps_decided_;
  fingerprints_hashed_ += o.fingerprints_hashed_;
}

std::uint64_t HostProfiler::samples() const {
  return std::accumulate(samples_.begin(), samples_.end(), std::uint64_t{0});
}

double HostProfiler::self_seconds(Phase p) const {
  const std::uint64_t n = samples();
  return n == 0 ? 0.0 : wall_ * static_cast<double>(samples(p)) / static_cast<double>(n);
}

std::string HostProfiler::json() const {
  char tmp[192];
  std::snprintf(tmp, sizeof tmp,
                "{\"schema\":\"grs-prof-v2\",\"wall_seconds\":%.9f,\"samples\":%llu,\"phases\":[",
                wall_, static_cast<unsigned long long>(samples()));
  std::string out = tmp;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const auto p = static_cast<Phase>(i);
    std::snprintf(tmp, sizeof tmp,
                  "%s{\"name\":\"%s\",\"calls\":%llu,\"samples\":%llu,\"self_s\":%.9f}",
                  i == 0 ? "" : ",", to_string(p), static_cast<unsigned long long>(calls_[i]),
                  static_cast<unsigned long long>(samples_[i]), self_seconds(p));
    out += tmp;
  }
  std::snprintf(tmp, sizeof tmp,
                "],\"counts\":{\"warps_scanned\":%llu,\"warps_decided\":%llu,"
                "\"fingerprints_hashed\":%llu}}\n",
                static_cast<unsigned long long>(warps_scanned_),
                static_cast<unsigned long long>(warps_decided_),
                static_cast<unsigned long long>(fingerprints_hashed_));
  return out + tmp;
}

std::string HostProfiler::folded() const {
  std::string out;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    if (samples_[i] == 0) continue;
    std::string stack = to_string(static_cast<Phase>(i));
    for (Phase p = parent(static_cast<Phase>(i)); p != kNoPhase; p = parent(p))
      stack = std::string(to_string(p)) + ';' + stack;
    out += stack + ' ' + std::to_string(samples_[i]) + '\n';
  }
  return out;
}

void write_prof_outputs(const HostProfiler& prof, const std::string& json_path,
                        const std::string& folded_path) {
  if (!json_path.empty()) write_file(json_path, prof.json());
  if (!folded_path.empty()) write_file(folded_path, prof.folded());
}

}  // namespace grs::prof
