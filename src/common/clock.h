// Monotonic wall-clock helpers for runner-side telemetry: per-cell timing,
// progress ETAs, and run manifests (src/runner).
//
// This is the ONE place host time is read (the profiler's sampling timer in
// src/prof only counts its ticks). Never use it inside simulation state
// (src/sm, src/gpu, src/memory, src/core): simulate() must remain a pure
// function of (config, kernel) so the cross-mode equivalence suite, the fuzz
// oracle, and the content-addressed result cache stay valid.
#pragma once

namespace grs {

/// Seconds on a monotonic clock with an arbitrary epoch. Differences between
/// two calls are wall-clock durations immune to system clock adjustments.
[[nodiscard]] double monotonic_seconds();

/// Stopwatch over monotonic_seconds(); starts at construction.
class WallTimer {
 public:
  WallTimer() : start_(monotonic_seconds()) {}
  void restart() { start_ = monotonic_seconds(); }
  [[nodiscard]] double seconds() const { return monotonic_seconds() - start_; }

 private:
  double start_;
};

}  // namespace grs
