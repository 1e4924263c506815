// Benchmark-side trace spans.
//
// The traced pass records one span around every call the benchmark makes
// into a public entry point of the simulator (simulate, run_sweep, the result
// cache, the study pipeline, the kernel generator and loader), plus one root
// span per op. Spans stay in memory and are written out when the run ends;
// self times are derived afterwards (perfbench/analysis.py). Nothing here is
// compiled into the simulator itself.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int parent = -1;             ///< index of the enclosing span; -1 for an op root
  int op = 0;                  ///< op id shared by every span of one op
  const char* name = nullptr;  ///< "<layer>.<call>", e.g. "gpu.simulate"
  double start = 0.0;          ///< monotonic seconds
  double end = 0.0;
};

/// Single-threaded span recorder: spans nest by call order.
class SpanLog {
 public:
  /// Open a span under the innermost open one; returns its index.
  int begin(const char* name);
  void end(int index);

  /// Op id given to spans opened from now on.
  void set_op(int op) { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// [[parent, op, "name", start, end], ...] with start/end relative to the
  /// first span, in seconds.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int op_ = 0;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
