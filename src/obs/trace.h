// ChromeTraceSink: where instrumentation events go when tracing is on.
//
// The simulator side (obs::SimObserver) produces TraceEvent records already
// carrying final pid/tid/ts coordinates; the sink only serializes them, in
// the Chrome trace-event JSON object format that Perfetto and
// chrome://tracing load directly — one event per line, appended strictly in
// hook-call order, so a trace is byte-identical whenever the hook stream is
// (the determinism contract tests/test_obs.cc locks in).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace grs::obs {

/// One trace-event record. `name`/`cat` point at static strings (the emitter
/// owns no dynamic names — variable data goes into `args_json`).
struct TraceEvent {
  char ph = 'i';            ///< 'M' meta, 'B'/'E' slice, 'i' instant, 'X' complete
  std::uint32_t pid = 0;    ///< process: SM or memory system (obs/events.h)
  std::uint32_t tid = 0;    ///< track within the process
  Cycle ts = 0;             ///< sim-cycle timestamp
  Cycle dur = 0;            ///< 'X' only: duration in cycles
  const char* name = "";
  const char* cat = nullptr;      ///< optional category
  std::string args_json;          ///< optional rendered `{...}` object
};

/// Serializes to the Chrome trace-event JSON object format, buffered in
/// memory; the runner writes `str()` to disk after the sweep so parallel
/// sweep points never interleave file writes.
class ChromeTraceSink {
 public:
  void begin();
  void emit(const TraceEvent& e);
  /// `other_data_json` is a rendered `{...}` object for the file trailer.
  void end(const std::string& other_data_json);

  /// The complete JSON document (valid only after end()).
  [[nodiscard]] const std::string& str() const { return buf_; }

 private:
  std::string buf_;
  bool first_ = true;
};

}  // namespace grs::obs
