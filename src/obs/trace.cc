#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

#include "common/json.h"

namespace grs::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char tmp[24];
  std::snprintf(tmp, sizeof tmp, "%" PRIu64, v);
  out += tmp;
}

}  // namespace

void ChromeTraceSink::begin() {
  buf_.clear();
  buf_ += "{\"traceEvents\":[\n";
  first_ = true;
}

void ChromeTraceSink::emit(const TraceEvent& e) {
  if (!first_) buf_ += ",\n";
  first_ = false;
  buf_ += "{\"name\":";
  append_json_string(buf_, e.name);
  buf_ += ",\"ph\":\"";
  buf_ += e.ph;
  buf_ += '"';
  if (e.cat != nullptr) {
    buf_ += ",\"cat\":";
    append_json_string(buf_, e.cat);
  }
  buf_ += ",\"pid\":";
  append_u64(buf_, e.pid);
  buf_ += ",\"tid\":";
  append_u64(buf_, e.tid);
  if (e.ph != 'M') {
    buf_ += ",\"ts\":";
    append_u64(buf_, e.ts);
  }
  if (e.ph == 'X') {
    buf_ += ",\"dur\":";
    append_u64(buf_, e.dur);
  }
  if (e.ph == 'i') buf_ += ",\"s\":\"t\"";  // instant scope: thread
  if (!e.args_json.empty()) {
    buf_ += ",\"args\":";
    buf_ += e.args_json;
  }
  buf_ += '}';
}

void ChromeTraceSink::end(const std::string& other_data_json) {
  buf_ += "\n],\n\"displayTimeUnit\":\"ns\"";
  if (!other_data_json.empty()) {
    buf_ += ",\n\"otherData\":";
    buf_ += other_data_json;
  }
  buf_ += "\n}\n";
}

}  // namespace grs::obs
