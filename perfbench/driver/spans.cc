#include "spans.h"

#include <cstdio>
#include <stdexcept>

#include "common/clock.h"

namespace perfbench {

int SpanLog::begin(const char* name) {
  Span s;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.name = name;
  s.start = grs::monotonic_seconds();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::end(int index) {
  if (open_.empty() || open_.back() != index) throw std::logic_error("span closed out of order");
  spans_[static_cast<std::size_t>(index)].end = grs::monotonic_seconds();
  open_.pop_back();
}

std::string SpanLog::json() const {
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::string out = "[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "%s[%d,%d,\"%s\",%.9f,%.9f]", i == 0 ? "" : ",", s.parent,
                  s.op, s.name, s.start - t0, s.end - t0);
    out += buf;
  }
  return out + "]";
}

}  // namespace perfbench
