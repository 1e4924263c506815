#include "runner/sink.h"

#include "common/format.h"
#include "common/json.h"
#include "common/table.h"
#include "gpu/result_codec.h"

namespace grs::runner {

namespace {

/// Cells [0, kNumStringColumns) hold strings; the rest are numeric. The JSON
/// sink uses this to decide what to quote.
constexpr std::size_t kNumStringColumns = 4;

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

// The numeric tail of the flat row is no longer hand-maintained here: it is
// the `flat`-flagged subset of the SimResult codec enumeration
// (gpu/result_codec.h), in enumeration order — one schema shared with the
// result cache. Only the identifying string columns (and the kernel's grid
// size, which lives on the sweep point, not the result) are sink-specific.

const std::vector<std::string>& result_columns() {
  static const std::vector<std::string> columns = [] {
    std::vector<std::string> c = {"bench", "variant", "kernel", "set", "grid_blocks"};
    for (const ResultField& f : result_fields())
      if (f.flat) c.emplace_back(f.name);
    return c;
  }();
  return columns;
}

std::vector<std::string> result_cells(const std::string& bench, const SweepRow& row) {
  std::vector<std::string> cells = {bench, row.point.variant, row.point.kernel.name,
                                    row.point.kernel.set};
  cells.reserve(result_columns().size());
  append_u64(cells.emplace_back(), row.point.kernel.grid_blocks);
  for (const ResultField& f : result_fields())
    if (f.flat) cells.push_back(format_result_field(f, row.result));
  return cells;
}

void CsvSink::begin() {
  const auto& cols = result_columns();
  for (std::size_t c = 0; c < cols.size(); ++c)
    out_ << (c == 0 ? "" : ",") << csv_escape(cols[c]);
  out_ << "\n";
}

void CsvSink::add(const std::string& bench, const SweepRow& row) {
  const auto cells = result_cells(bench, row);
  for (std::size_t c = 0; c < cells.size(); ++c)
    out_ << (c == 0 ? "" : ",") << csv_escape(cells[c]);
  out_ << "\n";
}

void JsonSink::begin() { out_ << "[\n"; }

void JsonSink::add(const std::string& bench, const SweepRow& row) {
  const auto& cols = result_columns();
  const auto cells = result_cells(bench, row);
  std::string obj = first_ ? "  {" : ",\n  {";
  first_ = false;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    if (c != 0) obj += ", ";
    append_json_string(obj, cols[c]);
    obj += ": ";
    if (c < kNumStringColumns) {
      append_json_string(obj, cells[c]);
    } else {
      obj += cells[c];
    }
  }
  out_ << obj << "}";
}

void JsonSink::end() { out_ << "\n]\n"; }

void ConsoleTableSink::add(const std::string& bench, const SweepRow& row) {
  if (bench != current_bench_) {
    flush_table();
    current_bench_ = bench;
  }
  const SimResult& r = row.result;
  pending_.push_back({row.point.kernel.name, row.point.variant,
                      std::to_string(r.occupancy.total_blocks),
                      TextTable::fmt(r.stats.ipc()),
                      std::to_string(r.stats.cycles),
                      TextTable::pct(100.0 * r.stats.l1_miss_rate())});
}

void ConsoleTableSink::end() { flush_table(); }

void ConsoleTableSink::flush_table() {
  if (pending_.empty()) return;
  TextTable t({"kernel", "variant", "blocks/SM", "IPC", "cycles", "L1 miss"});
  for (auto& row : pending_) t.add_row(std::move(row));
  t.print("sweep results: " + current_bench_);
  pending_.clear();
}

}  // namespace grs::runner
