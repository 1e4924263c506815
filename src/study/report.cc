#include "study/report.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/io.h"

namespace grs::study {

namespace {

std::string num(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string pct_label(double percent) { return std::to_string(static_cast<int>(percent)) + "%"; }

const char* const kBlocks[8] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};

/// One block character for `v` on the [lo, hi] scale; flat scales render ▄.
std::string block_char(double v, double lo, double hi) {
  if (hi <= lo) return kBlocks[3];
  auto idx = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
  idx = std::min(std::max(idx, 0), 7);
  return kBlocks[idx];
}

/// Min-max scaled sparkline of a series, e.g. ▁▁▃▅██.
std::string sparkline(const std::vector<SeriesPoint>& points) {
  double lo = points.front().ipc, hi = points.front().ipc;
  for (const SeriesPoint& p : points) {
    lo = std::min(lo, p.ipc);
    hi = std::max(hi, p.ipc);
  }
  std::string s;
  for (const SeriesPoint& p : points) s += block_char(p.ipc, lo, hi);
  return s;
}

std::string blocks_arrow(const CellSeries& c) {
  return std::to_string(c.baseline_blocks) + "→" + std::to_string(c.peak_blocks);
}

const char* family_word(Resource r) {
  return r == Resource::kRegisters ? "register" : "scratchpad";
}

const char* family_title(Resource r) {
  return r == Resource::kRegisters ? "Register" : "Scratchpad";
}

const char* family_line(Resource r) {
  return r == Resource::kRegisters ? "Shared-OWF-Unroll-Dyn" : "Shared-OWF";
}

std::string generated_marker() {
  return "<!-- Generated by `grs_bench study` — do not edit by hand. Regenerate with\n"
         "     `./build/grs_bench study` from the repo root (see docs/architecture.md). -->\n";
}

std::string marginal_table(const std::string& heading, const std::string& level_header,
                           const std::vector<MarginalRow>& rows) {
  std::string out = "### " + heading + "\n\n";
  out += "| " + level_header +
         " | cells | mean speedup | max speedup | mean peak % | mean Δblocks |\n";
  out += "| --- | ---: | ---: | ---: | ---: | ---: |\n";
  for (const MarginalRow& r : rows) {
    out += "| " + r.level + " | " + std::to_string(r.cells) + " | " + num(r.mean_speedup) +
           " | " + num(r.max_speedup) + " | " + num(r.mean_peak_percent, 0) + " | " +
           num(r.mean_extra_blocks, 1) + " |\n";
  }
  return out + "\n";
}

/// Cells sorted by descending speedup (kernel name breaks ties) — the
/// report's "top cells" ranking.
std::vector<const CellSeries*> ranked(const std::vector<CellSeries>& cells) {
  std::vector<const CellSeries*> order;
  order.reserve(cells.size());
  for (const CellSeries& c : cells) order.push_back(&c);
  std::sort(order.begin(), order.end(), [](const CellSeries* a, const CellSeries* b) {
    if (a->speedup != b->speedup) return a->speedup > b->speedup;
    return a->kernel < b->kernel;
  });
  return order;
}

}  // namespace

std::string family_csv(const FamilyAggregation& fam, const StudyGrid& grid) {
  (void)grid;
  std::string out =
      "kernel,regs_per_thread,staging_bytes,memory,lanes,percent,ipc,blocks,speedup_vs_0\n";
  for (const CellSeries& c : fam.cells) {
    for (const SeriesPoint& p : c.points) {
      out += c.kernel + "," + std::to_string(c.axes.regs_per_thread) + "," +
             std::to_string(c.axes.smem_per_block) + "," +
             memory_level_name(c.axes.mem_intensity) + "," + std::to_string(c.axes.lanes) +
             "," + num(p.percent, 0) + "," + num(p.ipc, 4) + "," + std::to_string(p.blocks) +
             "," + num(c.baseline_ipc == 0 ? 1.0 : p.ipc / c.baseline_ipc, 4) + "\n";
    }
  }
  return out;
}

std::string family_markdown(const FamilyAggregation& fam, const StudyGrid& grid) {
  const std::string word = family_word(fam.resource);
  std::string out =
      "# " + std::string(family_title(fam.resource)) + "-sharing study — generated axes\n\n";
  out += generated_marker() + "\n";

  out += "`" + std::string(family_line(fam.resource)) + "` " + word +
         "-sharing line over the generated axis grid: **" + std::to_string(fam.cells.size()) +
         " cells** (register pressure × staging tile × memory-boundedness × divergence, one "
         "seeded kernel per cell), each swept over sharing percentages";
  std::string plist;
  for (double p : grid.percents) {
    if (!plist.empty()) plist += "/";
    plist += pct_label(p);
  }
  out += " " + plist + ". Speedup is peak IPC over the family's own 0% column.\n";
  if (fam.skipped > 0) {
    out += "\n**Warning: " + std::to_string(fam.skipped) +
           " kernels were skipped for missing points (filtered run); this page is "
           "incomplete.**\n";
  }
  out += "\n## Where the series peak\n\n| peak sharing % | cells | |\n| ---: | ---: | :--- |\n";
  std::size_t max_count = 1;
  for (std::size_t c : fam.peak_histogram) max_count = std::max(max_count, c);
  for (std::size_t i = 0; i < fam.peak_histogram.size(); ++i) {
    const std::size_t count = fam.peak_histogram[i];
    std::string bar;
    if (count > 0) {
      const std::size_t len = std::max<std::size_t>(count * 24 / max_count, 1);
      for (std::size_t k = 0; k < len; ++k) bar += "▇";
    }
    out += "| " + pct_label(grid.percents[i]) + " | " + std::to_string(count) + " | " + bar +
           " |\n";
  }

  out += "\n## Per-axis marginals\n\n";
  out += marginal_table("Register pressure", "regs/thread", fam.by_regs);
  out += marginal_table("Staging tile", "scratchpad/block", fam.by_staging);
  out += marginal_table("Memory-boundedness", "memory", fam.by_memory);
  out += marginal_table("Divergence", "lanes/warp", fam.by_lanes);

  const std::string row_axis =
      fam.resource == Resource::kRegisters ? "regs/thread" : "staging tile";
  out += "## Speedup surface — " + row_axis + " × memory-boundedness\n\n";
  out += "Mean best-speedup over the remaining axes.\n\n| " + row_axis + " \\ memory |";
  for (const std::string& c : fam.surface_cols) out += " " + c + " |";
  out += "\n| --- |";
  for (std::size_t i = 0; i < fam.surface_cols.size(); ++i) out += " ---: |";
  out += "\n";
  double lo = 1e300, hi = -1e300;
  for (const auto& row : fam.surface) {
    for (double v : row) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  for (std::size_t i = 0; i < fam.surface.size(); ++i) {
    out += "| " + fam.surface_rows[i] + " |";
    for (double v : fam.surface[i]) out += " " + num(v) + " " + block_char(v, lo, hi) + " |";
    out += "\n";
  }

  out += "\n## Top cells\n\n";
  out += "| kernel | regs | staging | memory | lanes | IPC series | IPC 0% | peak IPC | peak % "
         "| blocks | speedup |\n";
  out += "| :--- | ---: | ---: | --- | ---: | --- | ---: | ---: | ---: | --- | ---: |\n";
  const std::vector<const CellSeries*> order = ranked(fam.cells);
  const std::size_t top = std::min<std::size_t>(order.size(), 10);
  for (std::size_t i = 0; i < top; ++i) {
    const CellSeries& c = *order[i];
    out += "| " + c.kernel + " | " + std::to_string(c.axes.regs_per_thread) + " | " +
           std::to_string(c.axes.smem_per_block) + " | " +
           memory_level_name(c.axes.mem_intensity) + " | " + std::to_string(c.axes.lanes) +
           " | " + sparkline(c.points) + " | " + num(c.baseline_ipc) + " | " +
           num(c.peak_ipc) + " | " + num(c.peak_percent, 0) + " | " + blocks_arrow(c) + " | " +
           num(c.speedup) + " |\n";
  }
  return out;
}

std::string corpus_markdown(const StudyAggregation& agg) {
  std::string out = "# Sharing study — saved corpus (`examples/kernels/`)\n\n";
  out += generated_marker() + "\n";
  out += "The committed `.gkd` corpus — pathological shapes and trace-imported kernels — swept "
         "through the same sharing lines as the generated grid (paper Tables V/VII shape: IPC "
         "per sharing percentage).\n";
  for (const FamilyAggregation* fam : {&agg.registers, &agg.scratchpad}) {
    out += "\n## " + std::string(family_word(fam->resource)) + " sharing (`" +
           family_line(fam->resource) + "`)\n\n";
    if (fam->corpus.empty()) {
      out += "No corpus kernels (directory missing or none declare the resource).\n";
      continue;
    }
    out += "| kernel |";
    for (double p : agg.grid.percents) out += " " + pct_label(p) + " |";
    out += " series | peak % | blocks | speedup |\n| :--- |";
    for (std::size_t i = 0; i < agg.grid.percents.size(); ++i) out += " ---: |";
    out += " --- | ---: | --- | ---: |\n";
    for (const CellSeries& c : fam->corpus) {
      out += "| " + c.kernel + " |";
      for (const SeriesPoint& p : c.points) out += " " + num(p.ipc) + " |";
      out += " " + sparkline(c.points) + " | " + num(c.peak_percent, 0) + " | " +
             blocks_arrow(c) + " | " + num(c.speedup) + " |\n";
    }
  }
  return out;
}

std::string corpus_csv(const StudyAggregation& agg) {
  std::string out = "family,kernel,percent,ipc,blocks,speedup_vs_0\n";
  for (const FamilyAggregation* fam : {&agg.registers, &agg.scratchpad}) {
    for (const CellSeries& c : fam->corpus) {
      for (const SeriesPoint& p : c.points) {
        out += std::string(family_word(fam->resource)) + "," + c.kernel + "," +
               num(p.percent, 0) + "," + num(p.ipc, 4) + "," + std::to_string(p.blocks) + "," +
               num(c.baseline_ipc == 0 ? 1.0 : p.ipc / c.baseline_ipc, 4) + "\n";
      }
    }
  }
  return out;
}

namespace {

/// "lvl1 1.00 → lvl2 1.03 → ..." rendering of a marginal column.
std::string trend_chain(const std::vector<MarginalRow>& rows) {
  std::string s;
  for (const MarginalRow& r : rows) {
    if (r.cells == 0) continue;
    if (!s.empty()) s += " → ";
    s += r.level + " " + num(r.mean_speedup);
  }
  return s;
}

/// Mean register-family speedup per memory level over the cells whose peak
/// actually launched extra blocks — the §V claim is about what recovered
/// blocks buy, so cells sharing cannot help (no waste to recover) are
/// excluded.
std::string memory_trend_given_blocks(const StudyAggregation& agg) {
  std::string s;
  for (std::uint32_t m : agg.grid.memory) {
    double sum = 0;
    std::size_t n = 0;
    for (const CellSeries& c : agg.registers.cells) {
      if (c.axes.mem_intensity != m || c.peak_blocks <= c.baseline_blocks) continue;
      sum += c.speedup;
      ++n;
    }
    if (!s.empty()) s += " → ";
    s += std::string(memory_level_name(m)) + " " +
         (n == 0 ? std::string("-") : num(sum / static_cast<double>(n)));
  }
  return s;
}

}  // namespace

std::string index_markdown(const StudyAggregation& agg) {
  const StudyGrid& grid = agg.grid;
  std::string out = "# Sharing study — GenProfile axes × sharing percentage\n\n";
  out += generated_marker() + "\n";
  out += "A parametric reproduction of the paper's Table V–VIII sweeps on continuous axes "
         "instead of the 19 fixed benchmark points: seeded kernels generated from "
         "`workloads::gen::study_profile` at every grid cell, swept across the register- and "
         "scratchpad-sharing lines by the parallel runner, aggregated by `src/study/`.\n\n";

  out += "## Grid\n\n| axis | levels |\n| :--- | :--- |\n";
  auto levels_row = [&out](const std::string& name, const std::vector<std::uint32_t>& values,
                           const std::string& unit) {
    out += "| " + name + " |";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i == 0 ? " " : ", ") + std::to_string(values[i]);
    }
    out += unit + " |\n";
  };
  levels_row("register pressure", grid.regs, " regs/thread");
  levels_row("staging tile", grid.staging, " scratchpad B/block");
  out += "| memory-boundedness |";
  for (std::size_t i = 0; i < grid.memory.size(); ++i) {
    out += (i == 0 ? " " : ", ") + std::string(memory_level_name(grid.memory[i]));
  }
  out += " |\n";
  levels_row("divergence", grid.lanes, " lanes/warp");
  out += "| sharing % |";
  for (std::size_t i = 0; i < grid.percents.size(); ++i) {
    out += (i == 0 ? " " : ", ") + pct_label(grid.percents[i]);
  }
  out += " |\n| generator seed | " + std::to_string(grid.seed) + " |\n";

  out += "\n## Headline\n\n";
  for (const FamilyAggregation* fam : {&agg.registers, &agg.scratchpad}) {
    const std::vector<const CellSeries*> order = ranked(fam->cells);
    out += "- **" + std::string(family_word(fam->resource)) + " sharing**: " +
           std::to_string(fam->cells.size()) + " generated cells, " +
           std::to_string(fam->corpus.size()) + " corpus kernels.";
    if (!order.empty()) {
      const CellSeries& best = *order.front();
      out += " Best cell `" + best.kernel + "`: " + num(best.speedup) + "× at " +
             num(best.peak_percent, 0) + "% sharing (" + blocks_arrow(best) + " blocks/SM).";
    }
    out += "\n";
  }

  out += "\n## Trend checks vs the paper\n\n";
  out += "| claim (paper) | measured (mean speedup per level) |\n| :--- | :--- |\n";
  out += "| register-sharing gains grow with register pressure (Tables V/VI) | regs/thread " +
         trend_chain(agg.registers.by_regs) + " |\n";
  out += "| recovered blocks pay off most under memory pressure (§V) | cells that gained "
         "blocks: " +
         memory_trend_given_blocks(agg) + " |\n";
  out += "| scratchpad-sharing gains grow with the staging tile (Tables VII/VIII) | staging " +
         trend_chain(agg.scratchpad.by_staging) + " |\n";
  std::size_t limited = 0, limited_high_peak = 0;
  for (const CellSeries& c : agg.registers.cells) {
    if (c.speedup > 1.05) {
      ++limited;
      if (c.peak_percent >= 70.0) ++limited_high_peak;
    }
  }
  out += "| kernels that benefit peak at high sharing percentages (Table V) | " +
         std::to_string(limited_high_peak) + "/" + std::to_string(limited) +
         " benefiting cells peak at ≥ 70% |\n";

  out += "\n## Pages\n\n"
         "- [register_sharing.md](register_sharing.md) — surfaces, marginals, peaks "
         "([CSV](register_sharing.csv))\n"
         "- [scratchpad_sharing.md](scratchpad_sharing.md) — same for scratchpad "
         "([CSV](scratchpad_sharing.csv))\n"
         "- [corpus.md](corpus.md) — the saved `.gkd` corpus, including trace imports "
         "([CSV](corpus.csv))\n\n"
         "## Regenerating\n\n"
         "```sh\n"
         "./build/grs_bench study            # rewrites docs/study/ in place\n"
         "GRS_STUDY_DIR=/tmp/study ./build/grs_bench study   # elsewhere\n"
         "scripts/check_docs.sh              # CI: regenerate + diff + flag-drift check\n"
         "```\n\n"
         "Reports are byte-identical for any `--threads` value and across re-runs; any diff "
         "against the committed pages is a real behaviour change and should be committed with "
         "the PR that caused it.\n";
  return out;
}

std::vector<std::string> write_reports(const StudyAggregation& agg, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw std::runtime_error("cannot create " + dir + ": " + ec.message());

  const std::vector<std::pair<std::string, std::string>> files = {
      {"index.md", index_markdown(agg)},
      {"register_sharing.md", family_markdown(agg.registers, agg.grid)},
      {"register_sharing.csv", family_csv(agg.registers, agg.grid)},
      {"scratchpad_sharing.md", family_markdown(agg.scratchpad, agg.grid)},
      {"scratchpad_sharing.csv", family_csv(agg.scratchpad, agg.grid)},
      {"corpus.md", corpus_markdown(agg)},
      {"corpus.csv", corpus_csv(agg)},
  };
  std::vector<std::string> written;
  for (const auto& [name, content] : files) {
    write_file(dir + "/" + name, content);
    written.push_back(name);
  }
  return written;
}

}  // namespace grs::study
