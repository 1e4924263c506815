#include "runner/kernel_source.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "common/config.h"
#include "common/parse.h"
#include "gpu/simulator.h"
#include "workloads/format/gkd.h"
#include "workloads/gen/generator.h"
#include "workloads/suites.h"
#include "workloads/trace/import.h"

namespace grs::runner {

namespace {

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

KernelInfo resolve_kernel(const std::string& spec) {
  if (spec.compare(0, 4, "gen:") == 0) {
    const std::string rest = spec.substr(4);  // "<profile>:<seed>"
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::runtime_error("bad generator spec '" + spec +
                               "': expected gen:<profile>:<seed>");
    }
    const std::optional<std::uint64_t> seed = parse_u64(rest.substr(colon + 1));
    if (!seed.has_value()) {
      throw std::runtime_error("bad generator spec '" + spec +
                               "': seed must be a non-negative integer");
    }
    const workloads::gen::GenProfile profile =
        workloads::gen::profile_by_name(rest.substr(0, colon));
    return workloads::gen::generate(profile, *seed);
  }
  if (spec.compare(0, 6, "trace:") == 0) {
    const std::string path = spec.substr(6);
    if (path.empty()) {
      throw std::runtime_error("bad trace spec '" + spec + "': expected trace:<file>");
    }
    return workloads::trace::import_trace_file(path);
  }
  if (has_suffix(spec, ".gkd") || spec.find('/') != std::string::npos) {
    return workloads::gkd::load_file(spec);
  }
  if (std::optional<KernelInfo> k = workloads::find_by_name(spec)) return *std::move(k);
  std::string names;
  for (const auto& n : workloads::all_names()) {
    if (!names.empty()) names += ' ';
    names += n;
  }
  throw std::runtime_error("unknown kernel '" + spec + "'; valid names: " + names +
                           " (or a .gkd file path, gen:<profile>:<seed>, or trace:<file>)");
}

std::string default_corpus_dir() {
  const char* env = std::getenv("GRS_CORPUS_DIR");
  return env != nullptr && *env != '\0' ? env : "examples/kernels";
}

std::vector<KernelInfo> load_kernel_dir(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".gkd") paths.push_back(entry.path().string());
  }
  if (ec) {
    throw std::runtime_error("cannot read the kernel corpus " + dir + ": " + ec.message() +
                             " (run from the repo root or set GRS_CORPUS_DIR)");
  }
  std::sort(paths.begin(), paths.end());
  const GpuConfig paper_gpu;
  std::vector<KernelInfo> kernels;
  for (const std::string& path : paths) {
    std::string why;
    try {
      KernelInfo k = workloads::gkd::load_file(path);
      for (const Refusal& r : refusals(paper_gpu, k))
        why += (why.empty() ? "a " : "; a ") + r.reason;
      if (why.empty()) kernels.push_back(std::move(k));
    } catch (const std::exception& e) {
      why = e.what();
    }
    if (!why.empty())
      std::fprintf(stderr, "[corpus] skipping %s: %s\n", path.c_str(), why.c_str());
  }
  if (kernels.empty()) {
    std::fprintf(stderr, "[corpus] no loadable .gkd kernels under %s\n", dir.c_str());
  }
  return kernels;
}

}  // namespace grs::runner
