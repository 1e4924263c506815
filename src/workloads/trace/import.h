// Trace import: build a simulatable KernelInfo from a real address trace.
//
// The pipeline is reader -> reducer -> kernel synthesis: every static memory
// instruction observed in the trace (every pc) becomes one profile-carrying
// ld.global/st.global in the synthesized program, in pc order, interleaved
// with ALU ops that thread register dependencies the way compiled kernels
// do. The shape is fixed: 256-thread blocks of 16 registers per thread,
// named "trace-<file stem>"; the loop trip count reproduces the mean dynamic
// access count per warp, and the grid covers the highest observed thread
// id. To change the shape, edit the dumped .gkd. The enum pattern/locality
// labels on each instruction are set to the nearest classical description
// of the measured histograms, so the kernel stays meaningful to tools that
// ignore profiles.
//
// The result always passes KernelInfo::validate() and fits the default
// GpuConfig (paper Table I), and serializing it to .gkd round-trips
// byte-identically — imported kernels are first-class workloads.
#pragma once

#include <string>

#include "workloads/kernel_info.h"
#include "workloads/trace/trace_reader.h"

namespace grs::workloads::trace {

/// Import from trace text. `filename` labels errors and names the kernel.
/// Throws TraceError on parse failures.
[[nodiscard]] KernelInfo import_trace(const std::string& text, const std::string& filename);

/// Read, parse and import `path`.
[[nodiscard]] KernelInfo import_trace_file(const std::string& path);

}  // namespace grs::workloads::trace
