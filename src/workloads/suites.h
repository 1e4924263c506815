// The paper's benchmark kernels, reproduced as synthetic IR programs.
//
// Resource signatures (block size, registers/thread, scratchpad/block) are
// copied verbatim from paper Tables II-IV, so occupancy-derived results
// (Fig. 1, Fig. 8(a)/(b), Tables VI/VIII) reproduce exactly. Instruction
// mixes and memory behaviour are synthesized to match each application's
// published character (see each factory's comment in suites.cc).
//
// Register numbering follows PTXPlus declaration order, which is *not*
// first-use order (paper Fig. 7a); factories scramble register ids above a
// per-kernel watermark so the unroll/reorder pass (isa/reorder.h) has the
// same effect it has on real PTXPlus.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "workloads/kernel_info.h"

namespace grs::workloads {

// --- Set-1: register-limited (paper Table II) ---------------------------
[[nodiscard]] KernelInfo backprop();  ///< bpnn_adjust_weights_cuda, 256thr, 24reg
[[nodiscard]] KernelInfo btree();     ///< findRangeK, 508thr, 24reg
[[nodiscard]] KernelInfo hotspot();   ///< calculate_temp, 256thr, 36reg
[[nodiscard]] KernelInfo lib();       ///< Pathcalc_Portfolio_KernelGPU, 192thr, 36reg
[[nodiscard]] KernelInfo mum();       ///< mummergpuKernel, 256thr, 28reg
[[nodiscard]] KernelInfo mriq();      ///< ComputeQ_GPU, 256thr, 24reg
[[nodiscard]] KernelInfo sgemm();     ///< mysgemmNT, 128thr, 48reg
[[nodiscard]] KernelInfo stencil();   ///< block2D_hybrid_coarsen_x, 512thr, 28reg

// --- Set-2: scratchpad-limited (paper Table III) -------------------------
[[nodiscard]] KernelInfo conv1();     ///< convolutionRowsKernel, 64thr, 2560B
[[nodiscard]] KernelInfo conv2();     ///< convolutionColumnsKernel, 128thr, 5184B
[[nodiscard]] KernelInfo lavamd();    ///< kernel_gpu_cuda, 128thr, 7200B
[[nodiscard]] KernelInfo nw1();       ///< needle_cuda_shared_1, 16thr, 2180B
[[nodiscard]] KernelInfo nw2();       ///< needle_cuda_shared_2, 16thr, 2180B
[[nodiscard]] KernelInfo srad1();     ///< srad_cuda_1, 256thr, 6144B
[[nodiscard]] KernelInfo srad2();     ///< srad_cuda_2, 256thr, 5120B

// --- Set-3: limited by threads or blocks (paper Table IV) ----------------
[[nodiscard]] KernelInfo backprop_layerforward();  ///< threads-limited
[[nodiscard]] KernelInfo bfs();                    ///< threads-limited
[[nodiscard]] KernelInfo gaussian();               ///< blocks-limited
[[nodiscard]] KernelInfo nn();                     ///< blocks-limited

/// All kernels of a set, in the paper's figure order.
[[nodiscard]] std::vector<KernelInfo> set1();
[[nodiscard]] std::vector<KernelInfo> set2();
[[nodiscard]] std::vector<KernelInfo> set3();

/// Lookup by the paper's display name (e.g. "hotspot", "CONV1"); aborts on
/// unknown names after printing the offending name and the valid-name list.
[[nodiscard]] KernelInfo by_name(const std::string& name);

/// Non-aborting lookup: std::nullopt when `name` is not a built-in kernel.
[[nodiscard]] std::optional<KernelInfo> find_by_name(const std::string& name);

/// Every kernel name across all sets.
[[nodiscard]] std::vector<std::string> all_names();

}  // namespace grs::workloads
