#include "cache/key.h"

#include <cstdio>

#include "common/hash.h"
#include "gpu/result_codec.h"
#include "workloads/format/gkd.h"

namespace grs::cache {

std::string schema_tag() {
  return "v" + std::to_string(kSimSchemaVersion) + "-r" + std::to_string(kResultCodecVersion);
}

std::string kernel_fingerprint(const KernelInfo& kernel) {
  return sha256_hex(workloads::gkd::serialize(kernel));
}

std::string result_cache_key(const GpuConfig& cfg, const KernelInfo& kernel) {
  std::string material;
  material.reserve(256);
  material += "grs-result-cache ";
  material += schema_tag();
  material += "\nconfig ";
  material += cfg.fingerprint();
  material += "\nkernel ";
  material += kernel_fingerprint(kernel);
  material += '\n';
  return sha256_hex(material);
}

std::string machine_key(const GpuConfig& cfg, const KernelInfo& kernel) {
  const Occupancy o = compute_occupancy(cfg, kernel.resources);
  char plan[160];
  std::snprintf(plan, sizeof(plan), "\nplan %u %u %u %u %u %u %u %u %.17g\nkernel ",
                o.baseline_blocks, static_cast<unsigned>(o.limiter),
                static_cast<unsigned>(o.sharing_active), o.total_blocks, o.unshared_blocks,
                o.shared_pairs, o.unshared_regs_per_thread, o.unshared_smem_bytes,
                o.baseline_waste_percent);
  std::string material = "grs-machine\nconfig ";
  material += machine_config(cfg).fingerprint();
  material += plan;
  material += kernel_fingerprint(kernel);
  material += '\n';
  return sha256_hex(material);
}

}  // namespace grs::cache
