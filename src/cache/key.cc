#include "cache/key.h"

#include "common/format.h"
#include "common/hash.h"
#include "core/occupancy.h"
#include "gpu/result_codec.h"
#include "gpu/simulator.h"
#include "workloads/format/gkd.h"

namespace grs::cache {

std::string schema_tag() {
  std::string tag = "v";
  append_u64(tag, kSimSchemaVersion);
  tag += "-r";
  append_u64(tag, kResultCodecVersion);
  return tag;
}

std::string kernel_fingerprint(const KernelInfo& kernel) {
  return Fingerprints().kernel_fingerprint(kernel);
}

std::string result_cache_key(const GpuConfig& cfg, const KernelInfo& kernel) {
  return Fingerprints().result_cache_key(cfg, kernel);
}

const std::string& Fingerprints::memo() {
  const auto it = sha_of_.find(text_);
  if (it != sha_of_.end()) return it->second;
  // Copied, not moved: the key is allocated to size and text_ keeps its
  // capacity for the next text.
  return sha_of_.emplace(text_, sha256_hex(text_)).first->second;
}

const std::string& Fingerprints::kernel_fingerprint(const KernelInfo& kernel) {
  text_.clear();
  workloads::gkd::serialize(kernel, text_);
  return memo();
}

const std::string& Fingerprints::config_fingerprint(const GpuConfig& cfg) {
  text_.clear();
  cfg.canonical_kv(text_);
  return memo();
}

std::string Fingerprints::result_cache_key(const GpuConfig& cfg, const KernelInfo& kernel) {
  const Occupancy o = compute_occupancy(cfg, kernel.resources);
  std::string material;
  material.reserve(256);
  material += "grs-result-cache ";
  material += schema_tag();
  material += "\nconfig ";
  material += config_fingerprint(machine_config(cfg));
  material += "\nplan";
  const auto plan_field = [&material](std::uint64_t v) {
    material += ' ';
    append_u64(material, v);
  };
  plan_field(o.baseline_blocks);
  plan_field(static_cast<unsigned>(o.limiter));
  plan_field(o.sharing_active);
  plan_field(o.total_blocks);
  plan_field(o.unshared_blocks);
  plan_field(o.shared_pairs);
  plan_field(o.unshared_regs_per_thread);
  plan_field(o.unshared_smem_bytes);
  material += ' ';
  append_exact(material, o.baseline_waste_percent);
  material += "\nkernel ";
  material += kernel_fingerprint(kernel);
  material += '\n';
  return sha256_hex(material);
}

}  // namespace grs::cache
