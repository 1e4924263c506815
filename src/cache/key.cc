#include "cache/key.h"

#include <type_traits>

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

namespace {

/// Writes into `material` the key material of the file comment for (cfg,
/// kernel), given the config half (`config`, machine_config(cfg)'s
/// fingerprint) and the kernel half (`kernel_fp`). The one field list of
/// every key.
void key_material(const GpuConfig& cfg, const KernelInfo& kernel, const std::string& config,
                  const std::string& kernel_fp, std::string& material) {
  const Occupancy o = compute_occupancy(cfg, kernel.resources);
  material = "grs-result-cache ";
  material += schema_tag();
  material += "\nconfig ";
  material += config;
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
  material += kernel_fp;
  material += '\n';
}

}  // namespace

std::string kernel_fingerprint(const KernelInfo& kernel) {
  std::string text;
  workloads::gkd::serialize(kernel, text);
  return sha256_hex(text);
}

std::string result_cache_key(const GpuConfig& cfg, const KernelInfo& kernel) {
  std::string material;
  key_material(cfg, kernel, machine_config(cfg).fingerprint(), kernel_fingerprint(kernel),
               material);
  return sha256_hex(material);
}

const std::string& Fingerprints::memo() {
  const auto it = sha_of_.find(text_);
  if (it != sha_of_.end()) return it->second;
  // Copied, not moved: the key is allocated to size and text_ keeps its
  // capacity for the next text.
  return sha_of_.emplace(text_, sha256_hex(text_)).first->second;
}

const std::string& Fingerprints::kernel_fingerprint(const KernelInfo& kernel) {
  const Program::Storage& storage = kernel.program.storage();
  const void* const at = storage.get();
  id_.assign(reinterpret_cast<const char*>(&at), sizeof at);
  workloads::gkd::serialize_header(kernel, id_);
  const auto it = kernel_of_.find(id_);
  if (it != kernel_of_.end()) return *it->second.fingerprint;
  text_.clear();
  workloads::gkd::serialize(kernel, text_);
  const std::string& fingerprint = memo();
  kernel_of_.emplace(id_, KernelMemo{storage, &fingerprint});
  return fingerprint;
}

const std::string& Fingerprints::config_fingerprint(const GpuConfig& cfg) {
  static_assert(std::is_trivially_copyable_v<GpuConfig>,
                "config_fingerprint keys on GpuConfig's bytes");
  id_.assign(reinterpret_cast<const char*>(&cfg), sizeof cfg);
  const auto it = config_of_.find(id_);
  if (it != config_of_.end()) return *it->second;
  text_.clear();
  cfg.canonical_kv(text_);
  const std::string& fingerprint = memo();
  config_of_.emplace(id_, &fingerprint);
  return fingerprint;
}

const std::string& Fingerprints::result_cache_key(const GpuConfig& cfg,
                                                  const KernelInfo& kernel) {
  const std::string& config = config_fingerprint(machine_config(cfg));
  const std::string& kernel_fp = kernel_fingerprint(kernel);
  key_material(cfg, kernel, config, kernel_fp, id_);
  const auto it = key_of_.find(id_);
  if (it != key_of_.end()) return it->second;
  return key_of_.emplace(id_, sha256_hex(id_)).first->second;
}

}  // namespace grs::cache
