#include "cache/result_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "cache/key.h"
#include "common/check.h"
#include "gpu/result_codec.h"

namespace grs::cache {

namespace fs = std::filesystem;

namespace {

/// The whole of the open file `fd`, in one read sized by fstat (retried on
/// EINTR). False on a read error or a short read, which a lookup counts as
/// `corrupt`, like any other damaged entry (a directory at the entry path
/// fails the read).
bool read_whole(int fd, std::string& out) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return false;
  out.resize(static_cast<std::size_t>(st.st_size));
  ssize_t got = 0;
  do {
    got = ::read(fd, out.data(), out.size());
  } while (got < 0 && errno == EINTR);
  return got >= 0 && static_cast<std::size_t>(got) == out.size();
}

}  // namespace

std::optional<CacheMode> parse_cache_mode(const std::string& s) {
  if (s == "off") return CacheMode::kOff;
  if (s == "read") return CacheMode::kRead;
  if (s == "readwrite") return CacheMode::kReadWrite;
  if (s == "verify") return CacheMode::kVerify;
  return std::nullopt;
}

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  hits += o.hits;
  misses += o.misses;
  corrupt += o.corrupt;
  stores += o.stores;
  verified += o.verified;
  verify_failures += o.verify_failures;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  return *this;
}

std::string CacheStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu hits, %llu misses, %llu corrupt, %llu stored, %llu verified, "
                "%llu verify failures, %llu B read, %llu B written",
                static_cast<unsigned long long>(hits), static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(corrupt),
                static_cast<unsigned long long>(stores),
                static_cast<unsigned long long>(verified),
                static_cast<unsigned long long>(verify_failures),
                static_cast<unsigned long long>(bytes_read),
                static_cast<unsigned long long>(bytes_written));
  return buf;
}

ResultCache::ResultCache(std::string dir, CacheMode mode)
    : dir_(std::move(dir)), mode_(mode) {
  GRS_CHECK_MSG(mode_ != CacheMode::kOff, "a ResultCache is never constructed in off mode");
  GRS_CHECK_MSG(!dir_.empty(), "result cache needs a directory");
}

std::string ResultCache::entry_path(const std::string& key) const {
  std::string path;
  path.reserve(dir_.size() + key.size() + 16);
  path += dir_;
  path += '/';
  path += schema_tag();
  path += '/';
  path.append(key, 0, 2);
  path += '/';
  path += key;
  path += ".grsr";
  return path;
}

bool ResultCache::lookup(const std::string& key, std::string* payload, SimResult* result) {
  const std::string path = entry_path(key);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::string bytes;
  const bool whole = read_whole(fd, bytes);
  ::close(fd);
  SimResult decoded;
  if (!whole || !decode_result(bytes, decoded)) {
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(bytes.size(), std::memory_order_relaxed);
  if (payload != nullptr) *payload = std::move(bytes);
  if (result != nullptr) *result = decoded;
  return true;
}

void ResultCache::store(const std::string& key, const SimResult& result) {
  const std::string payload = encode_result(result);
  const fs::path path = entry_path(key);

  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) {
    throw std::runtime_error("result cache: cannot create " + path.parent_path().string() +
                             ": " + ec.message());
  }

  // Unique temp name in the final directory so rename() stays within one
  // filesystem (atomic on POSIX). pid + sequence uniquifies across the
  // processes and threads that may race on one key; whoever renames last
  // wins with a payload of the same stats.
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    tmp_seq_.fetch_add(1, std::memory_order_relaxed)));
  const fs::path tmp = path.string() + suffix;
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw std::runtime_error("result cache: cannot write " + tmp.string());
    f << payload;
    f.flush();
    if (!f) {
      fs::remove(tmp, ec);
      throw std::runtime_error("result cache: short write to " + tmp.string());
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw std::runtime_error("result cache: cannot publish " + path.string() + ": " +
                             ec.message());
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(payload.size(), std::memory_order_relaxed);
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.corrupt = corrupt_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.verified = verified_.load(std::memory_order_relaxed);
  s.verify_failures = verify_failures_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace grs::cache
