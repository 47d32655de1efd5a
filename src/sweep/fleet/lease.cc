#include "src/sweep/fleet/lease.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/sweep/spec_hash.h"

namespace ccas::sweep::fleet {

uint64_t wall_clock_ms() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

LeaseDir::LeaseDir(std::string dir, std::string worker_id, uint64_t ttl_ms,
                   ClockMsFn clock)
    : dir_(std::move(dir)),
      worker_(std::move(worker_id)),
      ttl_ms_(ttl_ms),
      clock_(clock ? std::move(clock) : ClockMsFn(&wall_clock_ms)) {
  if (ttl_ms_ == 0) {
    throw std::invalid_argument("lease TTL must be positive");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec && !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("cannot create lease dir '" + dir_ +
                             "': " + ec.message());
  }
}

std::string LeaseDir::lease_path(uint64_t spec_hash) const {
  return dir_ + "/" + cache_key_hex(spec_hash) + ".lease";
}

bool LeaseDir::write_lease_fd(int fd, const Lease& lease) const {
  char buf[160];
  const int len = std::snprintf(
      buf, sizeof(buf), "lease worker=%s fence=%llu expires=%llu\n",
      lease.worker.c_str(), static_cast<unsigned long long>(lease.fence),
      static_cast<unsigned long long>(lease.expires_ms));
  if (len <= 0 || len >= static_cast<int>(sizeof(buf))) return false;
  return ::write(fd, buf, static_cast<size_t>(len)) == len && ::fsync(fd) == 0;
}

bool LeaseDir::publish(const std::string& path, const Lease& lease) {
  // The body is written and fsync'd under a private name first; link(2)
  // then gives it the lease name only if that name is free. Nobody can
  // open the lease name and find a partial body.
  const std::string tmp =
      path + ".claim." + worker_ + "." +
      std::to_string(tmp_counter_.fetch_add(1, std::memory_order_relaxed));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool written = write_lease_fd(fd, lease);
  ::close(fd);
  const bool linked = written && ::link(tmp.c_str(), path.c_str()) == 0;
  ::unlink(tmp.c_str());
  return linked;
}

std::optional<Lease> LeaseDir::read_lease(const std::string& path,
                                          uint64_t spec_hash,
                                          bool* present) const {
  std::ifstream in(path);
  if (present != nullptr) *present = static_cast<bool>(in);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  std::istringstream fields(line);
  std::string tag;
  if (!(fields >> tag) || tag != "lease") return std::nullopt;
  Lease lease;
  lease.spec_hash = spec_hash;
  bool have_worker = false;
  bool have_fence = false;
  bool have_expires = false;
  std::string field;
  while (fields >> field) {
    if (field.rfind("worker=", 0) == 0) {
      lease.worker = field.substr(7);
      have_worker = !lease.worker.empty();
    } else if (field.rfind("fence=", 0) == 0) {
      lease.fence = std::strtoull(field.c_str() + 6, nullptr, 10);
      have_fence = lease.fence > 0;
    } else if (field.rfind("expires=", 0) == 0) {
      lease.expires_ms = std::strtoull(field.c_str() + 8, nullptr, 10);
      have_expires = true;
    }
  }
  if (!have_worker || !have_fence || !have_expires) return std::nullopt;
  return lease;
}

std::optional<Lease> LeaseDir::claim(uint64_t spec_hash) {
  const std::string path = lease_path(spec_hash);

  // Fast path: the name is free, and the link makes us its only holder.
  // The access() probe keeps a claim on a held cell from paying for the
  // fsync of a body it cannot publish.
  if (::access(path.c_str(), F_OK) != 0) {
    Lease lease{spec_hash, worker_, /*fence=*/1, now_ms() + ttl_ms_};
    if (publish(path, lease)) return lease;
    return std::nullopt;  // a racing claimant published first
  }

  // Existing lease: live holders are left alone; expired (or torn — see
  // header) leases are reclaimed through the rename, whose single winner
  // inherits the fence.
  uint64_t stolen_fence = 0;
  bool present = false;
  if (const auto current = read_lease(path, spec_hash, &present)) {
    if (current->expires_ms > now_ms()) return std::nullopt;
    stolen_fence = current->fence;
  } else if (!present) {
    return std::nullopt;  // released since the probe; the next pass claims it
  }
  const std::string steal_path =
      path + ".steal." + worker_ + "." +
      std::to_string(tmp_counter_.fetch_add(1, std::memory_order_relaxed));
  if (::rename(path.c_str(), steal_path.c_str()) != 0) {
    return std::nullopt;  // lost the steal race (or the holder released)
  }
  // Re-read through the stolen name: a renewal may have landed between
  // our first read and the rename.
  if (const auto stolen = read_lease(steal_path, spec_hash)) {
    stolen_fence = stolen->fence;
  }
  ::unlink(steal_path.c_str());

  Lease lease{spec_hash, worker_, stolen_fence + 1, now_ms() + ttl_ms_};
  if (publish(path, lease)) return lease;
  return std::nullopt;  // a fresh claimant won the free name
}

bool LeaseDir::renew(const Lease& lease) {
  const std::string path = lease_path(lease.spec_hash);
  const auto current = read_lease(path, lease.spec_hash);
  if (!current || current->worker != lease.worker ||
      current->fence != lease.fence) {
    return false;  // reclaimed out from under us
  }
  // Rewrite through a private temp + rename-over. A stealer that renames
  // the lease away inside this window gets clobbered by our rename-over;
  // that worker's still_held/renew then fails and it abandons — benign,
  // because results are deterministic and the manifest digest check
  // backstops the one harmful case.
  const std::string tmp = path + ".renew." + worker_;
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  Lease renewed = lease;
  renewed.expires_ms = now_ms() + ttl_ms_;
  const bool ok = write_lease_fd(fd, renewed);
  ::close(fd);
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

bool LeaseDir::still_held(const Lease& lease) const {
  const auto current = read_lease(lease_path(lease.spec_hash), lease.spec_hash);
  return current && current->worker == lease.worker &&
         current->fence == lease.fence;
}

void LeaseDir::release(const Lease& lease) {
  if (still_held(lease)) {
    ::unlink(lease_path(lease.spec_hash).c_str());
  }
}

}  // namespace ccas::sweep::fleet
