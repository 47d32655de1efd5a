// Per-cell filesystem leases for the sweep fleet (DESIGN.md §14): the
// mutual-exclusion primitive that lets independent ccas_fleet worker
// processes divide one sweep grid between them with no coordinator.
//
// One lease file per claimed cell, named by the cell's canonical spec
// hash:
//
//   <leases dir>/<16-hex spec hash>.lease
//
// holding a single line `lease worker=<id> fence=<n> expires=<ms>`.
// The protocol rests on two filesystem atomicities:
//
//   * claim: link(2) of a private, fsync'd temp onto the lease name —
//     exactly one linker wins a free name, and the name never appears
//     with a partial body.
//   * reclaim: rename() of an expired lease to a private name — exactly
//     one stealer wins; the new lease is then linked in with the stolen
//     fence + 1.
//
// Fencing is by (worker, fence) equality, not fence comparison: a worker
// that stalls past its TTL, loses its lease to a reclaim, and wakes up
// later finds the on-disk pair no longer matches the handle it holds and
// must abandon the cell instead of committing. Equality makes fence
// regressions harmless — a fresh claim that restarts at fence 1
// after a steal/release cycle still differs from every previously issued
// handle in the worker component (a worker holds at most one in-flight
// claim per cell at a time).
//
// Expiry uses wall-clock milliseconds shared across processes; the clock
// is injectable so lease lifecycle tests can compress hours of
// kill/expiry/resume schedules into microseconds. A lease file whose body
// does not parse cannot come from this protocol (bodies are published
// whole); it is treated as immediately reclaimable rather than waited on.
//
// Liveness, not safety, is what leases buy here: cell results are pure
// functions of their spec, so even a double-compute after a lost lease
// commits identical bytes, and the manifest's digest check (manifest.h)
// catches the only harmful case — divergent binaries sharing a store.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace ccas::sweep::fleet {

// Milliseconds; must be comparable across worker processes (wall clock).
using ClockMsFn = std::function<uint64_t()>;

// The default clock: wall-clock milliseconds since the Unix epoch.
[[nodiscard]] uint64_t wall_clock_ms();

// A held (or once-held) lease handle. The (worker, fence) pair is the
// holder's identity; expires_ms is advisory to the holder (renewals push
// it forward on disk without changing the handle).
struct Lease {
  uint64_t spec_hash = 0;
  std::string worker;
  uint64_t fence = 0;
  uint64_t expires_ms = 0;
};

class LeaseDir {
 public:
  // Creates `dir` if missing (throws std::runtime_error when it cannot).
  // `ttl_ms` must be positive. A default-constructed `clock` uses
  // wall_clock_ms.
  LeaseDir(std::string dir, std::string worker_id, uint64_t ttl_ms,
           ClockMsFn clock = {});

  // Attempts to claim the cell. Returns the held lease, or nullopt when
  // a live (unexpired) holder exists or every atomic step lost its race
  // — never blocks, never spins; callers poll on their own schedule.
  // Thread-safe against renew/release of other cells on the same object.
  [[nodiscard]] std::optional<Lease> claim(uint64_t spec_hash);

  // Pushes the on-disk expiry to now + TTL. False when the on-disk lease
  // no longer matches the handle (expired and reclaimed): the caller has
  // lost the cell and must not commit it.
  [[nodiscard]] bool renew(const Lease& lease);

  // True while the on-disk lease still matches the handle. An expired
  // but not-yet-reclaimed lease is still held — reclaiming requires the
  // rename, so the handle stays exclusive until a stealer wins it.
  [[nodiscard]] bool still_held(const Lease& lease) const;

  // Removes the lease after commit (only when still held — a reclaimed
  // lease belongs to its new holder and is left alone).
  void release(const Lease& lease);

  [[nodiscard]] uint64_t now_ms() const { return clock_(); }
  [[nodiscard]] uint64_t ttl_ms() const { return ttl_ms_; }
  [[nodiscard]] const std::string& worker_id() const { return worker_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string lease_path(uint64_t spec_hash) const;

 private:
  // nullopt when the file is absent or its body does not parse;
  // `present` tells the two apart.
  [[nodiscard]] std::optional<Lease> read_lease(const std::string& path,
                                                uint64_t spec_hash,
                                                bool* present = nullptr) const;
  [[nodiscard]] bool write_lease_fd(int fd, const Lease& lease) const;
  // Publishes `lease` at `path` whole, or not at all: false when the name
  // is taken or the body could not be written.
  [[nodiscard]] bool publish(const std::string& path, const Lease& lease);

  std::string dir_;
  std::string worker_;
  uint64_t ttl_ms_;
  ClockMsFn clock_;
  std::atomic<uint64_t> tmp_counter_{0};  // unique private claim/steal names
};

}  // namespace ccas::sweep::fleet
