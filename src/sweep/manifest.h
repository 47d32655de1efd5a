// Resumable on-disk sweep manifest: an append-only journal of per-cell
// outcomes keyed by the canonical spec hash, plus the directories that
// make a sweep self-contained on disk:
//
//   <dir>/manifest.log   the journal (text, one line per outcome)
//   <dir>/results/       a ResultCache holding every completed cacheable
//                        cell's serialized result
//   <dir>/quarantine/    one .repro replay file per failed cell
//
// Journal format (version 1):
//
//   ccas-sweep-manifest v1 salt=<cache salt>
//   cell <16-hex spec hash> ok attempts=<n> [digest=<16 hex>]
//        [worker=<id>] [fence=<n>]
//   cell <16-hex spec hash> fail class=<name> attempts=<n>
//        [worker=<id>] what=<one line>
//
// Records are keyed by spec hash, not by cell name or position, so a
// resumed sweep may reorder, drop, or add cells and only re-runs what is
// actually new. Later duplicates win: a cell journaled fail and later
// journaled ok (a successful retry on resume) counts as ok. Torn or
// unparseable lines — the tail of a sweep killed mid-append — are
// skipped with a warning, never fatal: losing the last record costs one
// recompute, not the sweep.
//
// Multi-writer extension (the sweep fleet, DESIGN.md §14): several worker
// processes may append to one journal concurrently. Every record is
// written with a single O_APPEND write() and fsync'd, so records from
// different workers interleave whole-line and survive a worker kill
// mid-job. Ok records carry the FNV-1a digest of the serialized result:
// when replay sees two ok records for the same spec hash with different
// digests, the deterministic-simulation contract is broken (divergent
// binaries sharing a store, or real nondeterminism) and the record
// becomes a structured `determinism-violation` failure — sticky against
// later duplicates, surfaced like any other cell failure, never a crash.
//
// The header pins the cache salt (kSweepCodeSalt unless overridden):
// resuming a manifest written under a different salt is refused with
// std::invalid_argument, because the journaled hashes were computed by
// different simulator code and silently reusing them would mix results
// from two incompatible versions. A duplicate header line with the same
// salt (two fleet workers racing to initialize an empty journal) is
// tolerated and skipped.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/sweep/supervisor.h"

namespace ccas::sweep {

struct ManifestRecord {
  uint64_t spec_hash = 0;
  bool ok = false;
  FailureClass cls = FailureClass::kException;  // meaningful when !ok
  int attempts = 1;
  std::string what;    // first line of the failure message (when !ok)
  uint64_t digest = 0; // FNV-1a of the serialized result (0 = unrecorded)
  std::string worker;  // fleet worker id ("" for local sweeps)
  uint64_t fence = 0;  // lease fencing token at commit (0 = none)
};

class SweepManifest {
 public:
  // Opens (creating if needed) <dir>/manifest.log and loads every intact
  // record. Throws std::invalid_argument on a salt mismatch and
  // std::runtime_error when the directory/journal cannot be created.
  SweepManifest(std::string dir, std::string salt);
  ~SweepManifest();
  SweepManifest(const SweepManifest&) = delete;
  SweepManifest& operator=(const SweepManifest&) = delete;

  // Borrowed pointer, invalidated by reload() — for single-pass callers
  // (the executor's resume short-circuit). Fleet code uses lookup().
  [[nodiscard]] const ManifestRecord* find(uint64_t spec_hash) const;
  // Copy of the record (reload-safe), or nullopt.
  [[nodiscard]] std::optional<ManifestRecord> lookup(uint64_t spec_hash) const;
  [[nodiscard]] size_t size() const { return records_.size(); }

  // Append one outcome and fsync (the journal must survive a kill right
  // after the cell completes — each record is a single O_APPEND write, so
  // concurrent writer processes interleave whole-line). Thread-safe.
  // Throws CacheIoError on a failed append: a journal that silently drops
  // records would make a later --resume quietly recompute (correct but
  // slow) or, worse, hide a failure record — the supervisor treats it as
  // transient I/O.
  void record_ok(uint64_t spec_hash, int attempts, uint64_t digest = 0,
                 const std::string& worker = std::string(), uint64_t fence = 0);
  void record_failure(const CellFailure& failure,
                      const std::string& worker = std::string());

  // Re-reads the journal from disk, folding in records appended by other
  // worker processes since construction (or the last reload). The same
  // tolerance rules as construction apply: torn tails are skipped,
  // divergent-digest duplicates become determinism-violation records. A
  // salt change under our feet throws std::invalid_argument.
  void reload();

  // True when the journal on disk holds bytes this object has neither
  // loaded nor appended itself: another writer committed since the last
  // load. One stat(2), so the fleet can poll it while it waits.
  [[nodiscard]] bool grown() const;
  // reload() only when grown(); returns whether it reloaded.
  bool reload_if_grown();

  // Canonical, schedule-independent rendering of the journal state: one
  // line per record, sorted by spec hash, without attempts/worker/fence
  // (which legitimately differ between runs). Two sweeps of the same grid
  // converged to the same results iff their canonical texts are equal —
  // the fleet's N-workers-vs-serial differential compares exactly this.
  [[nodiscard]] std::string canonical_text() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string results_dir() const { return dir_ + "/results"; }
  [[nodiscard]] std::string quarantine_dir() const { return dir_ + "/quarantine"; }
  [[nodiscard]] std::string journal_path() const { return dir_ + "/manifest.log"; }

 private:
  void load_journal_locked();
  void merge_record_locked(ManifestRecord rec);
  void append_line(const std::string& line);  // callers hold mu_

  std::string dir_;
  std::string salt_;
  std::unordered_map<uint64_t, ManifestRecord> records_;
  mutable std::mutex mu_;
  bool saw_header_ = false;
  // Journal bytes accounted for: the size seen when the last load began,
  // plus every byte appended through fd_ since.
  int64_t known_bytes_ = 0;
  int fd_ = -1;  // O_WRONLY | O_APPEND journal handle
};

}  // namespace ccas::sweep
