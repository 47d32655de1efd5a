#include "src/sweep/fleet/worker.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/harness/runner.h"
#include "src/sim/budget.h"
#include "src/sweep/commit.h"
#include "src/sweep/spec_hash.h"
#include "src/sweep/wire.h"
#include "src/util/logging.h"

namespace ccas::sweep::fleet {

namespace {

// A lease this worker holds while its cell computes or waits for its
// commit. A renewal that finds the lease reclaimed sets both flags: `lost`
// tells the commit to abandon the cell, `cancel` makes the simulator's
// cooperative budget check abort the in-flight attempt at its next poll —
// a worker that lost its cell stops burning CPU on a result its new holder
// is already computing. The wall-clock watchdog shares `cancel`.
struct HeldLease {
  explicit HeldLease(Lease l) : lease(std::move(l)) {}
  Lease lease;
  std::atomic<bool> lost{false};
  std::atomic<bool> cancel{false};
};

// Every lease one worker holds: at most two, the computing cell's and the
// one waiting to commit. The lease keeper renews them all on its tick.
class HeldLeases {
 public:
  std::shared_ptr<HeldLease> add(const Lease& lease) {
    auto held = std::make_shared<HeldLease>(lease);
    std::lock_guard<std::mutex> lock(mu_);
    held_.push_back(held);
    return held;
  }

  void remove(const HeldLease* held) {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(held_, [held](const auto& h) { return h.get() == held; });
  }

  void renew_all(LeaseDir& leases) {
    std::vector<std::shared_ptr<HeldLease>> snapshot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      snapshot = held_;
    }
    for (const auto& held : snapshot) {
      if (held->lost.load(std::memory_order_relaxed)) continue;
      if (!leases.renew(held->lease)) {
        held->lost.store(true, std::memory_order_relaxed);
        held->cancel.store(true, std::memory_order_relaxed);
      }
    }
  }

 private:
  std::mutex mu_;
  std::vector<std::shared_ptr<HeldLease>> held_;
};

// What the compute thread hands the keeper for one claimed cell.
struct ComputedCell {
  ExperimentResult result;
  std::optional<CellFailure> failure;
  std::optional<InjectedFault> injected;
  bool adopted = false;  // result found in the results store, not simulated
  int attempts = 0;
};

}  // namespace

FleetWorker::FleetWorker(FleetOptions options) : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw std::invalid_argument("fleet: store directory must not be empty");
  }
  if (options_.lease_ttl_ms == 0) {
    throw std::invalid_argument("fleet: lease TTL must be positive");
  }
  if (options_.heartbeat_ms == 0) {
    options_.heartbeat_ms = std::max<uint64_t>(1, options_.lease_ttl_ms / 3);
  }
  if (options_.heartbeat_ms >= options_.lease_ttl_ms) {
    throw std::invalid_argument(
        "fleet: heartbeat interval must be shorter than the lease TTL "
        "(a heartbeat that fires after expiry cannot keep the lease)");
  }
  if (options_.worker_id.empty()) {
    options_.worker_id = "w" + std::to_string(::getpid());
  }
  for (const char c : options_.worker_id) {
    // The id lands in lease filenames and journal fields.
    if (c == '/' || c == ' ' || c == '\n' || c == '\t') {
      throw std::invalid_argument(
          "fleet: worker id must not contain '/', whitespace, or newlines");
    }
  }
}

FleetSummary FleetWorker::run(const SweepSpec& sweep) {
  const auto start = std::chrono::steady_clock::now();
  FleetSummary summary;

  FleetStore store(options_.dir, sweep, options_.cache_salt);
  LeaseDir leases(store.lease_dir(), options_.worker_id, options_.lease_ttl_ms,
                  options_.clock);
  FaultPlan faults = FaultPlan::from_env();
  summary.total_cells = static_cast<int>(store.grid().size());

  // Fail records that predate this worker are re-attempted once each —
  // joining a fleet is this worker's analogue of a --resume, and resume
  // retries journaled failures. `handled` keys the bound; it also covers
  // failures we committed ourselves (no point re-running our own work).
  std::unordered_set<uint64_t> handled;
  auto claimable = [&](const std::optional<ManifestRecord>& rec,
                       uint64_t spec_hash) {
    if (!rec) return true;
    if (rec->ok) return false;
    // Determinism violations are sticky (manifest.h) — re-running cannot
    // settle which digest was right. Other journaled failures are
    // eligible for one re-attempt per worker.
    if (rec->cls == FailureClass::kDeterminism) return false;
    return handled.count(spec_hash) == 0;
  };

  auto note = [&](const SweepCell& cell, const char* what) {
    if (options_.progress) {
      std::fprintf(stderr, "[ccas_fleet %s] cell %s: %s\n",
                   options_.worker_id.c_str(), cell.name.c_str(), what);
    }
  };

  // Runs on the worker's own thread while the keeper renews the lease.
  auto compute = [&](const SweepCell& cell, uint64_t spec_hash,
                     HeldLease& held) {
    ComputedCell done;
    for (;;) {
      ++done.attempts;
      done.adopted = false;
      done.failure = run_attempt(cell.name, spec_hash, done.attempts, [&] {
        if (auto cached = store.results().load(spec_hash)) {
          // A worker stored this result but died before journaling it
          // (the commit order is store-then-journal): adopt it rather
          // than recompute — identical bytes either way.
          done.result = std::move(*cached);
          done.adopted = true;
          return;
        }
        SimBudget budget;
        budget.cancel = &held.cancel;  // lease loss and watchdog share it
        budget.max_events = options_.max_cell_events;
        budget.max_rss_bytes = options_.max_cell_rss_bytes;
        CellWatchdog watchdog(options_.cell_timeout, &held.cancel);
        if (!faults.empty()) {
          if (auto f = faults.next(cell.name)) {
            done.injected = f;
            execute_injected_fault(*f, &held.cancel);
          }
        }
        done.result = run_experiment(cell.spec, &budget);
      });
      if (held.lost.load(std::memory_order_relaxed) || !done.failure) break;
      if (!failure_is_transient(done.failure->cls) ||
          done.attempts > options_.retries) {
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(retry_backoff(done.attempts).ns()));
    }
    return done;
  };

  // Written by the keeper's commits; the worker reads them after drain().
  bool progressed = false;
  HeldLeases held_leases;

  // Runs on the keeper: serialize once → results store → fencing check →
  // journal append → lease release. A failed store or append is retried
  // with backoff without re-simulating; the fencing check commits only
  // while the on-disk lease still equals the handle we claimed — a worker
  // resurrected after its TTL finds a different (worker, fence) pair, or
  // no lease, and walks away.
  auto commit = [&](const SweepCell& cell, uint64_t spec_hash,
                    const std::shared_ptr<HeldLease>& held, ComputedCell& done) {
    auto fence_holds = [&] {
      return !held->lost.load(std::memory_order_relaxed) &&
             leases.still_held(held->lease);
    };
    bool holds = !held->lost.load(std::memory_order_relaxed);
    int attempt = done.attempts;
    if (holds && !done.failure) {
      const std::string payload = serialize_result(done.result);
      for (;; ++attempt) {
        done.failure = run_attempt(cell.name, spec_hash, attempt, [&] {
          if (!done.adopted &&
              !store.results().store_payload(spec_hash, payload)) {
            throw CacheIoError("fleet: cannot store result for " +
                               cache_key_hex(spec_hash) + " under " +
                               store.manifest().results_dir());
          }
          holds = fence_holds();
          if (!holds) return;
          store.manifest().record_ok(spec_hash, attempt, fnv1a64(payload),
                                     options_.worker_id, held->lease.fence);
        });
        if (!done.failure || !holds ||
            !failure_is_transient(done.failure->cls) ||
            attempt > options_.retries) {
          break;
        }
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(retry_backoff(attempt).ns()));
      }
    }
    if (holds && done.failure) holds = fence_holds();
    held_leases.remove(held.get());
    if (!holds) {
      ++summary.lost_leases;
      note(cell, "lease lost, abandoned");
      return;
    }
    progressed = true;
    if (!done.failure) {
      if (done.adopted) {
        ++summary.adopted;
        note(cell, "ok (adopted from results store)");
      } else {
        ++summary.computed;
        note(cell, "ok");
      }
    } else {
      try {
        store.manifest().record_failure(*done.failure, options_.worker_id);
      } catch (const std::exception& e) {
        log_warn("fleet manifest: %s", e.what());
      }
      QuarantineContext ctx;
      ctx.cell_timeout = options_.cell_timeout;
      ctx.max_cell_events = options_.max_cell_events;
      ctx.max_cell_rss_bytes = options_.max_cell_rss_bytes;
      if (done.injected) {
        ctx.injection_env = "seed=" + std::to_string(cell.spec.seed) + ":" +
                            injected_fault_name(*done.injected);
      }
      (void)write_quarantine_file(store.quarantine_dir(), cell, *done.failure,
                                  ctx);
      const std::string what = std::string("FAILED [") +
                               failure_class_name(done.failure->cls) + "]";
      note(cell, what.c_str());
    }
    leases.release(held->lease);
  };

  // The lease keeper: one long-lived thread per worker that renews every
  // held lease each heartbeat and runs this worker's commits in order.
  CommitPipeline keeper(
      1, [&] { held_leases.renew_all(leases); },
      std::chrono::milliseconds(options_.heartbeat_ms));

  uint64_t last_progress_ms = leases.now_ms();
  size_t last_covered = 0;
  for (;;) {
    store.manifest().reload();
    for (size_t i = 0; i < store.grid().size(); ++i) {
      const uint64_t spec_hash = store.grid()[i].spec_hash;
      auto rec = store.manifest().lookup(spec_hash);
      if (!claimable(rec, spec_hash)) continue;
      auto lease = leases.claim(spec_hash);
      if (!lease) continue;
      // Holders journal before they release, so a cell another worker
      // committed since this pass read the journal shows up now: look
      // again before computing it a second time.
      if (store.manifest().reload_if_grown()) {
        rec = store.manifest().lookup(spec_hash);
        if (!claimable(rec, spec_hash)) {
          leases.release(*lease);
          continue;
        }
      }
      if (rec) ++summary.reattempts;
      handled.insert(spec_hash);
      const SweepCell& cell = sweep.cells[i];
      std::shared_ptr<HeldLease> held = held_leases.add(*lease);
      ComputedCell done = compute(cell, spec_hash, *held);
      keeper.submit(0, [&commit, &cell, spec_hash, held,
                        done = std::move(done)]() mutable {
        commit(cell, spec_hash, held, done);
      });
    }
    keeper.drain(0);

    store.manifest().reload();
    size_t covered = 0;
    for (const JobCell& jcell : store.grid()) {
      const auto rec = store.manifest().lookup(jcell.spec_hash);
      if (!rec) continue;
      // A non-sticky failure record counts as covered only once this
      // worker has spent its re-attempt on it (or wrote it itself);
      // otherwise the next pass claims it.
      if (rec->ok || rec->cls == FailureClass::kDeterminism ||
          handled.count(jcell.spec_hash)) {
        ++covered;
      }
    }
    const uint64_t now = leases.now_ms();
    if (covered == store.grid().size()) {
      summary.complete = true;
      break;
    }
    if (progressed || covered != last_covered) {
      last_progress_ms = now;
      last_covered = covered;
      progressed = false;
    } else if (options_.stall_timeout_ms > 0 &&
               now - last_progress_ms >= options_.stall_timeout_ms) {
      log_warn("fleet worker %s: no progress for %llu ms with %zu cells "
               "uncovered; giving up (exit 5)",
               options_.worker_id.c_str(),
               static_cast<unsigned long long>(now - last_progress_ms),
               store.grid().size() - covered);
      break;
    }
    // Uncovered cells are leased by other workers (or waiting out a dead
    // worker's TTL). Wake as soon as the journal grows — another worker
    // committed — polling from 1 ms and doubling, and look again after
    // min(heartbeat, 200 ms) in any case.
    const uint64_t wait_ms = std::min<uint64_t>(options_.heartbeat_ms, 200);
    uint64_t step_ms = 1;
    for (uint64_t waited = 0;
         waited < wait_ms && !store.manifest().grown();) {
      step_ms = std::min(step_ms, wait_ms - waited);
      std::this_thread::sleep_for(std::chrono::milliseconds(step_ms));
      waited += step_ms;
      step_ms *= 2;
    }
  }

  for (const JobCell& jcell : store.grid()) {
    const auto rec = store.manifest().lookup(jcell.spec_hash);
    if (!rec) continue;
    if (rec->ok) ++summary.ok;
    else ++summary.failed;
  }
  summary.report = render_fleet_report(store);
  summary.exit_code = fleet_exit_code(store);
  summary.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return summary;
}

std::string render_fleet_report(FleetStore& store) {
  std::string out;
  int ok = 0;
  int failed = 0;
  int pending = 0;
  for (const JobCell& jcell : store.grid()) {
    const auto rec = store.manifest().lookup(jcell.spec_hash);
    out += "cell " + jcell.name + " [" + cache_key_hex(jcell.spec_hash) + "]: ";
    if (!rec) {
      out += "pending\n";
      ++pending;
    } else if (rec->ok) {
      out += "ok";
      if (rec->digest != 0) out += " digest=" + cache_key_hex(rec->digest);
      out += "\n";
      ++ok;
    } else {
      out += std::string("FAILED [") + failure_class_name(rec->cls) + "] " +
             rec->what + "\n";
      ++failed;
    }
  }
  out += "fleet job: " + std::to_string(store.grid().size()) + " cells, " +
         std::to_string(ok) + " ok, " + std::to_string(failed) + " failed, " +
         std::to_string(pending) + " pending\n";
  return out;
}

int fleet_exit_code(FleetStore& store) {
  bool any_pending = false;
  bool any_deterministic = false;
  bool any_budget = false;
  bool any_transient = false;
  for (const JobCell& jcell : store.grid()) {
    const auto rec = store.manifest().lookup(jcell.spec_hash);
    if (!rec) {
      any_pending = true;
    } else if (rec->ok) {
      continue;
    } else if (failure_is_budget(rec->cls)) {
      any_budget = true;
    } else if (failure_is_transient(rec->cls)) {
      any_transient = true;
    } else {
      any_deterministic = true;
    }
  }
  if (any_pending) return 5;
  if (any_deterministic) return 2;
  if (any_budget) return 3;
  if (any_transient) return 4;
  return 0;
}

}  // namespace ccas::sweep::fleet
