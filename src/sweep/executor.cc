#include "src/sweep/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/harness/runner.h"
#include "src/sim/budget.h"
#include "src/sweep/commit.h"
#include "src/sweep/manifest.h"
#include "src/sweep/progress.h"
#include "src/sweep/wire.h"
#include "src/util/logging.h"

namespace ccas::sweep {

SweepOptions sweep_options_from_env() {
  SweepOptions opts;
  if (const char* v = std::getenv("CCAS_JOBS")) {
    const int jobs = std::atoi(v);
    if (jobs > 0) opts.jobs = jobs;
  }
  if (const char* v = std::getenv("CCAS_CACHE_DIR")) {
    opts.cache_dir = v;
  }
  if (const char* v = std::getenv("CCAS_NO_CACHE")) {
    if (v[0] != '\0' && v[0] != '0') opts.use_cache = false;
  }
  return opts;
}

SweepExecutor::SweepExecutor(SweepOptions options) : options_(std::move(options)) {}

std::vector<CellOutcome> SweepExecutor::run(const SweepSpec& sweep) {
  const auto sweep_start = std::chrono::steady_clock::now();

  std::unique_ptr<ResultCache> cache;
  if (options_.use_cache && !options_.cache_dir.empty()) {
    cache = std::make_unique<ResultCache>(options_.cache_dir);
  }

  // The manifest (resume_dir) is self-contained: its own journal, its own
  // results store (independent of the ordinary cache, which may be shared
  // or disabled), and its quarantine directory. Construction throws
  // std::invalid_argument on a salt mismatch — a resume across simulator
  // versions must be refused loudly, not silently recomputed into a mixed
  // journal.
  std::unique_ptr<SweepManifest> manifest;
  std::unique_ptr<ResultCache> manifest_results;
  if (!options_.resume_dir.empty()) {
    manifest = std::make_unique<SweepManifest>(options_.resume_dir,
                                               options_.cache_salt);
    manifest_results = std::make_unique<ResultCache>(manifest->results_dir());
    if (commit_write_failures_ > 0) {
      manifest_results->inject_write_failures(commit_write_failures_);
    }
  }
  std::string quarantine_dir = options_.quarantine_dir;
  if (quarantine_dir.empty() && manifest) {
    quarantine_dir = manifest->quarantine_dir();
  }

  int jobs = options_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  jobs = std::min(jobs, static_cast<int>(std::max<size_t>(sweep.cells.size(), 1)));

  std::vector<CellOutcome> outcomes(sweep.cells.size());
  // Names and keys are prefilled so cells skipped after a max_failures
  // abort still report coherently (status kSkipped, name intact).
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    outcomes[i].name = sweep.cells[i].name;
    outcomes[i].cache_key = spec_cache_key(sweep.cells[i].spec, options_.cache_salt);
  }

  ProgressReporter progress(sweep.name.empty() ? "sweep" : sweep.name,
                            static_cast<int>(sweep.cells.size()),
                            options_.progress);
  FaultPlan faults = FaultPlan::from_env();

  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::atomic<bool> abort{false};
  std::atomic<int> terminal_failures{0};

  // fail_fast: the first failure stops the sweep and is rethrown (as the
  // original exception) after all workers stop.
  auto stop_on = [&](std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::move(error);
    }
    abort.store(true, std::memory_order_relaxed);
  };

  // Turns outcome `out` into an explicit hole in the partial results and
  // counts it toward max_failures. Runs on whichever thread owns the
  // outcome: the compute thread for a failed simulation (so the abort
  // lands before it claims another cell), the writer for a failed commit.
  auto mark_failed = [&](CellOutcome& out, CellFailure failure) {
    out.status = CellStatus::kFailed;
    out.result = ExperimentResult{};
    out.attempts = failure.attempts;
    out.failure = std::move(failure);
    if (options_.max_failures > 0 &&
        terminal_failures.fetch_add(1, std::memory_order_relaxed) + 1 >=
            options_.max_failures) {
      abort.store(true, std::memory_order_relaxed);
    }
  };

  // Writer: journal a terminal failure and quarantine a minimal repro.
  auto report_failure = [&](size_t i, std::optional<InjectedFault> injected) {
    const CellOutcome& out = outcomes[i];
    if (manifest) {
      try {
        manifest->record_failure(*out.failure);
      } catch (const std::exception& e) {
        log_warn("sweep manifest: %s", e.what());
      }
    }
    if (!quarantine_dir.empty()) {
      QuarantineContext ctx;
      ctx.cell_timeout = options_.cell_timeout;
      ctx.max_cell_events = options_.max_cell_events;
      ctx.max_cell_rss_bytes = options_.max_cell_rss_bytes;
      if (injected) {
        // Single-cell replays through ccas_run name their cell
        // "seed=<n>", so the injection env is rewritten to match.
        ctx.injection_env = "seed=" + std::to_string(sweep.cells[i].spec.seed) +
                            ":" + injected_fault_name(*injected);
      }
      (void)write_quarantine_file(quarantine_dir, sweep.cells[i], *out.failure,
                                  ctx);
    }
    progress.cell_failed(out.name, failure_class_name(out.failure->cls),
                         out.failure->attempts);
  };

  // Writer: the durable commit of a computed cell, in order — serialize
  // once, best-effort cache store, manifest results store (fsync,
  // directory fsync, verify-after-rename), journal append + fsync. Resume
  // integrity depends on the manifest's store and journal, so unlike the
  // ordinary cache their failures are not best-effort: they surface as
  // the transient kCacheIo class and the commit is retried with backoff —
  // the result is kept, so a retry never re-simulates the cell.
  auto commit = [&](size_t i, int attempt, bool cacheable) {
    CellOutcome& out = outcomes[i];
    std::string payload;
    if (cacheable && (manifest || (cache && !out.from_cache))) {
      payload = serialize_result(out.result);
    }
    if (cache && cacheable && !out.from_cache) {
      (void)cache->store_payload(out.cache_key, payload);  // best-effort
    }
    std::optional<CellFailure> failure;
    std::exception_ptr error;
    for (;; ++attempt) {
      failure = run_attempt(out.name, out.cache_key, attempt, [&] {
        if (!manifest) return;
        if (!cacheable) {
          manifest->record_ok(out.cache_key, attempt);
          return;
        }
        if (!manifest_results->store_payload(out.cache_key, payload)) {
          throw CacheIoError("sweep manifest: cannot store result for " +
                             cache_key_hex(out.cache_key) + " under " +
                             manifest->results_dir());
        }
        // The digest lets a later multi-worker (fleet) run — or a resume
        // on another host — verify byte-identity instead of trusting it:
        // divergent duplicates surface as structured determinism-violation
        // failures on replay.
        manifest->record_ok(out.cache_key, attempt, fnv1a64(payload));
      }, &error);
      if (!failure || options_.fail_fast ||
          !failure_is_transient(failure->cls) || attempt > options_.retries) {
        break;
      }
      progress.cell_retry(out.name, failure_class_name(failure->cls), attempt);
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(retry_backoff(attempt).ns()));
    }
    out.attempts = attempt;
    if (!failure) {
      out.status = CellStatus::kOk;
      progress.cell_done(out.name, out.from_cache, out.result.sim_events,
                         out.wall_sec);
      return;
    }
    if (options_.fail_fast) {
      stop_on(error);
      if (manifest) {
        try {
          manifest->record_failure(*failure);
        } catch (const std::exception& e) {
          log_warn("sweep manifest: %s", e.what());
        }
      }
      return;
    }
    mark_failed(out, std::move(*failure));
    report_failure(i, std::nullopt);
  };

  auto worker = [&](CommitPipeline& commits, int lane) {
    while (!abort.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sweep.cells.size()) return;
      const SweepCell& cell = sweep.cells[i];
      CellOutcome& out = outcomes[i];
      const bool cacheable = cell.spec.trace_interval <= TimeDelta::zero();
      const auto cell_start = std::chrono::steady_clock::now();
      auto cell_elapsed = [&cell_start] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             cell_start)
            .count();
      };

      // Resume short-circuit: a journaled-ok cacheable cell is served from
      // the manifest's results store without re-running. A journaled-ok
      // cell whose stored result is missing or corrupt — and any traced
      // cell — falls through and recomputes (deterministic, so identical).
      // Journaled *failures* are never short-circuited: resuming is the
      // natural moment to retry them, and deterministic ones will simply
      // reproduce.
      if (manifest && cacheable) {
        if (const ManifestRecord* rec = manifest->find(out.cache_key);
            rec != nullptr && rec->ok) {
          if (auto stored = manifest_results->load(out.cache_key)) {
            out.result = std::move(*stored);
            out.status = CellStatus::kOk;
            out.from_cache = true;
            out.resumed = true;
            out.attempts = rec->attempts;
            out.wall_sec = cell_elapsed();
            progress.cell_done(out.name, /*from_cache=*/true,
                               out.result.sim_events, out.wall_sec);
            continue;
          }
        }
      }

      std::optional<CellFailure> failure;
      std::optional<InjectedFault> injected;
      std::exception_ptr error;
      int attempt = 0;
      for (;;) {
        ++attempt;
        failure = run_attempt(cell.name, out.cache_key, attempt, [&] {
          if (!out.from_cache && cache && cacheable) {
            if (auto cached = cache->load(out.cache_key)) {
              out.result = std::move(*cached);
              out.from_cache = true;
              return;
            }
          }
          // Budget scope: the cancellation token and watchdog live
          // exactly as long as this attempt; the watchdog joins (in its
          // destructor) before the token leaves scope.
          std::atomic<bool> cancelled{false};
          SimBudget budget;
          if (options_.cell_timeout > TimeDelta::zero()) {
            budget.cancel = &cancelled;
          }
          budget.max_events = options_.max_cell_events;
          budget.max_rss_bytes = options_.max_cell_rss_bytes;
          CellWatchdog watchdog(options_.cell_timeout, &cancelled);
          if (!faults.empty()) {
            if (auto f = faults.next(cell.name)) {
              injected = f;
              execute_injected_fault(*f, &cancelled);
            }
          }
          out.result =
              run_experiment(cell.spec, budget.any() ? &budget : nullptr);
        }, &error);
        if (!failure) break;
        if (options_.fail_fast) {
          stop_on(error);
          commits.submit(lane, [&, f = std::move(*failure)] {
            if (!manifest) return;
            try {
              manifest->record_failure(f);
            } catch (const std::exception& e) {
              log_warn("sweep manifest: %s", e.what());
            }
          });
          return;
        }
        if (!failure_is_transient(failure->cls) || attempt > options_.retries) {
          break;  // terminal failure
        }
        progress.cell_retry(cell.name, failure_class_name(failure->cls),
                            attempt);
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(retry_backoff(attempt).ns()));
      }
      // The outcome now belongs to the writer until the sweep ends.
      out.wall_sec = cell_elapsed();
      if (failure) {
        mark_failed(out, std::move(*failure));
        commits.submit(lane, [&, i, injected] { report_failure(i, injected); });
      } else {
        commits.submit(lane, [&, i, attempt, cacheable] {
          commit(i, attempt, cacheable);
        });
      }
    }
  };

  {
    // One writer behind `jobs` compute threads; leaving the scope runs the
    // last queued commits before the summary reads the outcomes.
    CommitPipeline commits(jobs);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      threads.emplace_back(worker, std::ref(commits), t);
    }
    for (std::thread& t : threads) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);

  progress.finish();
  summary_ = SweepSummary{};
  failures_.clear();
  summary_.total_cells = static_cast<int>(sweep.cells.size());
  summary_.jobs = jobs;
  summary_.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();
  for (const CellOutcome& out : outcomes) {
    if (out.attempts > 1) summary_.retries += out.attempts - 1;
    if (out.resumed) ++summary_.resumed;
    switch (out.status) {
      case CellStatus::kOk:
        if (out.from_cache) {
          ++summary_.from_cache;
        } else {
          summary_.sim_events += out.result.sim_events;
        }
        break;
      case CellStatus::kFailed:
        ++summary_.failed;
        failures_.push_back(*out.failure);
        break;
      case CellStatus::kSkipped:
        ++summary_.skipped;
        break;
    }
  }
  return outcomes;
}

}  // namespace ccas::sweep
