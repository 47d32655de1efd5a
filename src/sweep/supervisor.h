// Cell supervision for the sweep executor: failure taxonomy, deterministic
// retry/backoff, the per-cell wall-clock watchdog, test-only fault
// injection, and minimal-repro (quarantine) emission.
//
// The supervision contract (DESIGN.md §9):
//
//   * A failing cell never takes the sweep down (unless fail_fast): the
//     failure is captured as a structured CellFailure and the remaining
//     cells keep running.
//   * Failure classes split into deterministic (exception, audit
//     violation, budget blowouts — re-running the same spec reproduces
//     them, so retrying is wasted work and they quarantine immediately)
//     and transient (cache/manifest I/O — retried with bounded,
//     deterministic exponential backoff).
//   * Retries cannot change results: a cell's outcome is a pure function
//     of its spec, so a retry that succeeds is byte-identical to a
//     first-attempt success; the backoff schedule is fixed (no jitter) so
//     supervised runs are reproducible in wall-clock shape too.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/sweep/sweep_spec.h"
#include "src/util/units.h"

namespace ccas::sweep {

// ---- failure taxonomy ----------------------------------------------------

enum class FailureClass {
  kException,       // deterministic: the cell threw (bad spec, logic error)
  kAuditViolation,  // deterministic: invariant auditor tripped (CCAS_CHECK)
  kBudgetWall,      // budget: wall-clock watchdog cancelled the cell
  kBudgetEvents,    // budget: simulated-event ceiling
  kBudgetRss,       // budget: estimated peak RSS ceiling
  kCacheIo,         // transient: result-cache/manifest I/O (ENOSPC, ...)
  kDeterminism,     // deterministic: two workers journaled the same spec
                    // hash with different result digests — the simulator
                    // is nondeterministic or the binaries differ
};

[[nodiscard]] const char* failure_class_name(FailureClass cls);
[[nodiscard]] std::optional<FailureClass> failure_class_from_name(
    std::string_view name);
// Transient classes are retried (with backoff); deterministic ones
// quarantine immediately — re-running the same spec reproduces them.
[[nodiscard]] bool failure_is_transient(FailureClass cls);
[[nodiscard]] bool failure_is_budget(FailureClass cls);

// One cell's terminal failure, kept alongside the partial results.
struct CellFailure {
  std::string cell;                           // cell name
  FailureClass cls = FailureClass::kException;
  std::string what;                           // exception message / report
  uint64_t spec_hash = 0;                     // canonical spec cache key
  int attempts = 1;                           // attempts consumed (>= 1)
};

// Thrown by supervised cache/manifest writes whose failure must not be
// silently swallowed (resume integrity depends on them); classified as
// the transient kCacheIo and retried.
class CacheIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Runs one attempt of `cell` and classifies what it threw: nullopt when
// `body` returns, otherwise the CellFailure of the matching class (budget,
// audit, cache I/O, any other exception). `error`, when given, receives
// the original exception — fail_fast rethrows it.
[[nodiscard]] std::optional<CellFailure> run_attempt(
    const std::string& cell, uint64_t spec_hash, int attempt,
    const std::function<void()>& body, std::exception_ptr* error = nullptr);

// Deterministic exponential backoff before retry `attempt` (1-based count
// of attempts already made): 10ms, 20ms, 40ms, ... capped at 200ms. No
// jitter — supervised sweeps must be reproducible end to end.
[[nodiscard]] TimeDelta retry_backoff(int attempt);

// ---- wall-clock watchdog -------------------------------------------------

// Arms a one-shot timer on construction: if `timeout` elapses before
// destruction, `*expired` is set and the simulator's cooperative budget
// check turns it into BudgetExceeded(kWallClock) at the next poll.
// Destruction disarms and joins. A zero/negative timeout is inert (no
// thread is spawned), so callers need no conditionals.
class CellWatchdog {
 public:
  CellWatchdog(TimeDelta timeout, std::atomic<bool>* expired);
  ~CellWatchdog();
  CellWatchdog(const CellWatchdog&) = delete;
  CellWatchdog& operator=(const CellWatchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

// ---- fault injection (test-only) -----------------------------------------

// CCAS_FAIL_CELL syntax: "<cell>:<class>[:<count>][;<cell>:<class>...]".
// Classes: throw, audit, hang, events, rss, cacheio. `count` (default 1)
// is how many attempts of that cell fail before the injection is spent —
// "c:cacheio:2" with --retries=2 fails twice, then the third attempt
// succeeds, exercising the retry path end to end.
enum class InjectedFault { kThrow, kAudit, kHang, kEvents, kRss, kCacheIo };

[[nodiscard]] const char* injected_fault_name(InjectedFault f);

struct FaultInjection {
  std::string cell;
  InjectedFault fault = InjectedFault::kThrow;
  int count = 1;
};

// Throws std::invalid_argument on malformed syntax.
[[nodiscard]] std::vector<FaultInjection> parse_fault_injections(
    std::string_view env_value);

// Thread-safe per-attempt consumption of a parsed injection plan.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultInjection> injections);
  // Reads CCAS_FAIL_CELL; empty plan when unset.
  [[nodiscard]] static FaultPlan from_env();

  // The fault to inject into this attempt of `cell` (consuming one
  // count), or nullopt.
  [[nodiscard]] std::optional<InjectedFault> next(const std::string& cell);
  [[nodiscard]] bool empty() const { return injections_.empty(); }

 private:
  std::mutex mu_;
  std::vector<FaultInjection> injections_;
};

// Executes an injected fault at the top of a cell attempt: throws the
// exception the named class would produce. kHang blocks until `cancel`
// is set (the watchdog) and then throws BudgetExceeded(kWallClock), with
// a safety cap so a hang injected without a watchdog cannot stall a test
// run forever.
void execute_injected_fault(InjectedFault fault, const std::atomic<bool>* cancel);

// ---- quarantine (minimal repro) ------------------------------------------

struct QuarantineContext {
  TimeDelta cell_timeout = TimeDelta::zero();
  uint64_t max_cell_events = 0;
  int64_t max_cell_rss_bytes = 0;
  // CCAS_FAIL_CELL value reproducing an injected failure (empty = the
  // failure was organic and needs no env prefix).
  std::string injection_env;
};

// Writes <dir>/<16-hex spec hash>.repro: a commented header (cell, class,
// attempts, error) plus the exact `ccas_run` command line (seed, spec
// flags, budget flags, injection env) that replays the failing cell as a
// one-cell sweep. Creates `dir` if missing; returns the path, or "" if
// the file could not be written (quarantine is best-effort: it must
// never mask the failure it documents).
[[nodiscard]] std::string write_quarantine_file(const std::string& dir,
                                                const SweepCell& cell,
                                                const CellFailure& failure,
                                                const QuarantineContext& ctx);

}  // namespace ccas::sweep
