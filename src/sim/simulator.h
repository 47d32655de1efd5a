// The simulation kernel: a virtual clock and an event loop.
//
// All simulation objects (links, queues, TCP endpoints, experiment logic)
// hold a reference to one Simulator, schedule events on it, and are driven
// by EventHandler::on_event callbacks. Simulations are single-threaded and
// fully deterministic given a seed.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/check/hooks.h"
#include "src/sim/budget.h"
#include "src/sim/event_queue.h"
#include "src/sim/profiler.h"
#include "src/util/node_pool.h"

namespace ccas {

class Simulator {
 public:
  Simulator() : queue_(&profile_) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] uint64_t events_processed() const { return events_processed_; }
  [[nodiscard]] size_t pending_events() const { return queue_.size(); }

  // Always-on lightweight profiler (dispatch/scheduler/timer counters plus
  // wall-clock accumulated over run()/run_until()).
  [[nodiscard]] const SimProfile& profile() const { return profile_; }
  [[nodiscard]] SimProfile& mutable_profile() { return profile_; }

  // Spill-node pool shared by every per-flow container in this simulation
  // (RunList runs, and anything else with inline-first storage). One pool
  // per Simulator: the pool is single-threaded by construction, since a
  // Simulator only ever runs on one thread at a time.
  [[nodiscard]] NodePool& node_pool() { return node_pool_; }

  // Fast-path scheduling: handler/tag/arg, no allocation.
  void schedule_at(Time at, EventHandler* handler, uint32_t tag, uint64_t arg = 0);
  void schedule_in(TimeDelta delay, EventHandler* handler, uint32_t tag, uint64_t arg = 0);

  // Convenience scheduling for tests, examples and cold paths; allocates.
  void schedule_fn_at(Time at, std::function<void()> fn);
  void schedule_fn_in(TimeDelta delay, std::function<void()> fn);

  // Runs until the event queue drains (or stop() is called).
  void run();
  // Runs events with timestamp <= deadline, then sets now() = deadline.
  void run_until(Time deadline);
  void run_for(TimeDelta delta) { run_until(now_ + delta); }
  // Requests the loop to exit after the current event.
  void stop() { stopped_ = true; }

  // Invariant-audit hook point. Components guard their hook calls with
  // `if (auto* a = sim.auditor())`; with CCAS_CHECK_HOOKS=OFF auditor()
  // constant-folds to nullptr and those branches compile away.
  [[nodiscard]] check::InvariantAuditor* auditor() const {
    if constexpr (!check::kAuditHooksCompiled) return nullptr;
    return auditor_;
  }
  void set_auditor(check::InvariantAuditor* a) { auditor_ = a; }

  // Installs a cooperative resource budget (budget.h); nullptr disables.
  // The budget (and its cancellation token) must outlive every
  // run()/run_until() call made while installed. With no budget the
  // dispatch path is a single null-pointer test, so unbudgeted runs stay
  // byte- and event-identical to builds without this layer.
  void set_budget(const SimBudget* budget) { budget_ = budget; }
  [[nodiscard]] const SimBudget* budget() const { return budget_; }

 private:
  class FnDispatcher : public EventHandler {
   public:
    explicit FnDispatcher(Simulator& sim) : sim_(sim) {}
    void on_event(uint32_t tag, uint64_t arg) override;

   private:
    friend class Simulator;
    Simulator& sim_;
    uint64_t next_id_ = 0;
    std::unordered_map<uint64_t, std::function<void()>> pending_;
  };

  void dispatch(const Event& e);
  // Throws BudgetExceeded when the installed budget is exceeded. The
  // event ceiling is exact (checked per dispatch); the cancellation token
  // and the RSS estimate are polled every 1024 events.
  void enforce_budget() const;

  Time now_ = Time::zero();
  SimProfile profile_;  // before queue_: the queue holds a pointer into it
  EventQueue queue_;
  uint64_t events_processed_ = 0;
  bool stopped_ = false;
  check::InvariantAuditor* auditor_ = nullptr;
  const SimBudget* budget_ = nullptr;
  NodePool node_pool_;
  FnDispatcher fn_dispatcher_{*this};
};

}  // namespace ccas
