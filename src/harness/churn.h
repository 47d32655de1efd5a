// Flow churn extension: Poisson arrivals of finite, heavy-tailed flows —
// the "arrivals and departures of new flows" dynamics the paper's
// Limitations section names as uncaptured by its fixed-flow methodology.
// The cell is set up like run_experiment's (Cell: derived impairment and
// qdisc seeds, ECN negotiation, the CCAS_CHECK=1 auditor), and the flows
// go through the DynamicFlows lifecycle the workload engine shares
// (DESIGN.md §12). Only the arrival policy is churn's own: fork, size and
// gap all drawn from the master stream, background-flow forks interleaved
// with their stagger draws, and whole-run queue and goodput accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/experiment.h"

namespace ccas {

struct ChurnSpec {
  Scenario scenario;  // network + run length (scenario.measure) + warmup
  std::string cca = "newreno";
  TimeDelta rtt = TimeDelta::millis(20);

  // Poisson arrival process.
  double arrivals_per_sec = 50.0;

  // Flow sizes: bounded Pareto in segments (the classic heavy-tailed
  // Internet flow-size model).
  uint64_t min_size_segments = 10;
  uint64_t max_size_segments = 100'000;
  double pareto_alpha = 1.2;

  // Long-running background flows (infinite sources), e.g. the paper's
  // fixed flows, competing with the churn.
  std::vector<FlowGroup> background;

  TcpSenderConfig tcp;
  TcpReceiverConfig receiver;
  uint64_t seed = 1;
  // Safety cap on simultaneously active churn flows (arrivals beyond it
  // are dropped and counted).
  int max_concurrent = 20'000;
};

struct ChurnResult {
  uint64_t flows_started = 0;
  uint64_t flows_completed = 0;
  uint64_t arrivals_rejected = 0;  // hit max_concurrent

  // Per completed flow: size (segments) and flow completion time (s),
  // index-aligned.
  std::vector<uint64_t> completed_sizes;
  std::vector<double> fct_seconds;

  double utilization = 0.0;  // goodput over the whole run / payload capacity
  double background_goodput_bps = 0.0;
  QueueStats queue;

  // Memory-path observability (DESIGN.md §12): departed churn flows are
  // torn down by a grace-period reaper and their slabs parked for reuse;
  // a long steady-state churn run re-serves nearly every arrival from a
  // recycled slab instead of the heap.
  uint64_t slots_recycled = 0;  // flow slots reaped and parked
  uint64_t slab_reuses = 0;     // arrivals served from a parked slab

  [[nodiscard]] double mean_fct() const;
  [[nodiscard]] double median_fct() const;
  // Mean FCT restricted to flows with size <= limit (or > limit).
  [[nodiscard]] double mean_fct_sized(uint64_t min_size, uint64_t max_size) const;
};

// Runs the churn experiment for scenario.stagger + warmup + measure of
// simulated time (background flows stagger over `stagger`; churn arrivals
// begin at t = 0). Deterministic given spec.seed. Throws
// std::invalid_argument for a malformed spec and check::AuditViolationError
// when CCAS_CHECK=1 and the final audit found violations.
[[nodiscard]] ChurnResult run_churn_experiment(const ChurnSpec& spec);

}  // namespace ccas
