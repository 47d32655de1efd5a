// Streaming flow-completion-time statistics for the open-loop workload
// engine (src/workload/): per-class completion counters, mean FCT, GK
// quantile sketches for P50/P90/P99/P999, and slowdown versus the ideal
// (unloaded) FCT — the metric CoCo-Beholder-style schedulers report and
// the "compare CCAs on completion time" analyses in PAPERS.md ask for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/stats/quantile.h"

namespace ccas {

// Per-class summary carried in ExperimentResult (and serialized by the
// result cache when a workload ran). Plain data; FctRecorder produces it.
struct WorkloadClassResult {
  std::string name;
  std::string cca;
  uint64_t arrivals = 0;   // sessions offered to this class
  uint64_t rejected = 0;   // refused at admission (concurrency cap)
  uint64_t completed = 0;  // finished within the run
  uint64_t abandoned = 0;  // admitted but still in flight at run end
  uint64_t completed_segments = 0;
  double mean_fct_s = 0.0;
  double p50_fct_s = 0.0;
  double p90_fct_s = 0.0;
  double p99_fct_s = 0.0;
  double p999_fct_s = 0.0;
  // FCT / ideal FCT (one RTT plus the transfer's serialization time at the
  // bottleneck), averaged over completions. 1.0 = every flow finished as
  // fast as an empty network allows.
  double mean_slowdown = 0.0;
};

// One per traffic class. Streaming: O(sketch) memory however many flows
// complete, mergeable across recorders.
class FctRecorder {
 public:
  FctRecorder() = default;
  explicit FctRecorder(double eps) : fct_(eps) {}

  void on_arrival() { ++arrivals_; }
  void on_reject() { ++rejected_; }
  void on_abandon() { ++abandoned_; }
  void on_complete(double fct_s, double ideal_fct_s, uint64_t segments);

  void merge(const FctRecorder& other);

  [[nodiscard]] WorkloadClassResult summarize(std::string name,
                                              std::string cca) const;
  [[nodiscard]] uint64_t arrivals() const { return arrivals_; }
  [[nodiscard]] uint64_t completed() const { return completed_; }
  [[nodiscard]] const QuantileSketch& sketch() const { return fct_; }
  void reserve(size_t tuples) { fct_.reserve(tuples); }

 private:
  uint64_t arrivals_ = 0;
  uint64_t rejected_ = 0;
  uint64_t completed_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t completed_segments_ = 0;
  double fct_sum_s_ = 0.0;
  double slowdown_sum_ = 0.0;
  QuantileSketch fct_;
};

}  // namespace ccas
