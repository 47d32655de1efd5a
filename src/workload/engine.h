// Open-loop workload engine: the arrival policy that drives DynamicFlows
// (src/harness/flow_table.h) from a WorkloadSpec — session arrivals
// (Poisson or deterministic), per-class flow sizes and CCAs, application
// pacing models that gate the sender through TcpSender::enable_app_gate /
// app_release, and one FctRecorder per class. The flow lifecycle itself
// (slot pool, completion, grace-period reaper, goodput) is the one
// ChurnDriver shares (DESIGN.md §12), so steady state touches the heap
// only through amortized vector growth.
//
// Determinism: the engine owns a dedicated Rng seeded with
// derive_workload_seed(cell_seed), so it never draws from the master
// stream, so every pre-workload golden keeps its bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "src/harness/flow_table.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"
#include "src/stats/fct.h"
#include "src/util/rng.h"
#include "src/workload/spec.h"

namespace ccas {

class WorkloadEngine final : public EventHandler,
                             private DynamicFlows::Owner {
 public:
  // `spec` must be validated and enabled. Dynamic flow ids start at
  // `first_flow_id` (after any fixed background flows) and are never
  // reused. `end_time` stops new arrivals; flows in flight then are
  // counted abandoned at finalize(). `max_rtt` must cover every workload
  // class and every background flow group (it bounds the reap grace).
  WorkloadEngine(Simulator& sim, DumbbellTopology& topo, FlowTable& table,
                 const WorkloadSpec& spec, const TcpSenderConfig& tcp,
                 const TcpReceiverConfig& receiver, uint32_t first_flow_id,
                 Time end_time, TimeDelta max_rtt, uint64_t seed);

  // Schedules the first arrival at t = 0.
  void begin();

  void on_event(uint32_t tag, uint64_t arg) override;

  // Marks still-live flows abandoned and appends one summary per class (in
  // spec order). Call once, after the simulation has run to end_time.
  void finalize(std::vector<WorkloadClassResult>& out);

  // Exact goodput of every workload flow (see DynamicFlows).
  [[nodiscard]] int64_t goodput_bytes() const { return flows_.goodput_bytes(); }

 private:
  void on_arrival();
  void on_flow_complete(const DynamicFlows::State& st) override;
  void on_app_drained(uint32_t si);
  void on_app_timer(uint32_t gen, uint32_t si);
  [[nodiscard]] uint32_t pick_class();
  [[nodiscard]] double ideal_fct_s(const WorkloadClass& cls,
                                   uint64_t segments) const;

  Simulator& sim_;
  const WorkloadSpec& spec_;
  const TcpSenderConfig tcp_;
  const TcpReceiverConfig receiver_;
  const DataRate bottleneck_rate_;
  const Time end_time_;
  Rng rng_;  // dedicated stream: derive_workload_seed(cell_seed)

  std::vector<double> cum_weight_;  // class-pick thresholds
  std::vector<FctRecorder> recorders_;  // one per class
  DynamicFlows flows_;
};

}  // namespace ccas
