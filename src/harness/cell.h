// One simulated cell, set up the same way for every run path
// (run_experiment, run_churn_experiment): the network is validated, the
// impairment and qdisc seeds the config leaves at 0 are derived from the
// cell seed, senders negotiate ECN with the bottleneck qdisc, and the
// invariant auditor (when enabled) attaches before the topology is built.
#pragma once

#include <cstdint>
#include <memory>

#include "src/check/audit.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"
#include "src/tcp/tcp_sender.h"

namespace ccas {

struct Cell {
  // Throws std::invalid_argument for a malformed impairment or qdisc
  // block. The auditor runs when `audit` is set or under CCAS_CHECK=1.
  Cell(const DumbbellConfig& net, uint64_t seed, bool audit);

  // `tcp` with ECN negotiated: senders mark ECT (and react to ECE) exactly
  // when the bottleneck qdisc marks. Derived from the qdisc block, so it
  // is not a separate spec knob.
  [[nodiscard]] TcpSenderConfig negotiate(TcpSenderConfig tcp) const;

  // Final audit checkpoint: the whole run must end conservation-clean.
  // Throws check::AuditViolationError otherwise; a no-op unaudited.
  void final_audit();

  Simulator sim;
  // Attached before the topology so components register their packet
  // holders; declared before it so it outlives every component that may
  // call hooks during teardown.
  std::unique_ptr<check::InvariantAuditor> auditor;
  DumbbellTopology topo;
};

}  // namespace ccas
