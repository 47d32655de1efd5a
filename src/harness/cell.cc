#include "src/harness/cell.h"

namespace ccas {

namespace {

std::unique_ptr<check::InvariantAuditor> make_auditor(Simulator& sim,
                                                      bool audit) {
  if (!check::kAuditHooksCompiled || !(audit || check::check_enabled_from_env())) {
    return nullptr;
  }
  auto auditor = std::make_unique<check::InvariantAuditor>(sim);
  // Checkpoint a few times per simulated second; fine-grained invariants
  // (queue occupancy, PRR budget, rate monotonicity) run per hook anyway.
  auditor->schedule_periodic(TimeDelta::millis(250));
  return auditor;
}

// Seed derivation: pure functions of the cell seed, independent of the
// master Rng's stream (whose consumption order the goldens depend on), so
// sweep cells stay byte-identical at any --jobs level. The qdisc seed uses
// its own salt, so RED/PIE draws are independent of the impairment stream
// (drop-tail and the deterministic AQMs never draw from it).
DumbbellConfig seeded(DumbbellConfig net, uint64_t seed) {
  net.impairments.validate();
  net.qdisc.validate();
  if ((net.impairments.enabled() || net.impairments.force_stage) &&
      net.impairments.seed == 0) {
    net.impairments.seed = derive_impairment_seed(seed);
  }
  if (net.qdisc.enabled() && net.qdisc.seed == 0) {
    net.qdisc.seed = derive_qdisc_seed(seed);
  }
  return net;
}

}  // namespace

Cell::Cell(const DumbbellConfig& net, uint64_t seed, bool audit)
    : auditor(make_auditor(sim, audit)), topo(sim, seeded(net, seed)) {}

TcpSenderConfig Cell::negotiate(TcpSenderConfig tcp) const {
  const QdiscConfig& qdisc = topo.config().qdisc;
  tcp.ecn_enabled = qdisc.enabled() && qdisc.ecn;
  return tcp;
}

void Cell::final_audit() {
  if (!auditor) return;
  auditor->run_checks(sim.now());
  if (auditor->total_violations() > 0) {
    throw check::AuditViolationError(auditor->report());
  }
}

}  // namespace ccas
