// Runtime invariant auditor: machine-checks the conservation and state
// invariants the paper's findings lean on, while a simulation runs.
//
// The auditor attaches to one Simulator (one per simulation — sweeps run
// one auditor per cell, so there is no cross-thread state). Components
// report through cheap hooks behind Simulator::auditor(); a periodic
// checkpoint event then sweeps the registered components for the global
// invariants that are too expensive to verify per packet:
//
//   * packet & byte conservation across the dumbbell:
//       injected == delivered + dropped + in-flight (summed over holders)
//   * DropTailQueue occupancy accounting vs its stats and drop log
//   * TcpSender pipe vs the SACK scoreboard's outstanding segments, and
//     the scoreboard's sacked/lost counters vs a recount
//   * cwnd >= 1 (and below a sanity ceiling) after every ACK
//   * PRR: no transmission without send budget during fast recovery
//   * delivery-rate estimator: monotone delivered counter & timestamps,
//     and no accepted rate sample with interval < min_rtt
//   * event-queue time monotonicity
//
// Violations carry the flow id (kNoFlow when not flow-specific), the sim
// time, and a one-line state dump. The auditor only records; the caller
// (run_experiment) decides to throw. Enabled per spec (ExperimentSpec::
// audit) or globally via CCAS_CHECK=1; compiled out entirely with
// cmake -DCCAS_CHECK_HOOKS=OFF (see hooks.h).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cca/cca.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace ccas {
class ImpairedLink;
class QueueDisc;
class TcpSender;
}  // namespace ccas

namespace ccas::check {

// True when the CCAS_CHECK environment variable is set to a non-empty,
// non-"0" value (the runtime toggle; the benches and CI use it).
[[nodiscard]] bool check_enabled_from_env();

// Thrown by run_experiment when the final audit finds violations. A
// distinct type (rather than a bare std::runtime_error) lets the sweep
// supervisor classify audited-cell failures as their own deterministic
// failure class instead of lumping them with ordinary exceptions; what()
// carries the auditor's multi-line report.
class AuditViolationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Violation {
  static constexpr uint32_t kNoFlow = 0xffffffffu;
  std::string invariant;  // short id, e.g. "conservation.packets"
  uint32_t flow_id = kNoFlow;
  Time at = Time::zero();
  std::string detail;  // state dump
};

// A component that can hold packets between events (queue, link in
// transmission, netem delay line). Reports its current holdings.
struct PacketHolder {
  std::string name;
  std::function<void(int64_t& packets, int64_t& bytes)> held;
};

class InvariantAuditor {
 public:
  static constexpr uint32_t kNoFlow = Violation::kNoFlow;

  // Attaches to `sim` (sim.set_auditor(this)); detaches on destruction.
  explicit InvariantAuditor(Simulator& sim);
  ~InvariantAuditor();
  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  // ---- registration (topology / runner) -----------------------------
  void register_holder(std::string name,
                       std::function<void(int64_t&, int64_t&)> held);
  void watch_sender(uint32_t flow_id, const TcpSender& sender);
  // Registers an impairment stage for per-checkpoint reconciliation: the
  // stage's own counters must balance (processed + duplicated == delivered
  // + dropped + held) and must match the hook-side shadow counts.
  void watch_impairment(const ImpairedLink& link);

  // ---- hot-path hooks (called through Simulator::auditor()) ---------
  // Simulator::dispatch, before now() advances to `event_time`.
  void on_event_dispatched(Time now, Time event_time);
  // QueueDisc arrival — either enqueued or refused (tail drop).
  void on_enqueue(const QueueDisc& q, const Packet& pkt, bool dropped);
  // QueueDisc dequeue handed to the link.
  void on_dequeue(const QueueDisc& q, const Packet& pkt);
  // An AQM dropped an already-admitted packet (CoDel/FQ-CoDel head drop):
  // leaves the queue like a dequeue, counts like a drop network-wide.
  void on_head_drop(const QueueDisc& q, const Packet& pkt);
  // An AQM set CE instead of dropping; the packet must be ECT.
  void on_mark(const QueueDisc& q, const Packet& pkt);
  // QueueDisc::reset_accounting (warm-up boundary).
  void on_queue_reset(const QueueDisc& q);
  // A packet entered the network at an endpoint (sender data / receiver ACK).
  void on_packet_injected(const Packet& pkt);
  // A packet reached its endpoint (receiver data / sender ACK).
  void on_packet_delivered(const Packet& pkt);
  // ImpairedLink dropped a packet (random loss / GE loss / link-down
  // fault): counts toward the network-wide dropped totals.
  void on_impairment_drop(const Packet& pkt);
  // ImpairedLink created a duplicate copy: the copy is a fresh injection
  // for conservation purposes (it will be delivered or dropped downstream).
  void on_impairment_duplicate(const Packet& pkt);
  // TcpSender, end of ACK processing (after the CCA saw the event).
  void on_ack_processed(uint32_t flow_id, const AckEvent& ev, uint64_t cwnd,
                        Time est_delivered_time, uint64_t est_delivered);
  // TcpSender::transmit_segment. `prr_active` = in fast recovery with a
  // PRR-clocked (non-cong_control) CCA; `prr_exempt` = the one immediate
  // fast retransmit RFC 5681 allows outside the budget.
  void on_transmit(uint32_t flow_id, bool prr_active, uint64_t prr_budget,
                   bool prr_exempt);

  // ---- checkpoints --------------------------------------------------
  // Sweeps every registered component; cheap enough to run a few times
  // per simulated second. `run_checks` is also the final-audit entry.
  void run_checks(Time now);
  // Arms a recurring checkpoint every `interval` of simulated time. It is
  // driven from on_event_dispatched (at an event boundary, where the
  // conservation invariants hold) rather than by scheduling simulator
  // events: the auditor must stay purely observational, and an extra
  // event per checkpoint would perturb the sim_events count and golden
  // digests.
  void schedule_periodic(TimeDelta interval);

  // ---- results ------------------------------------------------------
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] uint64_t total_violations() const { return total_violations_; }
  [[nodiscard]] uint64_t checks_run() const { return checks_run_; }
  // Multi-line human-readable report of the first `max_lines` violations.
  [[nodiscard]] std::string report(size_t max_lines = 10) const;

 private:
  struct QueueShadow {
    const QueueDisc* queue = nullptr;
    int64_t packets = 0;  // our own occupancy count
    int64_t bytes = 0;
    uint64_t enqueued_since_reset = 0;
    uint64_t dequeued_since_reset = 0;
    uint64_t dropped_since_reset = 0;
    uint64_t head_dropped_since_reset = 0;
    uint64_t marked_since_reset = 0;
    // Occupancy at the last reset_accounting (or at shadow adoption):
    // closes the conservation equation for packets carried across a reset.
    int64_t resident_at_reset = 0;
  };
  struct FlowShadow {
    const TcpSender* sender = nullptr;  // null until watch_sender
    uint64_t last_delivered = 0;
    int64_t last_delivered_time_ns = 0;
  };

  QueueShadow& shadow_of(const QueueDisc& q);
  [[nodiscard]] bool knows_queue(const QueueDisc& q) const;
  FlowShadow& flow_shadow(uint32_t flow_id);
  void check_queue(const QueueShadow& s, Time now);
  void check_sender(uint32_t flow_id, const TcpSender& sender, Time now);
  void check_impairments(Time now);
  void violation(std::string invariant, uint32_t flow_id, Time at,
                 std::string detail);

  Simulator& sim_;
  std::vector<QueueShadow> queues_;  // few queues: linear scan
  std::vector<PacketHolder> holders_;
  std::vector<FlowShadow> flows_;  // indexed by flow id

  // Conservation counters (network-wide, lifetime of the simulation).
  int64_t injected_packets_ = 0;
  int64_t injected_bytes_ = 0;
  int64_t delivered_packets_ = 0;
  int64_t delivered_bytes_ = 0;
  int64_t dropped_packets_ = 0;
  int64_t dropped_bytes_ = 0;

  // Impairment shadow counters (hook-side view of every watched stage,
  // reconciled against the stages' own ImpairmentStats at checkpoints).
  std::vector<const ImpairedLink*> impairments_;
  uint64_t impaired_drop_packets_ = 0;
  uint64_t impaired_dup_packets_ = 0;

  std::vector<Violation> violations_;
  uint64_t total_violations_ = 0;
  uint64_t checks_run_ = 0;
  TimeDelta check_interval_ = TimeDelta::zero();  // zero = no periodic checks
  Time next_check_at_ = Time::zero();
  static constexpr size_t kMaxStoredViolations = 64;
};

}  // namespace ccas::check
