// Pluggable queue disciplines for the bottleneck egress.
//
// QueueDisc is the interface the serializing Link drains: accept() admits
// (or drops) an arriving packet, dequeue() hands the next packet to
// serialize and may itself drop packets first (CoDel-family AQMs decide at
// dequeue time). The base class owns everything every discipline shares —
// byte/packet occupancy, capacity, stats, the drop log, per-flow drop and
// ECN-mark counters, and the auditor hooks — so a scheduler subclass only
// implements its queueing/drop/mark policy.
//
// Determinism contract (same as the impairment stage): a qdisc that needs
// randomness (RED, PIE) owns a dedicated Rng seeded from the sweep cell's
// seed via derive_qdisc_seed, draws only when its policy actually consults
// chance, and the default kind (kDropTail) is the exact pre-qdisc
// DropTailQueue — so default runs keep the historical event stream and
// golden digests byte for byte, and AQM runs are byte-identical at any
// --jobs level.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/check/audit.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/util/units.h"

namespace ccas {

class DropTailQueue;
class Link;
class Simulator;

struct DropRecord {
  Time at;
  uint32_t flow_id = 0;
};

struct QueueStats {
  uint64_t enqueued_packets = 0;
  uint64_t enqueued_bytes = 0;
  uint64_t dequeued_packets = 0;
  uint64_t dropped_packets = 0;  // refused at enqueue (tail drops)
  uint64_t dropped_bytes = 0;
  int64_t max_queued_bytes = 0;
  // Qdisc extensions (zero for plain drop-tail): packets dropped after
  // admission (CoDel/FQ-CoDel head drops), CE marks set instead of drops,
  // and the sojourn-time distribution of dequeued packets.
  uint64_t head_dropped_packets = 0;
  uint64_t head_dropped_bytes = 0;
  uint64_t marked_packets = 0;
  uint64_t sojourn_ns_sum = 0;
  uint64_t sojourn_samples = 0;
  int64_t max_sojourn_ns = 0;
};

// Which scheduler runs the bottleneck buffer.
enum class QdiscKind : uint8_t { kDropTail, kCoDel, kFqCoDel, kPie, kRed };

struct QdiscConfig {
  QdiscKind kind = QdiscKind::kDropTail;
  // Mark ECT packets CE instead of dropping them where the algorithm
  // allows (AQM kinds only; rejected by validate() for drop-tail).
  bool ecn = false;

  // CoDel / FQ-CoDel (RFC 8289 defaults).
  TimeDelta codel_target = TimeDelta::millis(5);
  TimeDelta codel_interval = TimeDelta::millis(100);

  // FQ-CoDel (RFC 8290): flow-hash bucket count and DRR quantum.
  uint32_t fq_flows = 64;
  int64_t fq_quantum = 1514;

  // PIE (RFC 8033 defaults).
  TimeDelta pie_target = TimeDelta::millis(15);
  TimeDelta pie_tupdate = TimeDelta::millis(16);
  double pie_alpha = 0.125;
  double pie_beta = 1.25;
  // Mark instead of drop only while drop probability <= this (RFC 8033
  // §5.1's mark_ecnth); above it the controller needs real losses.
  double pie_mark_ecnth = 0.1;

  // RED (Floyd/Jacobson): EWMA weight, thresholds in bytes (0 = derive
  // from capacity: min = capacity/6, max = capacity/2), max_p, gentle mode.
  double red_wq = 0.002;
  int64_t red_min_bytes = 0;
  int64_t red_max_bytes = 0;
  double red_max_p = 0.1;
  bool red_gentle = true;

  // Rng seed for the qdisc's dedicated stream (RED/PIE probabilistic
  // decisions, FQ-CoDel hash perturbation). 0 = derive from the
  // experiment's cell seed (the harness Cell calls derive_qdisc_seed).
  uint64_t seed = 0;

  [[nodiscard]] bool enabled() const { return kind != QdiscKind::kDropTail; }
  // Throws std::invalid_argument on inconsistent knobs (ECN on drop-tail,
  // CoDel target >= interval, RED min >= max, PIE tupdate <= 0, ...).
  void validate() const;
};

// Parses/renders the CLI name ("drop-tail", "codel", "fq-codel", "pie",
// "red"). parse throws std::invalid_argument on unknown names.
[[nodiscard]] QdiscKind qdisc_kind_from_name(const std::string& name);
[[nodiscard]] const char* qdisc_kind_name(QdiscKind kind);

// Dedicated per-cell qdisc seed: a SplitMix64 finalizer over the
// experiment seed under a fixed salt (distinct from the impairment salt),
// so the qdisc's stream is independent of both the master Rng and the
// impairment stage while remaining a pure function of the cell seed.
[[nodiscard]] uint64_t derive_qdisc_seed(uint64_t cell_seed);

class QueueDisc : public PacketSink {
 public:
  QueueDisc(Simulator& sim, int64_t capacity_bytes);
  ~QueueDisc() override = default;

  // The link that drains this qdisc; must be set before packets arrive.
  void set_downstream(Link* link) { downstream_ = link; }

  // True while any packet is queued. dequeue() may still return nullopt
  // (an AQM can drop everything it inspects); callers loop on has_packet.
  [[nodiscard]] virtual bool has_packet() const { return queued_packets_ > 0; }
  // Removes and returns the next packet to serialize (called by the Link).
  virtual std::optional<Packet> dequeue() = 0;
  // Non-null iff this is the plain drop-tail FIFO. The Link asks once at
  // set_source and then drains the default discipline through concrete
  // (devirtualized) calls, keeping the pre-qdisc per-packet cost on the
  // hot path; AQMs take the generic has_packet/dequeue loop.
  [[nodiscard]] virtual DropTailQueue* as_drop_tail() { return nullptr; }

  [[nodiscard]] int64_t queued_bytes() const { return queued_bytes_; }
  [[nodiscard]] size_t queued_packets() const { return queued_packets_; }
  [[nodiscard]] int64_t capacity_bytes() const { return capacity_bytes_; }
  // Retargets the buffer capacity (scheduled link faults). Packets already
  // queued beyond a shrunken capacity stay queued — disciplines only
  // refuse or evict on their own policy — which keeps occupancy accounting
  // trivially consistent. The auditor tolerates the transient over-capacity
  // occupancy only while shrunk_below_occupancy() reports it.
  void set_capacity(int64_t capacity_bytes);
  // True from a set_capacity that landed below the live occupancy until
  // the occupancy next drains back under capacity. The invariant auditor
  // uses this to avoid masking real conservation violations with the
  // kBuffer-shrink relaxation.
  [[nodiscard]] bool shrunk_below_occupancy() const {
    return shrunk_below_occupancy_;
  }
  [[nodiscard]] const QueueStats& stats() const { return stats_; }

  // Per-flow drop/mark counters (indexed by flow id) and the full drop log.
  void reserve_flows(size_t n) {
    per_flow_drops_.resize(n, 0);
    per_flow_marks_.resize(n, 0);
  }
  [[nodiscard]] const std::vector<uint64_t>& per_flow_drops() const {
    return per_flow_drops_;
  }
  [[nodiscard]] const std::vector<uint64_t>& per_flow_marks() const {
    return per_flow_marks_;
  }
  [[nodiscard]] const std::vector<DropRecord>& drop_log() const { return drop_log_; }
  void set_drop_log_enabled(bool enabled) { drop_log_enabled_ = enabled; }
  [[nodiscard]] bool drop_log_enabled() const { return drop_log_enabled_; }

  // Clears counters and the drop log (used at the end of the warm-up
  // period so measurements cover only steady state). Control state (CoDel
  // drop scheduling, RED averages, PIE probability) is deliberately kept:
  // the warm-up exists precisely to reach it.
  void reset_accounting();

 protected:
  // Shared bookkeeping; subclasses call these instead of touching the
  // counters so the auditor hooks and stats stay consistent everywhere.
  [[nodiscard]] bool would_overflow(const Packet& pkt) const {
    return queued_bytes_ + pkt.size_bytes > capacity_bytes_;
  }
  // The three helpers on the default drop-tail per-packet path are defined
  // inline so DropTailQueue::accept/pop compile down to the same code as
  // the pre-qdisc standalone queue (the perf gate holds them to it); the
  // AQM-only helpers (head drop, mark) stay out of line in qdisc.cc.
  //
  // Counts a refused arrival (tail drop) including log + auditor hook.
  void count_tail_drop(const Packet& pkt) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += pkt.size_bytes;
    if (pkt.flow_id < per_flow_drops_.size()) ++per_flow_drops_[pkt.flow_id];
    if (drop_log_enabled_) drop_log_.push_back(DropRecord{sim_.now(), pkt.flow_id});
    if (auto* a = sim_.auditor()) a->on_enqueue(*this, pkt, /*dropped=*/true);
  }
  // Counts an admission; call after the packet is in the subclass's
  // structure (the hook cross-checks live occupancy).
  void count_enqueue(const Packet& pkt) {
    queued_bytes_ += pkt.size_bytes;
    ++queued_packets_;
    ++stats_.enqueued_packets;
    stats_.enqueued_bytes += pkt.size_bytes;
    stats_.max_queued_bytes = std::max(stats_.max_queued_bytes, queued_bytes_);
    if (auto* a = sim_.auditor()) a->on_enqueue(*this, pkt, /*dropped=*/false);
  }
  // Counts a dequeue handed to the link; `sojourn` < 0 means untracked
  // (drop-tail does not timestamp, keeping its stats byte-identical).
  void count_dequeue(const Packet& pkt, TimeDelta sojourn) {
    queued_bytes_ -= pkt.size_bytes;
    --queued_packets_;
    ++stats_.dequeued_packets;
    if (sojourn >= TimeDelta::zero()) {
      stats_.sojourn_ns_sum += static_cast<uint64_t>(sojourn.ns());
      ++stats_.sojourn_samples;
      stats_.max_sojourn_ns = std::max(stats_.max_sojourn_ns, sojourn.ns());
    }
    if (shrunk_below_occupancy_ && queued_bytes_ <= capacity_bytes_) {
      shrunk_below_occupancy_ = false;
    }
    if (auto* a = sim_.auditor()) a->on_dequeue(*this, pkt);
  }
  // Counts a post-admission drop (AQM head drop); call after removal.
  void count_head_drop(const Packet& pkt);
  // Sets CE on an admitted-or-forwarded packet and counts the mark. The
  // caller must have checked the packet is ECT.
  void count_mark(Packet& pkt);
  void notify_downstream();
  // The draining link (PIE/RED consult its rate for delay estimates).
  [[nodiscard]] Link* downstream() const { return downstream_; }

  Simulator& sim_;

 private:
  int64_t capacity_bytes_;
  int64_t queued_bytes_ = 0;
  size_t queued_packets_ = 0;
  bool shrunk_below_occupancy_ = false;
  Link* downstream_ = nullptr;
  QueueStats stats_;
  std::vector<uint64_t> per_flow_drops_;
  std::vector<uint64_t> per_flow_marks_;
  std::vector<DropRecord> drop_log_;
  bool drop_log_enabled_ = true;
};

// Constructs the configured discipline. `config` must validate().
[[nodiscard]] std::unique_ptr<QueueDisc> make_qdisc(Simulator& sim,
                                                    const QdiscConfig& config,
                                                    int64_t capacity_bytes);

}  // namespace ccas
