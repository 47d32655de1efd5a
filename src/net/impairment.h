// Netem-equivalent link impairment stage: deterministic fault injection
// composable in front of any PacketSink (a Link's destination, a
// DelayLine, a queue). The paper's testbed shapes paths with tc-netem and
// relies on the bottleneck's drop behaviour being the only loss source;
// ImpairedLink opens the exogenous axis — stochastic loss (i.i.d. and
// Gilbert-Elliott bursty), probabilistic reordering (delay-swap with a
// bounded displacement), duplication, per-packet jitter, and scheduled
// link faults (down/up flaps, mid-run rate/buffer changes).
//
// Determinism contract: the stage owns a dedicated Rng seeded from the
// sweep cell's seed (derive_impairment_seed), draws from it only for the
// features that are actually enabled, and is not constructed at all when
// the config is inert — so unimpaired runs are bit-identical to builds
// that predate this layer, and impaired runs are byte-identical at any
// --jobs level.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace ccas {

class Link;
class QueueDisc;

// Two-state Gilbert-Elliott loss chain: per-packet transitions between a
// good and a bad (bursty-loss) state, each with its own drop probability.
// The chain starts in the good state.
struct GilbertElliottConfig {
  double p_good_to_bad = 0.0;  // per-packet P(good -> bad)
  double p_bad_to_good = 0.0;  // per-packet P(bad -> good)
  double loss_bad = 0.0;       // drop probability while in the bad state
  double loss_good = 0.0;      // drop probability while in the good state

  [[nodiscard]] bool enabled() const {
    return p_good_to_bad > 0.0 && (loss_bad > 0.0 || loss_good > 0.0);
  }
};

// One scheduled link fault, applied at an absolute simulation time.
struct LinkFault {
  enum class Kind : uint8_t {
    kDown,    // drop every packet until the next kUp
    kUp,      // restore delivery
    kRate,    // retarget the attached Link's rate (next transmission on)
    kBuffer,  // retarget the attached QueueDisc's capacity
  };
  Time at = Time::zero();
  Kind kind = Kind::kDown;
  DataRate rate = DataRate::zero();  // kRate only
  int64_t buffer_bytes = 0;          // kBuffer only
};

struct ImpairmentConfig {
  enum class JitterDist : uint8_t { kUniform, kNormal };

  double loss = 0.0;       // i.i.d. per-packet drop probability
  GilbertElliottConfig ge;
  double duplicate = 0.0;  // per-packet duplication probability
  // Delay-swap reordering: with probability `reorder` a packet is held for
  // an extra uniform [0, reorder_delay) while later packets pass it, so
  // its displacement (in time, and hence in positions) is bounded.
  double reorder = 0.0;
  TimeDelta reorder_delay = TimeDelta::millis(1);
  // Per-packet extra delay in [0, jitter): uniform, or an Irwin-Hall
  // normal approximation (mean jitter/2, clamped to the same interval —
  // no libm calls, so streams are bit-identical across platforms).
  TimeDelta jitter = TimeDelta::zero();
  JitterDist jitter_dist = JitterDist::kUniform;
  // Scheduled faults, strictly increasing in `at`.
  std::vector<LinkFault> faults;
  // Rng seed for this stage's dedicated stream. 0 = derive from the
  // experiment's cell seed (the harness Cell calls derive_impairment_seed).
  uint64_t seed = 0;
  // Test hook: build the stage even when inert. An inert stage forwards
  // synchronously and draws no randomness, so runs are bit-identical to
  // the unwrapped wiring — which is why this flag (like ExperimentSpec::
  // audit) is deliberately NOT part of the canonical spec encoding.
  bool force_stage = false;

  [[nodiscard]] bool enabled() const {
    return loss > 0.0 || ge.enabled() || duplicate > 0.0 || reorder > 0.0 ||
           jitter > TimeDelta::zero() || !faults.empty();
  }
  // Throws std::invalid_argument on out-of-range probabilities, a
  // non-positive reorder window, non-monotonic fault schedules, or
  // non-positive fault rates/buffers.
  void validate() const;
};

// Dedicated per-cell impairment seed: a SplitMix64 finalizer over the
// experiment seed under a fixed salt, so the stage's stream is independent
// of the master Rng (which must keep its historical consumption order for
// the pre-impairment goldens to stay byte-identical).
[[nodiscard]] uint64_t derive_impairment_seed(uint64_t cell_seed);

struct ImpairmentStats {
  uint64_t processed = 0;     // packets accepted from upstream
  uint64_t dropped_iid = 0;   // i.i.d. random loss
  uint64_t dropped_ge = 0;    // Gilbert-Elliott loss (either state)
  uint64_t dropped_down = 0;  // link-down fault
  uint64_t duplicated = 0;    // extra copies created
  uint64_t reordered = 0;     // packets held for a delay-swap
  uint64_t jittered = 0;      // packets given a nonzero jitter delay
  uint64_t delivered = 0;     // packets handed downstream (incl. copies)

  [[nodiscard]] uint64_t dropped_total() const {
    return dropped_iid + dropped_ge + dropped_down;
  }
};

class ImpairedLink final : public PacketSink, public EventHandler {
 public:
  // `config` must validate(); `seed` 0 falls back to config.seed.
  ImpairedLink(Simulator& sim, const ImpairmentConfig& config, PacketSink* dest);

  // Attaches the components that kRate/kBuffer faults retarget. Optional:
  // faults of those kinds without a target are ignored.
  void attach_fault_targets(Link* link, QueueDisc* queue);

  void accept(Packet&& pkt) override;
  void on_event(uint32_t tag, uint64_t arg) override;

  // Capacity hint (no observable effect): size the delayed-packet slot
  // pool so reorder/jitter holds never grow it in steady state.
  void reserve_in_flight(size_t packets) {
    slots_.reserve(packets);
    free_slots_.reserve(packets);
  }

  [[nodiscard]] const ImpairmentStats& stats() const { return stats_; }
  [[nodiscard]] bool down() const { return down_; }
  // Packets currently held for reorder/jitter delays (auditor holder).
  [[nodiscard]] size_t in_transit() const { return in_transit_; }
  [[nodiscard]] int64_t in_transit_bytes() const { return in_transit_bytes_; }
  [[nodiscard]] const ImpairmentConfig& config() const { return config_; }

 private:
  void forward(Packet&& pkt, TimeDelta extra_delay);
  void apply_fault(const LinkFault& fault);
  [[nodiscard]] TimeDelta draw_jitter();

  Simulator& sim_;
  ImpairmentConfig config_;
  PacketSink* dest_;
  Rng rng_;
  Link* fault_link_ = nullptr;
  QueueDisc* fault_queue_ = nullptr;

  bool down_ = false;
  bool ge_bad_ = false;  // Gilbert-Elliott chain state
  ImpairmentStats stats_;

  // Delayed packets live in a slot pool; the scheduled event carries the
  // slot index (delayed packets can be overtaken, so no FIFO).
  std::vector<Packet> slots_;
  std::vector<uint32_t> free_slots_;
  size_t in_transit_ = 0;
  int64_t in_transit_bytes_ = 0;
};

}  // namespace ccas
