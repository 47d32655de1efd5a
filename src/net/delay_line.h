// Pure propagation-delay elements (infinite rate, no loss).
//
// DelayLine applies one fixed delay to every packet; NetemDelay is the
// tc-netem analog used by the paper to set per-flow base RTTs: it looks up
// the delay per flow id, so flows with different RTTs can share the path.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/util/ring_buffer.h"
#include "src/util/rng.h"

namespace ccas {

class DelayLine final : public PacketSink, public EventHandler {
 public:
  DelayLine(Simulator& sim, TimeDelta delay, PacketSink* dest);

  void accept(Packet&& pkt) override;
  void on_event(uint32_t tag, uint64_t arg) override;

  [[nodiscard]] TimeDelta delay() const { return delay_; }
  [[nodiscard]] size_t in_transit() const { return fifo_.size(); }

 private:
  Simulator& sim_;
  TimeDelta delay_;
  PacketSink* dest_;
  // The delay is uniform, so arrivals happen in insertion order and a FIFO
  // suffices — no per-packet bookkeeping.
  RingBuffer<Packet> fifo_;
};

class NetemDelay final : public PacketSink, public EventHandler {
 public:
  NetemDelay(Simulator& sim, PacketSink* dest);

  // Sets the one-way delay applied to packets of `flow_id`. Must be set
  // before the flow's first packet arrives.
  void set_flow_delay(uint32_t flow_id, TimeDelta delay);
  [[nodiscard]] TimeDelta flow_delay(uint32_t flow_id) const;

  // tc-netem's `delay ... jitter`: each packet gets an extra uniform
  // [0, jitter) delay, modelling kernel/NIC scheduling noise. Unlike raw
  // netem we never reorder within a flow (delivery times are clamped to be
  // non-decreasing per flow), because spurious reordering would trigger
  // dupacks the real testbed does not see.
  void set_jitter(TimeDelta jitter, uint64_t seed);

  void accept(Packet&& pkt) override;
  void on_event(uint32_t tag, uint64_t arg) override;

  // Capacity hints (no observable effect): size the per-flow lane table
  // for `flows` flows, and the in-flight slot pool for `packets` packets,
  // so steady-state operation never grows either (the harness calls these
  // up front; the zero-allocation gate in tools/ccas_perf watches the
  // result).
  void reserve_flows(uint32_t flows) { lanes_.reserve(flows); }
  void reserve_in_flight(size_t packets) {
    slots_.reserve(packets);
    free_slots_.reserve(packets);
  }

  [[nodiscard]] size_t in_transit() const { return in_transit_; }
  [[nodiscard]] int64_t in_transit_bytes() const { return in_transit_bytes_; }

 private:
  // Per-flow state, one cache-adjacent record per flow: the configured
  // delay and the jitter ordering clamp live on the same line, so the hot
  // path takes one indexed load where two parallel vectors took two.
  struct FlowLane {
    TimeDelta delay = TimeDelta::zero();
    Time last_release = Time::zero();
  };

  Simulator& sim_;
  PacketSink* dest_;
  std::vector<FlowLane> lanes_;
  TimeDelta jitter_ = TimeDelta::zero();
  std::unique_ptr<Rng> jitter_rng_;
  // Packets in flight live in a slot pool; the scheduled event carries the
  // slot index (flows with different delays can overtake each other, so a
  // FIFO would deliver out of order).
  std::vector<Packet> slots_;
  std::vector<uint32_t> free_slots_;
  size_t in_transit_ = 0;
  int64_t in_transit_bytes_ = 0;
};

}  // namespace ccas
