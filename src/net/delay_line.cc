#include "src/net/delay_line.h"

#include <utility>

namespace ccas {

DelayLine::DelayLine(Simulator& sim, TimeDelta delay, PacketSink* dest)
    : sim_(sim), delay_(delay), dest_(dest) {
  if (dest == nullptr) throw std::invalid_argument("DelayLine needs a destination");
  if (delay < TimeDelta::zero()) throw std::invalid_argument("negative delay");
}

void DelayLine::accept(Packet&& pkt) {
  fifo_.push_back(std::move(pkt));
  sim_.schedule_in(delay_, this, 0);
}

void DelayLine::on_event(uint32_t /*tag*/, uint64_t /*arg*/) {
  dest_->accept(fifo_.pop_front());
}

NetemDelay::NetemDelay(Simulator& sim, PacketSink* dest) : sim_(sim), dest_(dest) {
  if (dest == nullptr) throw std::invalid_argument("NetemDelay needs a destination");
}

void NetemDelay::set_flow_delay(uint32_t flow_id, TimeDelta delay) {
  if (delay < TimeDelta::zero()) throw std::invalid_argument("negative delay");
  if (flow_id >= lanes_.size()) lanes_.resize(flow_id + 1);
  lanes_[flow_id].delay = delay;
}

TimeDelta NetemDelay::flow_delay(uint32_t flow_id) const {
  if (flow_id >= lanes_.size()) return TimeDelta::zero();
  return lanes_[flow_id].delay;
}

void NetemDelay::set_jitter(TimeDelta jitter, uint64_t seed) {
  if (jitter < TimeDelta::zero()) throw std::invalid_argument("negative jitter");
  jitter_ = jitter;
  jitter_rng_ = jitter.is_zero() ? nullptr : std::make_unique<Rng>(seed);
}

void NetemDelay::accept(Packet&& pkt) {
  // The release time includes the jitter draw and the per-flow ordering
  // clamp, both taken in accept order.
  const uint32_t flow = pkt.flow_id;
  if (flow >= lanes_.size()) lanes_.resize(flow + 1);
  FlowLane& lane = lanes_[flow];
  Time release = sim_.now() + lane.delay;
  if (jitter_rng_ != nullptr) {
    release = release + jitter_ * jitter_rng_->next_double();
    // Clamp so packets of one flow never reorder.
    if (release < lane.last_release) release = lane.last_release;
    lane.last_release = release;
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(pkt);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(pkt));
  }
  ++in_transit_;
  in_transit_bytes_ += slots_[slot].size_bytes;
  sim_.schedule_at(release, this, 0, slot);
}

void NetemDelay::on_event(uint32_t /*tag*/, uint64_t arg) {
  const auto slot = static_cast<uint32_t>(arg);
  Packet p = std::move(slots_[slot]);
  free_slots_.push_back(slot);
  --in_transit_;
  in_transit_bytes_ -= p.size_bytes;
  dest_->accept(std::move(p));
}

}  // namespace ccas
