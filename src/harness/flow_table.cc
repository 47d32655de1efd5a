#include "src/harness/flow_table.h"

#include <new>
#include <utility>

#include "src/cca/cca.h"

namespace ccas {

namespace {

constexpr size_t align_up(size_t v, size_t a) { return (v + a - 1) & ~(a - 1); }

constexpr uint32_t kTagReap = 1;

// How long after a dynamic flow completes before its slab may be reused:
// an upper bound on the lifetime of anything still referencing the
// endpoints from inside the network — stray duplicate data, trailing ACKs,
// a delack fire answering a late segment. Two max-RTTs plus twice the
// worst-case queue drain plus every configured jitter/reorder hold, with
// flat slack that dominates the delack and GRO timeouts. Lazily-cancelled
// timer entries can outlive any grace, so the reaper re-checks them
// separately (latest_timer_entry) and defers past the last one.
TimeDelta reap_grace(const DumbbellConfig& net, TimeDelta max_rtt) {
  TimeDelta drain = TimeDelta::zero();
  if (!net.bottleneck_rate.is_infinite()) {
    drain = TimeDelta::seconds_f(
        static_cast<double>(net.buffer_bytes) * 8.0 /
        static_cast<double>(net.bottleneck_rate.bits_per_sec()));
  }
  if (!net.edge_rate.is_infinite()) {
    drain = drain + TimeDelta::seconds_f(
                        static_cast<double>(net.edge_buffer_bytes) * 8.0 /
                        static_cast<double>(net.edge_rate.bits_per_sec()));
  }
  const TimeDelta holds = net.jitter + net.jitter + net.impairments.jitter +
                          net.impairments.jitter +
                          net.impairments.reorder_delay;
  return max_rtt + max_rtt + drain + drain + holds + TimeDelta::millis(200);
}

}  // namespace

FlowTable::~FlowTable() {
  // Reverse index order mirrors the reverse-construction teardown the
  // arena's dtor list used to perform for the make_unique-era objects.
  for (size_t i = entries_.size(); i-- > 0;) {
    if (entries_[i].live) destroy_objects(entries_[i]);
  }
}

FlowTable::Slot FlowTable::create(Simulator& sim, uint32_t flow_id,
                                  Rng&& flow_rng, const std::string& cca_name,
                                  PacketSink* data_path, PacketSink* ack_path,
                                  const TcpSenderConfig& sender_config,
                                  const TcpReceiverConfig& receiver_config) {
  const CcaPlacement* pl = CcaRegistry::instance().placement(cca_name);

  // Slab layout: [Rng][TcpReceiver][TcpSender][CCA?], alignment-padded.
  const size_t off_rng = 0;
  const size_t off_recv =
      align_up(off_rng + sizeof(Rng), alignof(TcpReceiver));
  const size_t off_send =
      align_up(off_recv + sizeof(TcpReceiver), alignof(TcpSender));
  size_t end = off_send + sizeof(TcpSender);
  size_t off_cca = 0;
  if (pl != nullptr) {
    off_cca = align_up(end, pl->align);
    end = off_cca + pl->size;
  }
  const auto slab_bytes = static_cast<uint32_t>(align_up(end, kSlabAlign));

  // Reuse a parked slab of the same size class if one exists.
  void* slab = nullptr;
  if (auto it = free_slabs_.find(slab_bytes);
      it != free_slabs_.end() && !it->second.empty()) {
    slab = it->second.back();
    it->second.pop_back();
    ++slab_reuses_;
  } else {
    slab = arena_.allocate(slab_bytes, kSlabAlign);
    ++slabs_allocated_;
  }
  auto* base = static_cast<char*>(slab);

  // Historical construction order: rng -> receiver -> cca -> sender.
  auto* rng = new (base + off_rng) Rng(std::move(flow_rng));
  TcpReceiver* receiver = nullptr;
  TcpSender* sender = nullptr;
  CongestionController* cca = nullptr;
  try {
    receiver =
        new (base + off_recv) TcpReceiver(sim, flow_id, ack_path, receiver_config);
    if (pl != nullptr) {
      cca = pl->construct(base + off_cca, *rng);
      sender = new (base + off_send)
          TcpSender(sim, flow_id, cca, data_path, sender_config);
    } else {
      // No placement recipe: the controller comes from the heap factory and
      // the sender owns it, as before this table existed.
      sender = new (base + off_send)
          TcpSender(sim, flow_id, make_cca(cca_name, *rng), data_path,
                    sender_config);
    }
  } catch (...) {
    if (cca != nullptr) cca->~CongestionController();
    if (receiver != nullptr) receiver->~TcpReceiver();
    rng->~Rng();
    free_slabs_[slab_bytes].push_back(slab);
    throw;
  }

  uint32_t index;
  if (!free_entries_.empty()) {
    index = free_entries_.back();
    free_entries_.pop_back();
  } else {
    index = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[index];
  e.slab = slab;
  e.slab_bytes = slab_bytes;
  e.live = true;
  e.rng = rng;
  e.receiver = receiver;
  e.sender = sender;
  e.cca = cca;
  ++live_;

  return Slot{rng, receiver, sender, index};
}

void FlowTable::destroy_objects(Entry& e) {
  // Reverse of construction order; a sender-owned CCA dies inside the
  // sender's destructor, a slab-resident one right after it.
  e.sender->~TcpSender();
  if (e.cca != nullptr) e.cca->~CongestionController();
  e.receiver->~TcpReceiver();
  e.rng->~Rng();
  e.live = false;
}

void FlowTable::recycle(const Slot& slot) {
  Entry& e = entries_[slot.index];
  destroy_objects(e);
  free_slabs_[e.slab_bytes].push_back(e.slab);
  free_entries_.push_back(slot.index);
  --live_;
  ++slabs_recycled_;
}

DynamicFlows::DynamicFlows(Simulator& sim, DumbbellTopology& topo,
                           FlowTable& table, Owner& owner, TimeDelta max_rtt,
                           uint32_t first_flow_id)
    : sim_(sim),
      topo_(topo),
      table_(table),
      owner_(owner),
      grace_(reap_grace(topo.config(), max_rtt)),
      next_flow_id_(first_flow_id) {
  states_.reserve(256);
  free_states_.reserve(256);
}

uint32_t DynamicFlows::open(Rng&& flow_rng, const std::string& cca,
                            TimeDelta rtt, TcpSenderConfig tcp,
                            const TcpReceiverConfig& receiver, uint64_t size,
                            uint32_t cls) {
  const uint32_t id = next_flow_id_++;
  uint32_t si;
  if (!free_states_.empty()) {
    si = free_states_.back();
    free_states_.pop_back();
  } else {
    si = static_cast<uint32_t>(states_.size());
    states_.emplace_back();
  }
  State& st = states_[si];
  tcp.data_segments = size;
  st.slot = table_.create(sim_, id, std::move(flow_rng), cca,
                          &topo_.data_entry(id), &topo_.ack_entry(), tcp,
                          receiver);
  st.started = sim_.now();
  st.size = size;
  st.flow_id = id;
  st.cls = cls;
  st.live = true;
  st.completed = false;
  topo_.register_flow(id, rtt, st.slot.sender, st.slot.receiver);
  // Two-word capture fits std::function's inline storage: no heap.
  st.slot.sender->set_completion_callback([this, si] { complete(si); });
  ++active_;
  ++started_;
  return si;
}

void DynamicFlows::complete(uint32_t si) {
  State& st = states_[si];
  if (st.completed) return;
  st.completed = true;
  --active_;
  ++completed_;
  owner_.on_flow_complete(st);
  sim_.schedule_at(sim_.now() + grace_, this, kTagReap, si);
}

void DynamicFlows::on_event(uint32_t /*tag*/, uint64_t arg) {
  reap(static_cast<uint32_t>(arg));
}

void DynamicFlows::reap(uint32_t si) {
  State& st = states_[si];
  // Lazily-cancelled timer entries still hold pointers into the slot; park
  // the reap just past the last one (it may re-arm — re-check).
  const Time s = st.slot.sender->latest_timer_entry();
  const Time r = st.slot.receiver->latest_timer_entry();
  const Time pending = s > r ? s : r;
  if (pending > Time::zero()) {
    const Time at =
        (pending > sim_.now() ? pending : sim_.now()) + TimeDelta::nanos(1);
    sim_.schedule_at(at, this, kTagReap, si);
    return;
  }
  reaped_goodput_bytes_ += st.slot.receiver->goodput_bytes();
  topo_.unregister_flow(st.flow_id);
  table_.recycle(st.slot);
  st.live = false;
  ++st.gen;  // invalidate any pending owner events for this slot
  free_states_.push_back(si);
}

int64_t DynamicFlows::goodput_bytes() const {
  int64_t total = reaped_goodput_bytes_;
  for (const State& st : states_) {
    if (st.live) total += st.slot.receiver->goodput_bytes();
  }
  return total;
}

}  // namespace ccas
