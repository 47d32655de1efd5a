// Arena-backed per-flow object table (DESIGN.md §12).
//
// Historically every flow's sender, receiver, CCA and per-flow Rng were
// separate make_unique heap islands; at CoreScale (20k flows) each
// dispatched event then pointer-chased across a working set far larger
// than cache, and per-event cost grew with flow count. The FlowTable packs
// all four objects into one contiguous, 64-byte-aligned slab per flow,
// allocated from a MonotonicArena, so the state an event touches is one
// local neighbourhood:
//
//   [Rng][TcpReceiver][TcpSender][CCA]      (one slab, alignment-padded)
//
// Construction order inside a slot is exactly the historical order
// (rng -> receiver -> cca -> sender), so per-flow RNG streams — and
// therefore every golden digest — are byte-identical to the make_unique
// path. The CCA is placement-constructed via its registered CcaPlacement;
// controllers registered factory-only (external/test CCAs) fall back to a
// heap-owned controller held by the sender, with everything else still
// slab-resident.
//
// recycle() destroys a slot's objects and parks the slab on a size-keyed
// free list; the next create() of a same-sized slot (the common case in
// churn: same CCA type) reuses it without touching the heap or growing the
// arena. The caller owns the safety argument: no pending event — packet in
// flight or lazy timer entry — may still reference the slot's endpoints
// when recycle() runs (see DynamicFlows' grace-period reaper below).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/topology.h"
#include "src/sim/simulator.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"
#include "src/util/arena.h"
#include "src/util/rng.h"

namespace ccas {

class FlowTable {
 public:
  // Handle to one live flow slot.
  struct Slot {
    Rng* rng = nullptr;
    TcpReceiver* receiver = nullptr;
    TcpSender* sender = nullptr;
    uint32_t index = 0;  // FlowTable bookkeeping handle, not the flow id
  };

  FlowTable() = default;
  ~FlowTable();
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  // Builds one flow's objects in a single contiguous slab. `flow_rng` is
  // moved into the slab (callers pass master_rng.fork() exactly where the
  // make_unique path did, keeping stream assignment identical).
  Slot create(Simulator& sim, uint32_t flow_id, Rng&& flow_rng,
              const std::string& cca_name, PacketSink* data_path,
              PacketSink* ack_path, const TcpSenderConfig& sender_config,
              const TcpReceiverConfig& receiver_config);

  // Destroys the slot's objects and parks its slab for reuse. The caller
  // must guarantee no queued event still references the endpoints.
  void recycle(const Slot& slot);

  [[nodiscard]] size_t live() const { return live_; }
  [[nodiscard]] uint64_t slabs_allocated() const { return slabs_allocated_; }
  [[nodiscard]] uint64_t slabs_recycled() const { return slabs_recycled_; }
  [[nodiscard]] uint64_t slab_reuses() const { return slab_reuses_; }
  [[nodiscard]] size_t arena_bytes() const { return arena_.bytes_used(); }

  // Slabs are aligned (and size-rounded) to the cache-line size, so two
  // flows never share a line.
  static constexpr size_t kSlabAlign = 64;

 private:
  struct Entry {
    void* slab = nullptr;
    uint32_t slab_bytes = 0;
    bool live = false;
    Rng* rng = nullptr;
    TcpReceiver* receiver = nullptr;
    TcpSender* sender = nullptr;
    CongestionController* cca = nullptr;  // slab-resident; null if heap-owned
  };

  void destroy_objects(Entry& e);

  MonotonicArena arena_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> free_entries_;
  // Recycled slabs keyed by slab size (distinct CCA types of equal padded
  // footprint share a bucket; the memory is raw either way).
  std::unordered_map<uint32_t, std::vector<void*>> free_slabs_;
  size_t live_ = 0;
  uint64_t slabs_allocated_ = 0;
  uint64_t slabs_recycled_ = 0;
  uint64_t slab_reuses_ = 0;
};

// The lifecycle of dynamically arriving finite flows, shared by both
// arrival policies (ChurnDriver in churn.cc, WorkloadEngine in
// src/workload/): a recycled pool of per-flow states over FlowTable slabs,
// completion bookkeeping, and the grace-period reaper that tears a
// departed flow down and parks its slab for the next arrival (DESIGN.md
// §12). The owner decides when a flow arrives, what it is, and what its
// completion records.
class DynamicFlows final : public EventHandler {
 public:
  struct State {
    FlowTable::Slot slot;
    Time started = Time::zero();
    uint64_t size = 0;  // segments
    uint32_t flow_id = 0;
    uint32_t cls = 0;  // owner-defined class index
    // Bumped at reap: owner events carrying an older generation are stale
    // (the slot was recycled) and must be ignored.
    uint32_t gen = 0;
    bool live = false;
    bool completed = false;
  };

  // Told once per flow when its sender completes.
  class Owner {
   public:
    virtual void on_flow_complete(const State& st) = 0;

   protected:
    ~Owner() = default;
  };

  // `max_rtt` must cover every dynamic flow and every fixed flow sharing
  // the network (their ACKs share the return path). Flow ids start at
  // `first_flow_id` and are never reused (per-flow tables are id-indexed);
  // only slabs are.
  DynamicFlows(Simulator& sim, DumbbellTopology& topo, FlowTable& table,
               Owner& owner, TimeDelta max_rtt, uint32_t first_flow_id);

  // Creates a flow of `size` segments under the next flow id, registers it
  // with the topology and installs its completion callback. The sender is
  // not started: the owner arms any app model first, then calls start().
  // Returns the flow's state index.
  uint32_t open(Rng&& flow_rng, const std::string& cca, TimeDelta rtt,
                TcpSenderConfig tcp, const TcpReceiverConfig& receiver,
                uint64_t size, uint32_t cls);

  [[nodiscard]] State& state(uint32_t si) { return states_[si]; }
  [[nodiscard]] const std::vector<State>& states() const { return states_; }
  [[nodiscard]] uint64_t active() const { return active_; }
  [[nodiscard]] uint64_t started() const { return started_; }
  [[nodiscard]] uint64_t completed() const { return completed_; }

  // Exact goodput of every dynamic flow: reaped flows were accumulated
  // when their receivers were torn down, live ones are read here. Integer
  // bytes, so the sum is order-independent.
  [[nodiscard]] int64_t goodput_bytes() const;

  // The reap event (handler-local tag 1; `arg` is the state index).
  void on_event(uint32_t tag, uint64_t arg) override;

 private:
  void complete(uint32_t si);
  void reap(uint32_t si);

  Simulator& sim_;
  DumbbellTopology& topo_;
  FlowTable& table_;
  Owner& owner_;
  const TimeDelta grace_;
  std::vector<State> states_;
  std::vector<uint32_t> free_states_;
  uint32_t next_flow_id_;
  uint64_t active_ = 0;
  uint64_t started_ = 0;
  uint64_t completed_ = 0;
  int64_t reaped_goodput_bytes_ = 0;
};

}  // namespace ccas
