#include "src/workload/engine.h"

#include <cmath>
#include <utility>

namespace ccas {

namespace {

constexpr uint32_t kTagArrival = 0;
constexpr uint32_t kTagAppTimer = 1;

// App-timer events address a (slot, generation) pair packed into the event
// arg: a reused slot bumps the generation, so timers armed for the
// previous occupant are recognized as stale and ignored.
[[nodiscard]] uint64_t pack_timer(uint32_t gen, uint32_t si) {
  return (static_cast<uint64_t>(gen) << 32) | si;
}

}  // namespace

WorkloadEngine::WorkloadEngine(Simulator& sim, DumbbellTopology& topo,
                               FlowTable& table, const WorkloadSpec& spec,
                               const TcpSenderConfig& tcp,
                               const TcpReceiverConfig& receiver,
                               uint32_t first_flow_id, Time end_time,
                               TimeDelta max_rtt, uint64_t seed)
    : sim_(sim),
      spec_(spec),
      tcp_(tcp),
      receiver_(receiver),
      bottleneck_rate_(topo.config().bottleneck_rate),
      end_time_(end_time),
      rng_(seed),
      flows_(sim, topo, table, *this, max_rtt, first_flow_id) {
  cum_weight_.reserve(spec.classes.size());
  double sum = 0.0;
  for (const WorkloadClass& c : spec.classes) {
    sum += c.weight;
    cum_weight_.push_back(sum);
  }
  if (!cum_weight_.empty()) cum_weight_.back() = 1.0;
  recorders_.resize(spec.classes.size());
  for (FctRecorder& r : recorders_) r.reserve(512);
}

void WorkloadEngine::begin() {
  if (spec_.arrivals_per_sec > 0.0) {
    sim_.schedule_at(Time::zero(), this, kTagArrival, 0);
  }
}

void WorkloadEngine::on_event(uint32_t tag, uint64_t arg) {
  if (tag == kTagArrival) {
    on_arrival();
  } else {
    on_app_timer(static_cast<uint32_t>(arg >> 32), static_cast<uint32_t>(arg));
  }
}

uint32_t WorkloadEngine::pick_class() {
  const double u = rng_.next_double();
  for (size_t i = 0; i + 1 < cum_weight_.size(); ++i) {
    if (u < cum_weight_[i]) return static_cast<uint32_t>(i);
  }
  return static_cast<uint32_t>(cum_weight_.size() - 1);
}

double WorkloadEngine::ideal_fct_s(const WorkloadClass& cls,
                                   uint64_t segments) const {
  // One RTT plus the transfer's serialization time at the bottleneck, plus
  // the pacing model's floor (an app-limited flow cannot beat its own
  // release schedule: bursts - 1 gaps; for request-response that gap is
  // the mean think time, making slowdown an average-case ratio).
  double s = cls.rtt.sec();
  if (!bottleneck_rate_.is_infinite()) {
    s += static_cast<double>(segments) * static_cast<double>(kDataPacketBytes) *
         8.0 / static_cast<double>(bottleneck_rate_.bits_per_sec());
  }
  if (cls.app != AppModel::kBulk && cls.app_burst_segments > 0) {
    const uint64_t bursts =
        (segments + cls.app_burst_segments - 1) / cls.app_burst_segments;
    if (bursts > 1) s += static_cast<double>(bursts - 1) * cls.app_gap.sec();
  }
  return s;
}

void WorkloadEngine::on_arrival() {
  if (sim_.now() >= end_time_) return;
  // Dedicated-RNG draw order per arrival: class pick, then (when admitted)
  // fork + size, then at the bottom the next gap — fixed, so replay is
  // byte-identical per seed.
  const uint32_t ci = pick_class();
  const WorkloadClass& cls = spec_.classes[ci];
  recorders_[ci].on_arrival();
  if (spec_.max_concurrent > 0 && flows_.active() >= spec_.max_concurrent) {
    recorders_[ci].on_reject();
  } else {
    Rng flow_rng = rng_.fork();
    const uint64_t size = cls.size.sample(rng_);
    const uint32_t si = flows_.open(std::move(flow_rng), cls.cca, cls.rtt, tcp_,
                                    receiver_, size, ci);
    DynamicFlows::State& st = flows_.state(si);
    switch (cls.app) {
      case AppModel::kBulk:
        break;
      case AppModel::kRequestResponse:
      case AppModel::kWebObject:
        st.slot.sender->enable_app_gate(cls.app_burst_segments);
        // Two-word capture fits std::function's inline storage: no heap.
        st.slot.sender->set_app_drained_callback(
            [this, si] { on_app_drained(si); });
        break;
      case AppModel::kVideoChunk:
        // Open-loop chunk schedule: the first chunk goes out at start, the
        // next every app_gap regardless of delivery progress.
        st.slot.sender->enable_app_gate(cls.app_burst_segments);
        sim_.schedule_at(sim_.now() + cls.app_gap, this, kTagAppTimer,
                         pack_timer(st.gen, si));
        break;
    }
    st.slot.sender->start();
  }
  double gap;
  if (spec_.arrival == ArrivalKind::kPoisson) {
    gap = -std::log(1.0 - rng_.next_double()) / spec_.arrivals_per_sec;
  } else {
    gap = 1.0 / spec_.arrivals_per_sec;
  }
  const Time next = sim_.now() + TimeDelta::seconds_f(gap);
  if (next < end_time_) sim_.schedule_at(next, this, kTagArrival, 0);
}

void WorkloadEngine::on_flow_complete(const DynamicFlows::State& st) {
  const WorkloadClass& cls = spec_.classes[st.cls];
  const double fct = (sim_.now() - st.started).sec();
  recorders_[st.cls].on_complete(fct, ideal_fct_s(cls, st.size), st.size);
}

void WorkloadEngine::on_app_drained(uint32_t si) {
  DynamicFlows::State& st = flows_.state(si);
  if (!st.live || st.completed) return;
  const WorkloadClass& cls = spec_.classes[st.cls];
  TimeDelta delay = cls.app_gap;  // kWebObject: fixed inter-object gap
  if (cls.app == AppModel::kRequestResponse) {
    // Exponential think time from the flow's own rng, so arrival/size
    // draws on the engine stream stay independent of app pacing.
    delay = TimeDelta::seconds_f(-std::log(1.0 - st.slot.rng->next_double()) *
                                 cls.app_gap.sec());
  }
  sim_.schedule_at(sim_.now() + delay, this, kTagAppTimer,
                   pack_timer(st.gen, si));
}

void WorkloadEngine::on_app_timer(uint32_t gen, uint32_t si) {
  DynamicFlows::State& st = flows_.state(si);
  if (st.gen != gen || !st.live || st.completed) return;
  const WorkloadClass& cls = spec_.classes[st.cls];
  st.slot.sender->app_release(cls.app_burst_segments);
  if (cls.app == AppModel::kVideoChunk &&
      st.slot.sender->app_limit() < st.size) {
    sim_.schedule_at(sim_.now() + cls.app_gap, this, kTagAppTimer,
                     pack_timer(st.gen, si));
  }
}

void WorkloadEngine::finalize(std::vector<WorkloadClassResult>& out) {
  for (const DynamicFlows::State& st : flows_.states()) {
    if (st.live && !st.completed) recorders_[st.cls].on_abandon();
  }
  out.reserve(out.size() + spec_.classes.size());
  for (size_t i = 0; i < spec_.classes.size(); ++i) {
    out.push_back(
        recorders_[i].summarize(spec_.classes[i].name, spec_.classes[i].cca));
  }
}

}  // namespace ccas
