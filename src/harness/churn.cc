#include "src/harness/churn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/cca/cca.h"
#include "src/harness/flow_table.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace ccas {

double ChurnResult::mean_fct() const {
  if (fct_seconds.empty()) return 0.0;
  double sum = 0.0;
  for (const double f : fct_seconds) sum += f;
  return sum / static_cast<double>(fct_seconds.size());
}

double ChurnResult::median_fct() const {
  if (fct_seconds.empty()) return 0.0;
  return median(fct_seconds);
}

double ChurnResult::mean_fct_sized(uint64_t min_size, uint64_t max_size) const {
  double sum = 0.0;
  int n = 0;
  for (size_t i = 0; i < fct_seconds.size(); ++i) {
    if (completed_sizes[i] >= min_size && completed_sizes[i] <= max_size) {
      sum += fct_seconds[i];
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

namespace {

[[nodiscard]] int background_count(const ChurnSpec& spec) {
  int n = 0;
  for (const FlowGroup& g : spec.background) n += g.count;
  return n;
}

// How long after a churn flow completes before its slab may be reused: an
// upper bound on the lifetime of anything still referencing the endpoints
// from inside the network — stray duplicate data, trailing ACKs, a delack
// fire answering a late segment. Two max-RTTs plus twice the worst-case
// queue drain plus every configured jitter/reorder hold, with flat slack
// that dominates the delack and GRO timeouts. Lazily-cancelled timer
// entries can outlive any grace, so the reaper re-checks them separately
// (TcpSender::latest_timer_entry) and defers past the last one.
[[nodiscard]] TimeDelta reap_grace(const ChurnSpec& spec) {
  TimeDelta max_rtt = spec.rtt;
  for (const FlowGroup& g : spec.background) {
    max_rtt = std::max(max_rtt, g.rtt);
  }
  const DumbbellConfig& net = spec.scenario.net;
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

constexpr uint32_t kTagArrival = 0;
constexpr uint32_t kTagReap = 1;

// The allocation-free churn path (DESIGN.md §12). Arrivals are events on
// this handler (no per-arrival std::function copies), flows live in
// FlowTable slabs, and departures go through a grace-period reaper that
// parks the slab for the next arrival. Steady state touches the heap only
// through amortized vector growth. The event stream is byte-identical to
// the historical recursive schedule_fn_at chain: every push happens at the
// same execution point, and the extra reap events carry no observable
// effect (they only release memory), so relative event order — and with it
// every RNG draw — is unchanged.
class ChurnDriver final : public EventHandler {
 public:
  ChurnDriver(Simulator& sim, DumbbellTopology& topo, FlowTable& table,
              Rng& rng, const ChurnSpec& spec, ChurnResult& result,
              Time end_time)
      : sim_(sim),
        topo_(topo),
        table_(table),
        rng_(rng),
        spec_(spec),
        result_(result),
        end_time_(end_time),
        grace_(reap_grace(spec)) {}

  // Flow ids continue after the background flows; ids are never reused
  // (per-flow tables are id-indexed), only slabs are.
  void set_next_flow_id(uint32_t id) { next_flow_id_ = id; }

  void begin() {
    if (spec_.arrivals_per_sec > 0.0) {
      sim_.schedule_at(Time::zero(), this, kTagArrival, 0);
    }
  }

  void on_event(uint32_t tag, uint64_t arg) override {
    if (tag == kTagArrival) {
      on_arrival();
    } else {
      on_reap(static_cast<uint32_t>(arg));
    }
  }

  // Exact goodput of every churn flow: reaped flows were accumulated when
  // their receivers were torn down, live ones are read here. Every term and
  // partial sum is an integer far below 2^53, so this equals the historical
  // creation-order double accumulation bit for bit.
  [[nodiscard]] int64_t churn_goodput_bytes() const {
    int64_t total = reaped_goodput_bytes_;
    for (const State& st : states_) {
      if (st.live) total += st.slot.receiver->goodput_bytes();
    }
    return total;
  }

 private:
  struct State {
    FlowTable::Slot slot;
    Time started = Time::zero();
    uint64_t size = 0;
    uint32_t flow_id = 0;
    bool live = false;
    bool completed = false;
  };

  // Bounded-Pareto flow sizes (inverse CDF), one master-RNG draw.
  [[nodiscard]] uint64_t sample_size() {
    const double a = spec_.pareto_alpha;
    const auto lo = static_cast<double>(spec_.min_size_segments);
    const auto hi = static_cast<double>(spec_.max_size_segments);
    const double u = rng_.next_double();
    const double x =
        std::pow(-(u * std::pow(hi, a) - u * std::pow(lo, a) - std::pow(hi, a)) /
                     (std::pow(hi, a) * std::pow(lo, a)),
                 -1.0 / a);
    return static_cast<uint64_t>(std::clamp(x, lo, hi));
  }

  void on_arrival() {
    if (sim_.now() >= end_time_) return;
    if (active_ >= spec_.max_concurrent) {
      ++result_.arrivals_rejected;
    } else {
      // Master-RNG draw order is load-bearing: fork, then size, then (at
      // the bottom) the next arrival gap — exactly the historical order.
      Rng flow_rng = rng_.fork();
      const uint32_t id = next_flow_id_++;
      const uint64_t size = sample_size();
      uint32_t si;
      if (!free_states_.empty()) {
        si = free_states_.back();
        free_states_.pop_back();
      } else {
        si = static_cast<uint32_t>(states_.size());
        states_.emplace_back();
      }
      State& st = states_[si];
      TcpSenderConfig cfg = spec_.tcp;
      cfg.data_segments = size;
      st.slot = table_.create(sim_, id, std::move(flow_rng), spec_.cca,
                              &topo_.data_entry(id), &topo_.ack_entry(), cfg,
                              spec_.receiver);
      st.started = sim_.now();
      st.size = size;
      st.flow_id = id;
      st.live = true;
      st.completed = false;
      topo_.register_flow(id, spec_.rtt, st.slot.sender, st.slot.receiver);
      // Two-word capture fits std::function's inline storage: no heap.
      st.slot.sender->set_completion_callback([this, si] { on_complete(si); });
      ++active_;
      ++result_.flows_started;
      st.slot.sender->start();
    }
    if (spec_.arrivals_per_sec > 0.0) {
      const double gap =
          -std::log(1.0 - rng_.next_double()) / spec_.arrivals_per_sec;
      const Time next = sim_.now() + TimeDelta::seconds_f(gap);
      if (next < end_time_) sim_.schedule_at(next, this, kTagArrival, 0);
    }
  }

  void on_complete(uint32_t si) {
    State& st = states_[si];
    if (st.completed) return;
    st.completed = true;
    --active_;
    ++result_.flows_completed;
    result_.completed_sizes.push_back(st.size);
    result_.fct_seconds.push_back((sim_.now() - st.started).sec());
    sim_.schedule_at(sim_.now() + grace_, this, kTagReap, si);
  }

  void on_reap(uint32_t si) {
    State& st = states_[si];
    // Lazily-cancelled timer entries still hold pointers into the slot;
    // park the reap just past the last one (it may re-arm — re-check).
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
    free_states_.push_back(si);
  }

  Simulator& sim_;
  DumbbellTopology& topo_;
  FlowTable& table_;
  Rng& rng_;
  const ChurnSpec& spec_;
  ChurnResult& result_;
  const Time end_time_;
  const TimeDelta grace_;

  std::vector<State> states_;
  std::vector<uint32_t> free_states_;
  int active_ = 0;
  uint32_t next_flow_id_ = 0;
  int64_t reaped_goodput_bytes_ = 0;
};

}  // namespace

ChurnResult run_churn_experiment(const ChurnSpec& spec) {
  if (spec.arrivals_per_sec < 0.0) throw std::invalid_argument("negative arrival rate");
  if (spec.min_size_segments == 0 || spec.max_size_segments < spec.min_size_segments) {
    throw std::invalid_argument("bad flow-size bounds");
  }
  if (spec.pareto_alpha <= 0.0) throw std::invalid_argument("pareto alpha must be > 0");
  {
    Rng probe(0);
    (void)make_cca(spec.cca, probe);
  }

  Simulator sim;
  Rng rng(spec.seed);
  DumbbellTopology topo(sim, spec.scenario.net);
  topo.bottleneck_queue().set_drop_log_enabled(false);

  ChurnResult result;
  FlowTable table;
  std::vector<FlowTable::Slot> background;
  background.reserve(static_cast<size_t>(background_count(spec)));
  uint32_t next_flow_id = 0;

  const Time end_time = Time::zero() + spec.scenario.stagger +
                        spec.scenario.warmup + spec.scenario.measure;

  // Background long-running flows, staggered like the fixed experiments.
  for (const FlowGroup& g : spec.background) {
    for (int i = 0; i < g.count; ++i) {
      const uint32_t id = next_flow_id++;
      const FlowTable::Slot slot =
          table.create(sim, id, rng.fork(), g.cca, &topo.data_entry(id),
                       &topo.ack_entry(), spec.tcp, spec.receiver);
      topo.register_flow(id, g.rtt, slot.sender, slot.receiver);
      TcpSender* sender = slot.sender;
      sim.schedule_fn_at(
          Time::seconds_f(rng.next_double() * spec.scenario.stagger.sec()),
          [sender] { sender->start(); });
      background.push_back(slot);
    }
  }

  // Poisson arrivals until the end of the run.
  ChurnDriver driver(sim, topo, table, rng, spec, result, end_time);
  driver.set_next_flow_id(next_flow_id);
  driver.begin();

  sim.run_until(end_time);

  // Goodput over the whole run (churn flows start mid-run, so per-window
  // snapshots are less meaningful than for fixed flows). Integer sums of
  // byte counts < 2^53 are exact in any order, so splitting churn goodput
  // between reap time and run end reproduces the historical creation-order
  // double sum exactly.
  int64_t background_bytes = 0;
  for (const FlowTable::Slot& slot : background) {
    background_bytes += slot.receiver->goodput_bytes();
  }
  const int64_t total_bytes = background_bytes + driver.churn_goodput_bytes();
  const double duration = end_time.sec();
  const double payload_capacity =
      static_cast<double>(spec.scenario.net.bottleneck_rate.bits_per_sec()) *
      static_cast<double>(kMssBytes) / static_cast<double>(kDataPacketBytes);
  result.utilization =
      static_cast<double>(total_bytes) * 8.0 / duration / payload_capacity;
  result.background_goodput_bps =
      static_cast<double>(background_bytes) * 8.0 / duration;
  result.queue = topo.bottleneck_queue().stats();
  result.slots_recycled = table.slabs_recycled();
  result.slab_reuses = table.slab_reuses();

  log_info("churn done: %llu started, %llu completed, util %.3f",
           static_cast<unsigned long long>(result.flows_started),
           static_cast<unsigned long long>(result.flows_completed),
           result.utilization);
  return result;
}

}  // namespace ccas
