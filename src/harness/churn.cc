#include "src/harness/churn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/cca/cca.h"
#include "src/harness/cell.h"
#include "src/harness/flow_table.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/workload/spec.h"

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

constexpr uint32_t kTagArrival = 0;

// The churn arrival policy (DESIGN.md §12): Poisson arrivals of one
// bounded-Pareto class, every draw from the master stream. Arrivals are
// events on this handler (no per-arrival std::function copies); the flow
// lifecycle is DynamicFlows'. The event stream is byte-identical to the
// historical recursive schedule_fn_at chain: every push happens at the
// same execution point, and the extra reap events carry no observable
// effect (they only release memory), so relative event order — and with
// it every RNG draw — is unchanged.
class ChurnDriver final : public EventHandler, private DynamicFlows::Owner {
 public:
  // Schedules the first arrival at t = 0.
  ChurnDriver(Cell& cell, FlowTable& table, Rng& rng, const ChurnSpec& spec,
              const TcpSenderConfig& tcp, const SizeDist& size,
              ChurnResult& result, uint32_t first_flow_id, Time end_time)
      : sim_(cell.sim),
        rng_(rng),
        spec_(spec),
        tcp_(tcp),
        size_(size),
        result_(result),
        end_time_(end_time),
        flows_(cell.sim, cell.topo, table, *this, max_rtt(spec),
               first_flow_id) {
    if (spec.arrivals_per_sec > 0.0) {
      sim_.schedule_at(Time::zero(), this, kTagArrival, 0);
    }
  }

  void on_event(uint32_t /*tag*/, uint64_t /*arg*/) override { on_arrival(); }

  [[nodiscard]] const DynamicFlows& flows() const { return flows_; }

 private:
  [[nodiscard]] static TimeDelta max_rtt(const ChurnSpec& spec) {
    TimeDelta m = spec.rtt;
    for (const FlowGroup& g : spec.background) m = std::max(m, g.rtt);
    return m;
  }

  void on_arrival() {
    if (sim_.now() >= end_time_) return;
    if (static_cast<int64_t>(flows_.active()) >= spec_.max_concurrent) {
      ++result_.arrivals_rejected;
    } else {
      // Master-RNG draw order is load-bearing: fork, then size, then (at
      // the bottom) the next arrival gap — exactly the historical order.
      Rng flow_rng = rng_.fork();
      const uint64_t size = size_.sample(rng_);
      const uint32_t si = flows_.open(std::move(flow_rng), spec_.cca,
                                      spec_.rtt, tcp_, spec_.receiver, size, 0);
      flows_.state(si).slot.sender->start();
    }
    if (spec_.arrivals_per_sec > 0.0) {
      const double gap =
          -std::log(1.0 - rng_.next_double()) / spec_.arrivals_per_sec;
      const Time next = sim_.now() + TimeDelta::seconds_f(gap);
      if (next < end_time_) sim_.schedule_at(next, this, kTagArrival, 0);
    }
  }

  void on_flow_complete(const DynamicFlows::State& st) override {
    result_.completed_sizes.push_back(st.size);
    result_.fct_seconds.push_back((sim_.now() - st.started).sec());
  }

  Simulator& sim_;
  Rng& rng_;
  const ChurnSpec& spec_;
  const TcpSenderConfig& tcp_;
  const SizeDist& size_;
  ChurnResult& result_;
  const Time end_time_;
  DynamicFlows flows_;
};

}  // namespace

ChurnResult run_churn_experiment(const ChurnSpec& spec) {
  if (spec.arrivals_per_sec < 0.0) throw std::invalid_argument("negative arrival rate");
  SizeDist size;
  size.min_segments = spec.min_size_segments;
  size.max_segments = spec.max_size_segments;
  size.pareto_alpha = spec.pareto_alpha;
  size.validate();
  {
    Rng probe(0);
    (void)make_cca(spec.cca, probe);
  }

  Cell cell(spec.scenario.net, spec.seed, /*audit=*/false);
  Rng rng(spec.seed);
  cell.topo.bottleneck_queue().set_drop_log_enabled(false);
  const TcpSenderConfig tcp = cell.negotiate(spec.tcp);

  ChurnResult result;
  FlowTable table;
  std::vector<FlowTable::Slot> background;
  uint32_t next_flow_id = 0;

  const Time end_time = Time::zero() + spec.scenario.stagger +
                        spec.scenario.warmup + spec.scenario.measure;

  // Background long-running flows, staggered like the fixed experiments.
  // Each flow's fork and stagger draw interleave on the master stream (the
  // runner forks every flow first): the churn digests pin this order.
  for (const FlowGroup& g : spec.background) {
    for (int i = 0; i < g.count; ++i) {
      const uint32_t id = next_flow_id++;
      const FlowTable::Slot slot =
          table.create(cell.sim, id, rng.fork(), g.cca,
                       &cell.topo.data_entry(id), &cell.topo.ack_entry(), tcp,
                       spec.receiver);
      cell.topo.register_flow(id, g.rtt, slot.sender, slot.receiver);
      if (cell.auditor) cell.auditor->watch_sender(id, *slot.sender);
      TcpSender* sender = slot.sender;
      cell.sim.schedule_fn_at(
          Time::seconds_f(rng.next_double() * spec.scenario.stagger.sec()),
          [sender] { sender->start(); });
      background.push_back(slot);
    }
  }

  // Poisson arrivals until the end of the run.
  ChurnDriver driver(cell, table, rng, spec, tcp, size, result, next_flow_id,
                     end_time);

  cell.sim.run_until(end_time);
  cell.final_audit();

  // Goodput over the whole run (churn flows start mid-run, so per-window
  // snapshots are less meaningful than for fixed flows). Integer sums of
  // byte counts < 2^53 are exact in any order, so splitting churn goodput
  // between reap time and run end reproduces the historical creation-order
  // double sum exactly.
  int64_t background_bytes = 0;
  for (const FlowTable::Slot& slot : background) {
    background_bytes += slot.receiver->goodput_bytes();
  }
  const int64_t total_bytes = background_bytes + driver.flows().goodput_bytes();
  const double duration = end_time.sec();
  const double payload_capacity =
      static_cast<double>(spec.scenario.net.bottleneck_rate.bits_per_sec()) *
      static_cast<double>(kMssBytes) / static_cast<double>(kDataPacketBytes);
  result.flows_started = driver.flows().started();
  result.flows_completed = driver.flows().completed();
  result.utilization =
      static_cast<double>(total_bytes) * 8.0 / duration / payload_capacity;
  result.background_goodput_bps =
      static_cast<double>(background_bytes) * 8.0 / duration;
  result.queue = cell.topo.bottleneck_queue().stats();
  result.slots_recycled = table.slabs_recycled();
  result.slab_reuses = table.slab_reuses();

  log_info("churn done: %llu started, %llu completed, util %.3f",
           static_cast<unsigned long long>(result.flows_started),
           static_cast<unsigned long long>(result.flows_completed),
           result.utilization);
  return result;
}

}  // namespace ccas
