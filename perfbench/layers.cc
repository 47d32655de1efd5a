#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "src/cca/cca.h"
#include "src/harness/flow_table.h"
#include "src/net/impairment.h"
#include "src/net/qdisc/qdisc.h"
#include "src/sim/simulator.h"
#include "src/stats/fct.h"
#include "src/sweep/fleet/lease.h"
#include "src/sweep/fleet/store.h"
#include "src/sweep/manifest.h"
#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"
#include "src/tcp/sack_scoreboard.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"
#include "src/util/node_pool.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ccas::TimeDelta;
using Metrics = std::vector<std::pair<std::string, double>>;

// Results of timed pure calls land here, so the calls cannot be elided.
volatile uint64_t g_sink = 0;

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Cost of one pair of clock reads, subtracted from per-call timings (the
// probes that must interleave untimed work between single calls).
double clock_pair_ns() {
  constexpr int kPairs = 20000;
  double total = 0.0;
  for (int i = 0; i < kPairs; ++i) {
    const Clock::time_point a = Clock::now();
    total += std::chrono::duration<double, std::nano>(Clock::now() - a).count();
  }
  return total / kPairs;
}

// Accumulates a probe's timed cost: whole batches, or single calls with
// the clock-read cost taken out.
class Cost {
 public:
  Cost(SpanRecorder& spans, int parent, std::string name)
      : spans_(spans), parent_(parent), name_(std::move(name) + ".batch") {}

  template <typename F>
  void batch(uint64_t ops, F&& body) {
    ScopedSpan s(&spans_, name_, parent_);
    const Clock::time_point t0 = Clock::now();
    body();
    ns_ += elapsed_ns(t0);
    ops_ += ops;
  }
  template <typename F>
  void call(double clock_ns, F&& body) {
    const Clock::time_point t0 = Clock::now();
    body();
    ns_ += std::max(0.0, elapsed_ns(t0) - clock_ns);
    ++ops_;
  }
  void add_ops(uint64_t n) { ops_ += n; }
  [[nodiscard]] uint64_t ops() const { return ops_; }
  [[nodiscard]] double per_op_ns() const {
    return ops_ > 0 ? ns_ / static_cast<double>(ops_) : 0.0;
  }

 private:
  SpanRecorder& spans_;
  int parent_;
  std::string name_;
  double ns_ = 0.0;
  uint64_t ops_ = 0;
};

// Picks mix entries in proportion to their weights, deterministically.
const MixEntry& pick(const std::vector<MixEntry>& mix, ccas::Rng& rng) {
  double total = 0.0;
  for (const MixEntry& m : mix) total += m.weight;
  double u = rng.next_double() * total;
  for (const MixEntry& m : mix) {
    if (u < m.weight) return m;
    u -= m.weight;
  }
  return mix.back();
}

// Congestion window a flow of the workload settles near: its share of the
// bottleneck over its RTT plus a full buffer's queueing delay.
uint64_t window_segments(const LayerParams& p, TimeDelta rtt) {
  const double share_bps = static_cast<double>(p.net.bottleneck_rate.bits_per_sec()) /
                           std::max(1, p.population);
  const double queue_s = static_cast<double>(p.net.buffer_bytes) * 8.0 /
                         static_cast<double>(p.net.bottleneck_rate.bits_per_sec());
  const double segs = share_bps * (rtt.sec() + queue_s) / (ccas::kMssBytes * 8.0);
  return static_cast<uint64_t>(std::clamp(segs, 8.0, 1024.0));
}

class Sink final : public ccas::PacketSink {
 public:
  void accept(ccas::Packet&& pkt) override { packets.push_back(std::move(pkt)); }
  std::vector<ccas::Packet> packets;
};

// ---- sim ------------------------------------------------------------------

class Hop final : public ccas::EventHandler {
 public:
  Hop(ccas::Simulator& sim, TimeDelta delay) : sim_(sim), delay_(delay) {}
  void on_event(uint32_t tag, uint64_t arg) override {
    // ±5% deterministic spread keeps the population from phase-locking.
    const double k = 0.95 + static_cast<double>((arg * 2654435761u) % 1000) * 1e-4;
    sim_.schedule_in(delay_ * k, this, tag, arg + 1);
  }

 private:
  ccas::Simulator& sim_;
  TimeDelta delay_;
};

double probe_sim(const LayerParams& p, SpanRecorder& spans, int parent) {
  ScopedSpan span(&spans, "sim.dispatch", parent);
  Cost cost(spans, span.id(), "sim.dispatch");
  ccas::Simulator sim;
  ccas::Rng rng(p.seed);
  std::vector<std::unique_ptr<Hop>> hops;
  // Two pending events per flow: a packet and a timer in the real run.
  for (int i = 0; i < p.population; ++i) {
    hops.push_back(std::make_unique<Hop>(sim, pick(p.mix, rng).rtt));
    for (uint64_t k = 0; k < 2; ++k) {
      sim.schedule_at(ccas::Time::nanos(static_cast<int64_t>(rng.next_below(20'000'000))),
                      hops.back().get(), 0, rng.next_u64() % 1000 + k);
    }
  }
  constexpr uint64_t kEvents = 2'000'000;
  constexpr uint64_t kBatchEvents = 20'000;
  while (cost.ops() < kEvents) {
    const uint64_t before = sim.events_processed();
    cost.batch(0, [&] {
      while (sim.events_processed() - before < kBatchEvents) {
        sim.run_until(sim.now() + TimeDelta::millis(10));
      }
    });
    cost.add_ops(sim.events_processed() - before);
  }
  return cost.per_op_ns();
}

// ---- net ------------------------------------------------------------------

double probe_qdisc(const LayerParams& p, SpanRecorder& spans, int parent) {
  ScopedSpan span(&spans, "net.qdisc", parent);
  Cost cost(spans, span.id(), "net.qdisc");
  constexpr uint64_t kPacketsPerQdisc = 400'000;
  constexpr int kBurst = 256;   // packets between clock advances
  constexpr int kBursts = 64;   // bursts per timed batch
  const TimeDelta tx_time = TimeDelta::nanos(static_cast<int64_t>(
      ccas::kDataPacketBytes * 8 * 1e9 /
      static_cast<double>(p.net.bottleneck_rate.bits_per_sec())));
  for (ccas::QdiscConfig cfg : p.qdiscs) {
    cfg.seed = ccas::derive_qdisc_seed(p.seed);
    ccas::Simulator sim;
    std::unique_ptr<ccas::QueueDisc> q = ccas::make_qdisc(sim, cfg, p.net.buffer_bytes);
    const auto flows = static_cast<uint32_t>(std::max(1, p.population));
    q->reserve_flows(flows);
    ccas::Rng rng(p.seed ^ 0x71d15c);
    std::vector<uint64_t> next_seq(flows, 0);
    auto make = [&] {
      const auto f = static_cast<uint32_t>(rng.next_below(flows));
      return ccas::Packet::make_data(f, 0, next_seq[f]++, false);
    };
    // A standing queue of a few hundred packets, so CoDel sees sojourn
    // times above its target and drops at the head as it does in the grid.
    for (int i = 0; i < 400; ++i) q->accept(make());
    std::vector<ccas::Packet> batch(static_cast<size_t>(kBurst) * kBursts);
    for (uint64_t done = 0; done < kPacketsPerQdisc; done += batch.size()) {
      for (ccas::Packet& pk : batch) pk = make();
      cost.batch(batch.size(), [&] {
        for (int b = 0; b < kBursts; ++b) {
          for (int i = 0; i < kBurst; ++i) q->accept(std::move(batch[b * kBurst + i]));
          for (int i = 0; i < kBurst && q->has_packet(); ++i) (void)q->dequeue();
          // Nothing is scheduled: this only moves the clock CoDel reads.
          sim.run_until(sim.now() + tx_time * static_cast<double>(kBurst));
        }
      });
    }
  }
  return cost.per_op_ns();
}

double probe_impairment(const LayerParams& p, SpanRecorder& spans, int parent) {
  ScopedSpan span(&spans, "net.impair", parent);
  Cost cost(spans, span.id(), "net.impair");
  ccas::Simulator sim;
  Sink sink;
  ccas::ImpairmentConfig cfg = p.net.impairments;
  cfg.seed = ccas::derive_impairment_seed(p.seed);
  cfg.force_stage = true;  // a clean workload measures the pass-through
  ccas::ImpairedLink link(sim, cfg, &sink);
  constexpr int kBatch = 4096;
  constexpr uint64_t kPackets = 500'000;
  std::vector<ccas::Packet> batch(kBatch);
  uint64_t seq = 0;
  for (uint64_t done = 0; done < kPackets; done += kBatch) {
    for (ccas::Packet& pk : batch) {
      pk = ccas::Packet::make_data(static_cast<uint32_t>(seq % 64), 0, seq, false);
      ++seq;
    }
    cost.batch(kBatch, [&] {
      for (ccas::Packet& pk : batch) link.accept(std::move(pk));
    });
    sim.run_until(sim.now() + TimeDelta::millis(5));  // release held copies
    sink.packets.clear();
  }
  return cost.per_op_ns();
}

// ---- tcp ------------------------------------------------------------------

struct TcpCosts {
  double sender_ack_ns = 0.0;
  double receiver_ns = 0.0;
};

// One sender/receiver pair per mix entry, looped back through the probe:
// data segments reach the receiver one per pacing gap with first
// transmissions dropped at the workload's rate (SACK holes, out-of-order
// arrivals), and every ACK goes straight back to the sender.
TcpCosts probe_tcp_endpoints(const LayerParams& p, SpanRecorder& spans, int parent,
                             double clock_ns) {
  ScopedSpan span(&spans, "tcp.endpoints", parent);
  Cost sender(spans, span.id(), "tcp.sender_ack");
  Cost receiver(spans, span.id(), "tcp.receiver");
  constexpr uint64_t kSegmentsPerEntry = 120'000;
  for (const MixEntry& m : p.mix) {
    ScopedSpan entry(&spans, "tcp.endpoints." + m.cca, span.id());
    ccas::Simulator sim;
    ccas::Rng rng(p.seed ^ std::hash<std::string>{}(m.cca));
    Sink data;
    Sink acks;
    ccas::TcpSenderConfig scfg;
    const uint64_t window = window_segments(p, m.rtt);
    scfg.max_window = window;
    ccas::TcpSender snd(sim, 0, ccas::CcaRegistry::instance().create(m.cca, rng),
                        &data, scfg);
    ccas::TcpReceiver rcv(sim, 0, &acks);
    snd.start();
    const TimeDelta gap = m.rtt * (1.0 / static_cast<double>(window));
    const uint64_t target = receiver.ops() + kSegmentsPerEntry;
    std::vector<ccas::Packet> flight;
    std::vector<ccas::Packet> back;
    // Bounded in simulated time, so a flow that stalls ends the probe
    // with an error instead of a hang.
    const ccas::Time give_up = sim.now() + TimeDelta::seconds(3600);
    // ACKs can also come from the receiver's timers (delayed ACK, GRO
    // flush), so pending ACKs are handed over after every clock advance.
    auto deliver_acks = [&] {
      back.swap(acks.packets);
      for (ccas::Packet& ack : back) {
        sender.call(clock_ns, [&] { snd.accept(std::move(ack)); });
      }
      back.clear();
    };
    while (receiver.ops() < target) {
      if (sim.now() > give_up) throw std::runtime_error("tcp probe: " + m.cca + " stalled");
      if (data.packets.empty()) {
        sim.run_until(sim.now() + gap * 4.0);  // timers: pacing, delack, RTO
        deliver_acks();
        continue;
      }
      flight.swap(data.packets);
      for (ccas::Packet& pk : flight) {
        sim.run_until(sim.now() + gap);
        deliver_acks();
        if (!pk.retransmit && rng.next_double() < p.drop_rate) continue;
        receiver.call(clock_ns, [&] { rcv.accept(std::move(pk)); });
        deliver_acks();
      }
      flight.clear();
    }
  }
  return {sender.per_op_ns(), receiver.per_op_ns()};
}

// SackScoreboard on its own: transmit a window, SACK around the holes the
// workload's drop rate makes, mark losses, retransmit them, advance.
double probe_scoreboard(const LayerParams& p, SpanRecorder& spans, int parent) {
  ScopedSpan span(&spans, "tcp.scoreboard", parent);
  Cost cost(spans, span.id(), "tcp.scoreboard");
  ccas::NodePool pool;
  ccas::SackScoreboard sb;
  sb.set_pool(&pool);
  ccas::Rng rng(p.seed ^ 0x5ac4);
  const uint64_t window = window_segments(p, p.mix.front().rtt);
  constexpr uint64_t kSegments = 1'500'000;
  constexpr int kRounds = 64;  // rounds per timed batch
  // SACK blocks of each round, relative to its snd_una: received runs above
  // the first hole, newest first, at most 3 (drawn before timing starts).
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> rounds(kRounds);
  auto noop = [](uint64_t, ccas::SegmentState&) {};
  while (cost.ops() < kSegments) {
    for (auto& blocks : rounds) {
      blocks.clear();
      bool hole = false;
      for (uint64_t i = 0; i < window; ++i) {
        if (rng.next_double() < p.drop_rate) {
          hole = true;
        } else if (hole) {
          if (!blocks.empty() && blocks.back().second == i) {
            ++blocks.back().second;
          } else {
            blocks.emplace_back(i, i + 1);
          }
        }
      }
      std::reverse(blocks.begin(), blocks.end());
      if (blocks.size() > 3) blocks.resize(3);
    }
    cost.batch(window * kRounds, [&] {
      for (const auto& blocks : rounds) {
        const uint64_t una = sb.snd_una();
        while (sb.window_size() < window) {
          sb.extend();
          sb.note_transmit(sb.snd_nxt() - 1);
        }
        for (const auto& [a, b] : blocks) sb.apply_sack(una + a, una + b, noop);
        sb.mark_lost_by_sack(3, noop);
        for (auto s = sb.find_lost_from(una); s; s = sb.find_lost_from(*s + 1)) {
          sb.note_transmit(*s);
        }
        sb.advance_una(sb.snd_nxt(), noop);
      }
    });
  }
  return cost.per_op_ns();
}

// ---- cca ------------------------------------------------------------------

double probe_cca(const LayerParams& p, const std::string& name, SpanRecorder& spans,
                 int parent) {
  ScopedSpan span(&spans, "cca.on_ack." + name, parent);
  Cost cost(spans, span.id(), "cca.on_ack." + name);
  ccas::Rng rng(p.seed ^ std::hash<std::string>{}(name));
  std::unique_ptr<ccas::CongestionController> cca =
      ccas::CcaRegistry::instance().create(name, rng);
  TimeDelta rtt = p.mix.front().rtt;
  for (const MixEntry& m : p.mix) {
    if (m.cca == name) rtt = m.rtt;
  }
  const uint64_t window = window_segments(p, rtt);
  constexpr int kBatch = 1024;
  constexpr uint64_t kAcks = 600'000;
  std::vector<ccas::AckEvent> acks(kBatch);
  ccas::Time now = ccas::Time::zero();
  uint64_t delivered = 0;
  while (cost.ops() < kAcks) {
    const uint64_t inflight = std::min<uint64_t>(std::max<uint64_t>(cca->cwnd(), 2), window);
    const TimeDelta gap = rtt * (2.0 / static_cast<double>(inflight));
    for (ccas::AckEvent& a : acks) {
      now = now + gap;
      delivered += 2;
      a = ccas::AckEvent{};
      a.now = now;
      a.newly_acked = 2;
      a.inflight = inflight;
      a.delivered_total = delivered;
      a.rtt_sample = rtt * rng.next_range(1.0, 1.5);
      a.min_rtt = rtt;
      a.rate.delivery_rate = ccas::DataRate::bytes_per(
          static_cast<int64_t>(inflight) * ccas::kMssBytes, a.rtt_sample);
      a.rate.prior_delivered = delivered > inflight ? delivered - inflight : 0;
      a.rate.interval = a.rtt_sample;
    }
    cost.batch(kBatch, [&] {
      for (const ccas::AckEvent& a : acks) cca->on_ack(a);
    });
    // One loss episode per batch at the workload's drop rate, or when the
    // window outgrows what the bottleneck share and buffer would hold.
    const double p_loss = 1.0 - std::pow(1.0 - p.drop_rate, 2.0 * kBatch);
    if (cca->cwnd() > window || rng.next_double() < p_loss) {
      cca->on_congestion_event(now, inflight);
      cca->on_recovery_exit(now + rtt, inflight);
    }
  }
  return cost.per_op_ns();
}

// ---- harness --------------------------------------------------------------

std::pair<double, double> probe_flow_table(const LayerParams& p, SpanRecorder& spans,
                                           int parent) {
  ScopedSpan span(&spans, "harness.flow_table", parent);
  Cost create(spans, span.id(), "harness.flow_create");
  Cost recycle(spans, span.id(), "harness.flow_recycle");
  ccas::Simulator sim;
  Sink data;
  Sink acks;
  ccas::FlowTable table;
  ccas::Rng rng(p.seed ^ 0xf10f);
  const int per_round = std::clamp(p.population, 64, 2000);
  std::vector<std::string> names(static_cast<size_t>(per_round));
  std::vector<ccas::FlowTable::Slot> slots(static_cast<size_t>(per_round));
  uint32_t flow_id = 0;
  for (int round = 0; round < 8; ++round) {
    for (std::string& c : names) c = pick(p.mix, rng).cca;
    const uint32_t first = flow_id;
    flow_id += static_cast<uint32_t>(per_round);
    create.batch(static_cast<uint64_t>(per_round), [&] {
      for (size_t i = 0; i < slots.size(); ++i) {
        const uint32_t id = first + static_cast<uint32_t>(i);
        slots[i] = table.create(sim, id, ccas::Rng(p.seed + id), names[i], &data,
                                &acks, ccas::TcpSenderConfig{},
                                ccas::TcpReceiverConfig{});
      }
    });
    recycle.batch(static_cast<uint64_t>(per_round), [&] {
      for (const ccas::FlowTable::Slot& s : slots) table.recycle(s);
    });
  }
  return {create.per_op_ns(), recycle.per_op_ns()};
}

// ---- workload and stats ---------------------------------------------------

std::vector<ccas::WorkloadClass> size_classes(const LayerParams& p) {
  if (!p.classes.empty()) return p.classes;
  // Long-lived flows have no size law; the default bounded Pareto stands in.
  ccas::WorkloadClass c;
  c.rtt = p.mix.front().rtt;
  return {c};
}

double probe_size_sampling(const LayerParams& p, SpanRecorder& spans, int parent) {
  ScopedSpan span(&spans, "workload.size_sample", parent);
  Cost cost(spans, span.id(), "workload.size_sample");
  const std::vector<ccas::WorkloadClass> classes = size_classes(p);
  ccas::Rng rng(ccas::derive_workload_seed(p.seed));
  constexpr int kBatch = 4096;
  for (int b = 0; b < 100; ++b) {
    const ccas::SizeDist& d = classes[static_cast<size_t>(b) % classes.size()].size;
    cost.batch(kBatch, [&] {
      for (int i = 0; i < kBatch; ++i) g_sink = g_sink + d.sample(rng);
    });
  }
  return cost.per_op_ns();
}

double probe_fct(const LayerParams& p, SpanRecorder& spans, int parent) {
  ScopedSpan span(&spans, "stats.fct_record", parent);
  Cost cost(spans, span.id(), "stats.fct_record");
  const std::vector<ccas::WorkloadClass> classes = size_classes(p);
  ccas::Rng rng(ccas::derive_workload_seed(p.seed) ^ 0xfc7);
  ccas::FctRecorder rec;
  constexpr int kBatch = 4096;
  struct Sample {
    double fct_s, ideal_s;
    uint64_t segs;
  };
  std::vector<Sample> samples(kBatch);
  const double bps = static_cast<double>(p.net.bottleneck_rate.bits_per_sec());
  for (int b = 0; b < 150; ++b) {
    for (Sample& s : samples) {
      const ccas::WorkloadClass& c = classes[rng.next_below(classes.size())];
      s.segs = c.size.sample(rng);
      s.ideal_s = c.rtt.sec() + static_cast<double>(s.segs) * ccas::kDataPacketBytes * 8.0 / bps;
      s.fct_s = s.ideal_s * (1.0 - std::log(1.0 - rng.next_double()));
    }
    cost.batch(kBatch, [&] {
      for (const Sample& s : samples) rec.on_complete(s.fct_s, s.ideal_s, s.segs);
    });
  }
  return cost.per_op_ns();
}

// ---- sweep ----------------------------------------------------------------

double probe_spec_key(const LayerParams& p, SpanRecorder& spans, int parent) {
  ScopedSpan span(&spans, "sweep.spec_key", parent);
  Cost cost(spans, span.id(), "sweep.spec_key");
  const auto& cells = p.sweep.cells;
  const size_t passes = (255 + cells.size()) / cells.size();  // >= 256 keys a batch
  while (cost.ops() < 20'000) {
    cost.batch(passes * cells.size(), [&] {
      for (size_t i = 0; i < passes; ++i) {
        for (const ccas::sweep::SweepCell& c : cells) {
          g_sink = g_sink + ccas::sweep::spec_cache_key(c.spec);
        }
      }
    });
  }
  return cost.per_op_ns();
}

struct CacheCosts {
  double store_ms = 0.0;
  double load_ms = 0.0;
  double manifest_ms = 0.0;
};

CacheCosts probe_sweep_io(const LayerParams& p, SpanRecorder& spans, int parent,
                          double clock_ns) {
  ScopedSpan span(&spans, "sweep.io", parent);
  Cost store(spans, span.id(), "sweep.cache_store");
  Cost load(spans, span.id(), "sweep.cache_load");
  Cost manifest(spans, span.id(), "sweep.manifest_record");
  const std::string dir = p.work_dir + "/layer-sweep-io";
  std::filesystem::remove_all(dir);
  {
    ccas::sweep::ResultCache cache(dir + "/cache");
    ccas::sweep::SweepManifest journal(dir + "/manifest",
                                       std::string(ccas::sweep::kSweepCodeSalt));
    // The grids store 24 of their real cells; a sim workload stores its one
    // (large) result 8 times under distinct keys.
    const std::vector<ccas::ExperimentResult>& results = *p.results;
    if (results.empty()) throw std::runtime_error("sweep io probe: no results to store");
    const size_t n = results.size() > 1 ? std::min<size_t>(24, results.size()) : 8;
    for (size_t i = 0; i < n; ++i) {
      const ccas::ExperimentResult& r = results[i % results.size()];
      const uint64_t key = 0x9e3779b97f4a7c15ULL * (i + 1) ^ p.seed;
      ScopedSpan one(&spans, "sweep.cell_io", span.id());
      bool ok = false;
      store.call(clock_ns, [&] { ok = cache.store(key, r); });
      std::optional<ccas::ExperimentResult> back;
      load.call(clock_ns, [&] { back = cache.load(key); });
      if (!ok || !back) throw std::runtime_error("result cache round trip failed");
      manifest.call(clock_ns, [&] { journal.record_ok(key, 1, key); });
    }
  }
  std::filesystem::remove_all(dir);
  return {store.per_op_ns() * 1e-6, load.per_op_ns() * 1e-6,
          manifest.per_op_ns() * 1e-6};
}

// ---- fleet ----------------------------------------------------------------

struct FleetCosts {
  double store_open_ms = 0.0;
  double claim_ms = 0.0;
  double renew_ms = 0.0;
  double release_ms = 0.0;
};

FleetCosts probe_fleet(const LayerParams& p, SpanRecorder& spans, int parent,
                       double clock_ns) {
  ScopedSpan span(&spans, "fleet.store", parent);
  Cost open(spans, span.id(), "fleet.store_open");
  Cost claim(spans, span.id(), "fleet.lease_claim");
  Cost renew(spans, span.id(), "fleet.lease_renew");
  Cost release(spans, span.id(), "fleet.lease_release");
  const std::string salt(ccas::sweep::kSweepCodeSalt);
  const std::string dir = p.work_dir + "/layer-fleet";
  std::filesystem::remove_all(dir);
  for (int i = 0; i < 5; ++i) {
    const std::string store_dir = dir + "/store-" + std::to_string(i);
    open.call(clock_ns, [&] { ccas::sweep::fleet::FleetStore store(store_dir, p.sweep, salt); });
  }
  {
    ccas::sweep::fleet::LeaseDir leases(dir + "/leases", "bench-w0", 30'000);
    for (int i = 0; i < 48; ++i) {
      const ccas::sweep::SweepCell& cell = p.sweep.cells[static_cast<size_t>(i) % p.sweep.cells.size()];
      const uint64_t key = ccas::sweep::spec_cache_key(cell.spec, salt) + static_cast<uint64_t>(i);
      ScopedSpan one(&spans, "fleet.lease_cycle", span.id());
      std::optional<ccas::sweep::fleet::Lease> lease;
      claim.call(clock_ns, [&] { lease = leases.claim(key); });
      if (!lease) throw std::runtime_error("uncontended lease claim failed");
      bool held = false;
      renew.call(clock_ns, [&] { held = leases.renew(*lease); });
      if (!held) throw std::runtime_error("lease renewal lost an uncontended lease");
      release.call(clock_ns, [&] { leases.release(*lease); });
    }
  }
  std::filesystem::remove_all(dir);
  return {open.per_op_ns() * 1e-6, claim.per_op_ns() * 1e-6,
          renew.per_op_ns() * 1e-6, release.per_op_ns() * 1e-6};
}

}  // namespace

LayerParams layer_params(const Workload& w, uint64_t seed, const Rep& untraced,
                         const std::string& work_dir) {
  LayerParams p;
  p.seed = seed;
  p.work_dir = work_dir;
  p.results = &untraced.results;
  auto count = [&](const char* key) {
    for (const auto& [k, v] : untraced.counts) {
      if (k == key) return v;
    }
    return 0.0;
  };
  const double offered = count("queue_enqueued") + count("queue_dropped");
  p.drop_rate = offered > 0.0 ? count("queue_dropped") / offered : 0.0;
  if (w.kind == WorkloadKind::kSweepGrid || w.kind == WorkloadKind::kFleetGrid) {
    p.sweep = grid_spec(seed);
    const ccas::ExperimentSpec& first = p.sweep.cells.front().spec;
    p.net = first.scenario.net;
    p.population = first.total_flows();
    for (const char* c : {"newreno", "cubic", "bbr"}) {
      p.mix.push_back({c, 1.0, first.groups.front().rtt});
    }
    // Half the cells carry the impairment stage; its loss adds to the
    // queue's drops for the TCP probes.
    for (const ccas::sweep::SweepCell& cell : p.sweep.cells) {
      const ccas::DumbbellConfig& net = cell.spec.scenario.net;
      if (net.impairments.enabled()) p.net.impairments = net.impairments;
      const bool seen = std::any_of(p.qdiscs.begin(), p.qdiscs.end(), [&](const auto& q) {
        return q.kind == net.qdisc.kind;
      });
      if (net.qdisc.enabled() && !seen) p.qdiscs.push_back(net.qdisc);
    }
    p.drop_rate += 0.5 * p.net.impairments.loss;
  } else {
    const ccas::ExperimentSpec spec = sim_spec(w.kind, seed);
    p.sweep.add_cell(std::string(w.name), spec);
    p.net = spec.scenario.net;
    p.qdiscs.push_back(spec.scenario.net.qdisc);
    p.population = std::max(1, spec.total_flows());
    for (const ccas::FlowGroup& g : spec.groups) {
      p.mix.push_back({g.cca, static_cast<double>(g.count), g.rtt});
    }
    if (spec.workload.enabled()) {
      p.classes = spec.workload.classes;
      p.population = std::max(64, static_cast<int>(count("wl_in_flight_end")));
      for (const ccas::WorkloadClass& c : spec.workload.classes) {
        p.mix.push_back({c.cca, c.weight, c.rtt});
      }
    }
  }
  return p;
}

Metrics run_layer_probes(const LayerParams& p, SpanRecorder& spans) {
  ScopedSpan root(&spans, "layers");
  const int r = root.id();
  const double clock_ns = clock_pair_ns();
  Metrics m;
  m.emplace_back("sim.dispatch_ns", probe_sim(p, spans, r));
  m.emplace_back("net.qdisc_ns", probe_qdisc(p, spans, r));
  m.emplace_back("net.impair_ns", probe_impairment(p, spans, r));
  const TcpCosts tcp = probe_tcp_endpoints(p, spans, r, clock_ns);
  m.emplace_back("tcp.sender_ack_ns", tcp.sender_ack_ns);
  m.emplace_back("tcp.receiver_ns", tcp.receiver_ns);
  m.emplace_back("tcp.scoreboard_ns", probe_scoreboard(p, spans, r));
  for (const char* c : {"newreno", "cubic", "bbr"}) {
    m.emplace_back(std::string("cca.on_ack_ns.") + c, probe_cca(p, c, spans, r));
  }
  const auto [create_ns, recycle_ns] = probe_flow_table(p, spans, r);
  m.emplace_back("harness.flow_create_ns", create_ns);
  m.emplace_back("harness.flow_recycle_ns", recycle_ns);
  m.emplace_back("workload.size_sample_ns", probe_size_sampling(p, spans, r));
  m.emplace_back("stats.fct_record_ns", probe_fct(p, spans, r));
  m.emplace_back("sweep.spec_key_ns", probe_spec_key(p, spans, r));
  const CacheCosts io = probe_sweep_io(p, spans, r, clock_ns);
  m.emplace_back("sweep.cache_store_ms", io.store_ms);
  m.emplace_back("sweep.cache_load_ms", io.load_ms);
  m.emplace_back("sweep.manifest_record_ms", io.manifest_ms);
  const FleetCosts fleet = probe_fleet(p, spans, r, clock_ns);
  m.emplace_back("fleet.store_open_ms", fleet.store_open_ms);
  m.emplace_back("fleet.lease_claim_ms", fleet.claim_ms);
  m.emplace_back("fleet.lease_renew_ms", fleet.renew_ms);
  m.emplace_back("fleet.lease_release_ms", fleet.release_ms);
  return m;
}

}  // namespace perfbench
