// Tests for finite flows and the churn (arrival/departure) extension.
#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "src/cca/new_reno.h"
#include "src/harness/churn.h"
#include "src/net/delay_line.h"
#include "src/net/impairment.h"
#include "src/net/topology.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"

namespace ccas {
namespace {

// ---------------------------------------------------- finite senders ----

class Forward : public PacketSink {
 public:
  void accept(Packet&& pkt) override { target_->accept(std::move(pkt)); }
  void set_target(PacketSink* t) { target_ = t; }

 private:
  PacketSink* target_ = nullptr;
};

TEST(FiniteFlow, CompletesAndQuiesces) {
  Simulator sim;
  Forward to_sender;
  DelayLine rev(sim, TimeDelta::millis(5), &to_sender);
  TcpReceiver rcv(sim, 0, &rev);
  DelayLine fwd(sim, TimeDelta::millis(5), &rcv);
  TcpSenderConfig cfg;
  cfg.data_segments = 137;
  TcpSender snd(sim, 0, std::make_unique<NewReno>(), &fwd, cfg);
  to_sender.set_target(&snd);

  int completions = 0;
  snd.set_completion_callback([&] { ++completions; });
  snd.start();
  sim.run();  // the event queue must drain completely: full quiescence
  EXPECT_TRUE(snd.complete());
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(rcv.rcv_nxt(), 137u);
  EXPECT_EQ(snd.stats().segments_sent, 137u);  // no losses on this path
  EXPECT_EQ(snd.inflight(), 0u);
}

TEST(FiniteFlow, InfiniteByDefault) {
  TcpSenderConfig cfg;
  EXPECT_EQ(cfg.data_segments, 0u);
  Simulator sim;
  Forward to_sender;
  DelayLine rev(sim, TimeDelta::millis(5), &to_sender);
  TcpReceiver rcv(sim, 0, &rev);
  DelayLine fwd(sim, TimeDelta::millis(5), &rcv);
  cfg.max_window = 64;
  TcpSender snd(sim, 0, std::make_unique<NewReno>(), &fwd, cfg);
  to_sender.set_target(&snd);
  snd.start();
  sim.run_until(Time::seconds_f(2));
  EXPECT_FALSE(snd.complete());
  EXPECT_GT(rcv.rcv_nxt(), 1000u);
}

// ------------------------------------------------------------- churn ----

ChurnSpec small_churn() {
  ChurnSpec spec;
  spec.scenario.net.bottleneck_rate = DataRate::mbps(50);
  spec.scenario.net.buffer_bytes = 500'000;
  spec.scenario.stagger = TimeDelta::millis(100);
  spec.scenario.warmup = TimeDelta::seconds(1);
  spec.scenario.measure = TimeDelta::seconds(10);
  spec.arrivals_per_sec = 30.0;
  spec.min_size_segments = 5;
  spec.max_size_segments = 2000;
  spec.seed = 11;
  return spec;
}

TEST(Churn, FlowsArriveCompleteAndRespectSizeBounds) {
  const ChurnResult r = run_churn_experiment(small_churn());
  // ~30/s over ~11s.
  EXPECT_GT(r.flows_started, 200u);
  EXPECT_LT(r.flows_started, 500u);
  EXPECT_GT(r.flows_completed, r.flows_started / 2);
  EXPECT_LE(r.flows_completed, r.flows_started);
  ASSERT_EQ(r.completed_sizes.size(), r.fct_seconds.size());
  for (size_t i = 0; i < r.completed_sizes.size(); ++i) {
    EXPECT_GE(r.completed_sizes[i], 5u);
    EXPECT_LE(r.completed_sizes[i], 2000u);
    EXPECT_GT(r.fct_seconds[i], 0.0);
    EXPECT_LT(r.fct_seconds[i], 12.0);
  }
  EXPECT_GT(r.mean_fct(), 0.0);
  EXPECT_GE(r.mean_fct(), r.median_fct() * 0.5);
}

TEST(Churn, HeavyTailMeansSmallFlowsFinishFaster) {
  ChurnSpec spec = small_churn();
  spec.scenario.measure = TimeDelta::seconds(20);
  const ChurnResult r = run_churn_experiment(spec);
  const double small = r.mean_fct_sized(0, 20);
  const double large = r.mean_fct_sized(500, 1'000'000);
  ASSERT_GT(small, 0.0);
  ASSERT_GT(large, 0.0);
  EXPECT_LT(small, large);
}

TEST(Churn, DeterministicPerSeed) {
  const ChurnResult a = run_churn_experiment(small_churn());
  const ChurnResult b = run_churn_experiment(small_churn());
  EXPECT_EQ(a.flows_started, b.flows_started);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  ASSERT_EQ(a.fct_seconds.size(), b.fct_seconds.size());
  for (size_t i = 0; i < a.fct_seconds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.fct_seconds[i], b.fct_seconds[i]);
  }
  ChurnSpec other = small_churn();
  other.seed = 12;
  const ChurnResult c = run_churn_experiment(other);
  EXPECT_NE(a.flows_started, c.flows_started);
}

TEST(Churn, BackgroundFlowsCoexist) {
  ChurnSpec spec = small_churn();
  spec.background.push_back(FlowGroup{"cubic", 2, TimeDelta::millis(20)});
  const ChurnResult r = run_churn_experiment(spec);
  EXPECT_GT(r.background_goodput_bps, 1e6);  // the long flows got bandwidth
  EXPECT_GT(r.flows_completed, 0u);          // and so did the churn
  EXPECT_GT(r.utilization, 0.5);
  EXPECT_LT(r.utilization, 1.1);
}

TEST(Churn, ConcurrencyCapRejectsArrivals) {
  ChurnSpec spec = small_churn();
  spec.max_concurrent = 1;
  spec.arrivals_per_sec = 200.0;
  spec.min_size_segments = 5000;  // slow to finish: cap binds
  spec.max_size_segments = 5000;
  const ChurnResult r = run_churn_experiment(spec);
  EXPECT_GT(r.arrivals_rejected, 0u);
}

// ------------------------------------------- memory-path invariance ----

// FNV-1a over every observable ChurnResult field. The exact values below
// were recorded from the heap-per-flow implementation that predates the
// FlowTable/reaper memory path (DESIGN.md §12); the arena-backed,
// slot-recycling runner must reproduce them bit for bit. A mismatch means
// the memory refactor changed event order, an RNG stream, or teardown
// accounting — behavior, not layout.
struct ResultDigest {
  uint64_t h = 1469598103934665603ull;
  void u64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }
};

uint64_t churn_digest(const ChurnResult& r) {
  ResultDigest f;
  f.u64(r.flows_started);
  f.u64(r.flows_completed);
  f.u64(r.arrivals_rejected);
  f.u64(r.completed_sizes.size());
  for (uint64_t s : r.completed_sizes) f.u64(s);
  for (double t : r.fct_seconds) f.f64(t);
  f.f64(r.utilization);
  f.f64(r.background_goodput_bps);
  f.u64(r.queue.enqueued_packets);
  f.u64(r.queue.enqueued_bytes);
  f.u64(r.queue.dequeued_packets);
  f.u64(r.queue.dropped_packets);
  f.u64(r.queue.dropped_bytes);
  f.u64(static_cast<uint64_t>(r.queue.max_queued_bytes));
  return f.h;
}

TEST(ChurnDigest, PlainRunIsPinned) {
  EXPECT_EQ(churn_digest(run_churn_experiment(small_churn())),
            0x4374d2120b041bd4ull);
}

TEST(ChurnDigest, BackgroundRunIsPinned) {
  ChurnSpec spec = small_churn();
  spec.background.push_back(FlowGroup{"cubic", 2, TimeDelta::millis(20)});
  EXPECT_EQ(churn_digest(run_churn_experiment(spec)), 0x2910d90d6a6347a7ull);
}

TEST(ChurnDigest, CappedRunIsPinned) {
  ChurnSpec spec = small_churn();
  spec.max_concurrent = 4;
  spec.arrivals_per_sec = 120.0;
  spec.cca = "cubic";
  spec.seed = 7;
  EXPECT_EQ(churn_digest(run_churn_experiment(spec)), 0x097be662f4db1be6ull);
}

// Two background groups with different CCAs and RTTs. The name is kept
// from when this spec also ran on a sharded engine; the digest is the one
// the serial run has always produced.
TEST(ChurnDigest, ShardedRunsArePinned) {
  ChurnSpec spec = small_churn();
  spec.background.push_back(FlowGroup{"cubic", 2, TimeDelta::millis(20)});
  spec.background.push_back(FlowGroup{"newreno", 2, TimeDelta::millis(40)});
  EXPECT_EQ(churn_digest(run_churn_experiment(spec)), 0x6cfb801594901fffull);
}

TEST(Churn, RecyclesDepartedFlowSlots) {
  // Steady-state churn must run on recycled slabs: most completed flows
  // are reaped before the run ends (the rest completed within the final
  // grace window), and most arrivals after warm-up reuse a parked slab.
  // Under ASan this doubles as a use-after-free check on the reaper's
  // grace/timer-entry safety argument.
  const ChurnResult r = run_churn_experiment(small_churn());
  EXPECT_GT(r.slots_recycled, r.flows_completed / 2);
  EXPECT_LE(r.slots_recycled, r.flows_completed);
  EXPECT_GT(r.slab_reuses, r.flows_started / 2);
  EXPECT_LE(r.slab_reuses, r.slots_recycled);
}

TEST(Churn, RecyclingUnderImpairmentsAndBackground) {
  // Harder teardown conditions: loss and reordering leave retransmission
  // timers and stray duplicates behind departed flows; the reaper must
  // still only recycle quiescent slots (ASan-visible if it does not).
  ChurnSpec spec = small_churn();
  spec.background.push_back(FlowGroup{"cubic", 1, TimeDelta::millis(30)});
  spec.scenario.net.impairments.loss = 0.01;
  spec.scenario.net.impairments.reorder = 0.01;
  const ChurnResult r = run_churn_experiment(spec);
  EXPECT_GT(r.flows_completed, 0u);
  EXPECT_GT(r.slots_recycled, 0u);
}

// Churn cells are set up like every other cell: an impairment seed left
// at 0 is derived from the cell seed, so the default equals spelling the
// derived seed out (and two cell seeds draw different loss patterns).
TEST(Churn, ImpairmentSeedIsDerivedFromTheCellSeed) {
  ChurnSpec spec = small_churn();
  spec.scenario.net.impairments.loss = 0.01;
  spec.scenario.net.impairments.reorder = 0.01;
  ChurnSpec pinned = spec;
  pinned.scenario.net.impairments.seed = derive_impairment_seed(spec.seed);
  EXPECT_EQ(churn_digest(run_churn_experiment(spec)),
            churn_digest(run_churn_experiment(pinned)));
}

// Churn senders negotiate ECN with the bottleneck qdisc: an ECN AQM marks
// them instead of dropping (non-ECT senders would only ever be dropped).
TEST(Churn, EcnQdiscMarksChurnTraffic) {
  for (const QdiscKind kind : {QdiscKind::kRed, QdiscKind::kCoDel}) {
    ChurnSpec spec = small_churn();
    spec.scenario.measure = TimeDelta::seconds(3);
    spec.background.push_back(FlowGroup{"cubic", 1, TimeDelta::millis(20)});
    spec.scenario.net.qdisc.kind = kind;
    spec.scenario.net.qdisc.ecn = true;
    const ChurnResult r = run_churn_experiment(spec);
    EXPECT_GT(r.queue.marked_packets, 0u) << static_cast<int>(kind);
    EXPECT_GT(r.flows_completed, 0u);
  }
}

TEST(Churn, Validation) {
  ChurnSpec bad = small_churn();
  bad.pareto_alpha = 0.0;
  EXPECT_THROW(run_churn_experiment(bad), std::invalid_argument);
  bad = small_churn();
  bad.min_size_segments = 0;
  EXPECT_THROW(run_churn_experiment(bad), std::invalid_argument);
  bad = small_churn();
  bad.cca = "unknown";
  EXPECT_THROW(run_churn_experiment(bad), std::invalid_argument);
}

}  // namespace
}  // namespace ccas
