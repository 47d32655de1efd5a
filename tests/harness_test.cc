// Scenario presets, experiment validation, result bookkeeping, and the
// report tables.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "src/harness/report.h"
#include "src/harness/runner.h"

namespace ccas {
namespace {

TEST(Scenario, EdgeScaleMatchesPaper) {
  const Scenario s = Scenario::edge_scale();
  EXPECT_EQ(s.net.bottleneck_rate, DataRate::mbps(100));
  EXPECT_EQ(s.net.buffer_bytes, 3'000'000);
  EXPECT_EQ(s.net.num_pairs, 10);
  EXPECT_EQ(s.name(), "EdgeScale");
}

TEST(Scenario, CoreScaleMatchesPaper) {
  const Scenario s = Scenario::core_scale();
  EXPECT_EQ(s.net.bottleneck_rate, DataRate::gbps(10));
  EXPECT_EQ(s.net.buffer_bytes, 375'000'000);
  EXPECT_EQ(s.name(), "CoreScale");
}

TEST(Scenario, EnvOverridesScaleBandwidthAndBuffer) {
  ::setenv("REPRO_SCALE", "0.1", 1);
  ::setenv("REPRO_MEASURE_SEC", "3.5", 1);
  Scenario s = Scenario::core_scale();
  const double scale = s.apply_env_overrides();
  ::unsetenv("REPRO_SCALE");
  ::unsetenv("REPRO_MEASURE_SEC");
  EXPECT_DOUBLE_EQ(scale, 0.1);
  EXPECT_EQ(s.net.bottleneck_rate, DataRate::gbps(1));
  EXPECT_EQ(s.net.buffer_bytes, 37'500'000);
  EXPECT_DOUBLE_EQ(s.measure.sec(), 3.5);
  EXPECT_EQ(scaled_flow_count(1000, scale), 100);
  EXPECT_EQ(scaled_flow_count(3, 0.001), 1);  // never zero flows
}

TEST(Scenario, NoEnvMeansIdentity) {
  ::unsetenv("REPRO_SCALE");
  Scenario s = Scenario::edge_scale();
  EXPECT_DOUBLE_EQ(s.apply_env_overrides(), 1.0);
  EXPECT_EQ(s.net.bottleneck_rate, DataRate::mbps(100));
}

ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.scenario = Scenario::edge_scale();
  spec.scenario.net.bottleneck_rate = DataRate::mbps(20);
  spec.scenario.net.buffer_bytes = 200'000;
  spec.scenario.stagger = TimeDelta::millis(100);
  spec.scenario.warmup = TimeDelta::seconds(1);
  spec.scenario.measure = TimeDelta::seconds(3);
  spec.groups.push_back(FlowGroup{"newreno", 4, TimeDelta::millis(20)});
  spec.seed = 7;
  return spec;
}

TEST(Runner, RejectsMalformedSpecs) {
  ExperimentSpec empty;
  EXPECT_THROW(run_experiment(empty), std::invalid_argument);

  ExperimentSpec bad_cca = tiny_spec();
  bad_cca.groups[0].cca = "nope";
  EXPECT_THROW(run_experiment(bad_cca), std::invalid_argument);

  ExperimentSpec bad_count = tiny_spec();
  bad_count.groups[0].count = 0;
  EXPECT_THROW(run_experiment(bad_count), std::invalid_argument);

  ExperimentSpec bad_rtt = tiny_spec();
  bad_rtt.groups[0].rtt = TimeDelta::zero();
  EXPECT_THROW(run_experiment(bad_rtt), std::invalid_argument);
}

TEST(Runner, RejectsShardedSpecs) {
  // Within-cell sharding was removed; a spec asking for it must fail
  // loudly rather than silently run serially. The message points at the
  // cross-cell alternatives.
  for (const int shards : {0, 2}) {
    ExperimentSpec spec = tiny_spec();
    spec.shards = shards;
    try {
      (void)run_experiment(spec);
      FAIL() << "shards=" << shards << " must be rejected";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("shards=" + std::to_string(shards)), std::string::npos)
          << what;
      EXPECT_NE(what.find("--jobs"), std::string::npos) << what;
      EXPECT_NE(what.find("ccas_fleet"), std::string::npos) << what;
    }
  }
}

TEST(Runner, ProducesConsistentResultStructure) {
  const ExperimentResult r = run_experiment(tiny_spec());
  ASSERT_EQ(r.flows.size(), 4u);
  ASSERT_EQ(r.flow_group.size(), 4u);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].cca, "newreno");
  EXPECT_EQ(r.groups[0].count, 4);
  EXPECT_NEAR(r.groups[0].throughput_share, 1.0, 1e-9);
  double sum = 0.0;
  for (const auto& f : r.flows) sum += f.goodput_bps;
  EXPECT_NEAR(sum, r.aggregate_goodput_bps, 1.0);
  EXPECT_EQ(r.measured_for, TimeDelta::seconds(3));
  EXPECT_GT(r.sim_events, 1000u);
}

TEST(Runner, SaturatesTheBottleneck) {
  const ExperimentResult r = run_experiment(tiny_spec());
  EXPECT_GT(r.utilization, 0.9);
  EXPECT_LT(r.utilization, 1.1);
}

TEST(Runner, DeterministicForSameSeed) {
  const ExperimentResult a = run_experiment(tiny_spec());
  const ExperimentResult b = run_experiment(tiny_spec());
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].goodput_bps, b.flows[i].goodput_bps);
    EXPECT_EQ(a.flows[i].segments_sent, b.flows[i].segments_sent);
    EXPECT_EQ(a.flows[i].queue_drops, b.flows[i].queue_drops);
  }
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(Runner, DifferentSeedsDiffer) {
  ExperimentSpec s2 = tiny_spec();
  s2.seed = 8;
  const ExperimentResult a = run_experiment(tiny_spec());
  const ExperimentResult b = run_experiment(s2);
  EXPECT_NE(a.flows[0].segments_sent, b.flows[0].segments_sent);
}

TEST(Runner, TwoGroupsSplitTraffic) {
  ExperimentSpec spec = tiny_spec();
  spec.groups.push_back(FlowGroup{"cubic", 4, TimeDelta::millis(20)});
  const ExperimentResult r = run_experiment(spec);
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_NEAR(r.groups[0].throughput_share + r.groups[1].throughput_share, 1.0, 1e-9);
  EXPECT_EQ(r.flows.size(), 8u);
  // flow_group maps the first 4 flows to group 0.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(r.flow_group[static_cast<size_t>(i)], 0);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(r.flow_group[static_cast<size_t>(i)], 1);
  // Group accessors agree.
  EXPECT_EQ(r.group_goodputs(0).size(), 4u);
  EXPECT_GT(r.jfi_group(0), 0.0);
  EXPECT_THROW(r.jfi_group(2), std::out_of_range);
}

TEST(Runner, WarmupExcludedFromMeasurement) {
  // A run whose measurement window is tiny still reports sane counters
  // because warm-up traffic was excluded.
  ExperimentSpec spec = tiny_spec();
  spec.scenario.measure = TimeDelta::millis(500);
  const ExperimentResult r = run_experiment(spec);
  for (const auto& f : r.flows) {
    // Over 0.5s at 20 Mbps the whole link moves ~860 segments; per-flow
    // counts must be in that ballpark, not inflated by warm-up traffic.
    EXPECT_LT(f.segments_sent, 2000u);
  }
}

TEST(Runner, ConvergenceEarlyStop) {
  ExperimentSpec spec = tiny_spec();
  spec.scenario.measure = TimeDelta::seconds(30);
  spec.convergence_window = TimeDelta::seconds(2);
  spec.convergence_poll = TimeDelta::millis(250);
  spec.convergence_tolerance = 0.05;  // loose: stop quickly
  const ExperimentResult r = run_experiment(spec);
  EXPECT_TRUE(r.converged_early);
  EXPECT_LT(r.measured_for, TimeDelta::seconds(30));
  EXPECT_GE(r.measured_for, TimeDelta::seconds(2));
}

TEST(Runner, DropLogDisabledLeavesDropTimesEmpty) {
  ExperimentSpec spec = tiny_spec();
  spec.record_drop_log = false;
  const ExperimentResult r = run_experiment(spec);
  EXPECT_TRUE(r.drop_times.empty());
  EXPECT_GT(r.queue.dropped_packets, 0u);  // drops still counted
}

TEST(Report, TableRendersAligned) {
  Table t({"a", "bee", "c"});
  t.row().col("x").col(1.5, 1).col(static_cast<int64_t>(42)).done();
  t.row().col("longer").pct(0.5).col(static_cast<int64_t>(1)).done();
  const std::string out = t.to_string();
  EXPECT_NE(out.find("a       bee    c"), std::string::npos);
  EXPECT_NE(out.find("x       1.5    42"), std::string::npos);
  EXPECT_NE(out.find("longer  50.0%  1"), std::string::npos);
}

TEST(Report, FormatRate) {
  EXPECT_EQ(format_rate(9.65e9), "9.65 Gbps");
  EXPECT_EQ(format_rate(1.2e6), "1.20 Mbps");
  EXPECT_EQ(format_rate(3.5e3), "3.50 kbps");
  EXPECT_EQ(format_rate(12.0), "12 bps");
}

TEST(Report, SummarizeContainsGroups) {
  const ExperimentResult r = run_experiment(tiny_spec());
  const std::string s = summarize(r);
  EXPECT_NE(s.find("newreno"), std::string::npos);
  EXPECT_NE(s.find("utilization"), std::string::npos);
}

}  // namespace
}  // namespace ccas
