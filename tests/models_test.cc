// Tests for the analytical models: Mathis and Ware et al. BBR.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/models/mathis.h"
#include "src/models/ware_bbr.h"

namespace ccas {
namespace {

// ------------------------------------------------------------- Mathis ----

TEST(Mathis, MatchesClosedForm) {
  const MathisModel model(1.22, 1448);
  // Throughput = MSS*C/(RTT*sqrt(p)); p = 0.01, RTT = 100 ms.
  const DataRate t = model.predict(TimeDelta::millis(100), 0.01);
  const double expect_bps = 1448.0 * 1.22 / (0.1 * 0.1) * 8.0;
  EXPECT_NEAR(static_cast<double>(t.bits_per_sec()), expect_bps, expect_bps * 1e-6);
}

TEST(Mathis, ThroughputScalesInverseSqrtP) {
  const MathisModel model(0.94, 1448);
  const DataRate t1 = model.predict(TimeDelta::millis(20), 0.0001);
  const DataRate t4 = model.predict(TimeDelta::millis(20), 0.0004);
  EXPECT_NEAR(t1 / t4, 2.0, 1e-6);  // 4x loss -> half throughput
}

TEST(Mathis, ThroughputScalesInverseRtt) {
  const MathisModel model(0.94, 1448);
  const DataRate t20 = model.predict(TimeDelta::millis(20), 0.001);
  const DataRate t200 = model.predict(TimeDelta::millis(200), 0.001);
  EXPECT_NEAR(t20 / t200, 10.0, 1e-4);  // int64 bps truncation
}

TEST(Mathis, InverseRoundTrips) {
  const MathisModel model(1.0, 1448);
  const TimeDelta rtt = TimeDelta::millis(50);
  const DataRate t = model.predict(rtt, 0.002);
  EXPECT_NEAR(model.required_event_rate(rtt, t), 0.002, 1e-9);
}

TEST(Mathis, ImpliedConstantRoundTrips) {
  const MathisModel model(1.37, 1448);
  const TimeDelta rtt = TimeDelta::millis(20);
  const DataRate t = model.predict(rtt, 0.0005);
  EXPECT_NEAR(MathisModel::implied_constant(t, rtt, 0.0005, 1448), 1.37, 1e-6);
}

TEST(Mathis, ZeroLossIsInfinite) {
  const MathisModel model(0.94, 1448);
  EXPECT_TRUE(model.predict(TimeDelta::millis(20), 0.0).is_infinite());
}

TEST(Mathis, InvalidInputsThrow) {
  const MathisModel model(0.94, 1448);
  EXPECT_THROW(model.predict(TimeDelta::zero(), 0.01), std::invalid_argument);
  EXPECT_THROW(MathisModel::implied_constant(DataRate::mbps(1), TimeDelta::millis(20),
                                             0.0, 1448),
               std::invalid_argument);
}

// ------------------------------------------------------------ WareBbr ----

WareBbrParams core_params(int n_bbr, int n_loss) {
  WareBbrParams p;
  p.link = DataRate::gbps(10);
  p.rtprop = TimeDelta::millis(20);
  p.buffer_bytes = 375LL * 1000 * 1000;
  p.num_bbr = n_bbr;
  p.num_loss_based = n_loss;
  return p;
}

TEST(WareBbr, InflightCapFormula) {
  const WareBbrModel model(core_params(1, 1000));
  // cap = 2 * bw * rtprop / MSS.
  const double cap = model.inflight_cap_segments(DataRate::gbps(4),
                                                 TimeDelta::millis(20));
  EXPECT_NEAR(cap, 2.0 * 4e9 / 8.0 * 0.02 / 1448.0, 1.0);
}

TEST(WareBbr, QueueInflatedRtt) {
  const WareBbrModel model(core_params(1, 1000));
  const TimeDelta rtt = model.queue_inflated_rtt(375LL * 1000 * 1000);
  EXPECT_NEAR(rtt.ms(), 20.0 + 300.0, 0.5);
}

TEST(WareBbr, SingleBbrShareInsensitiveToCompetitorCount) {
  // Ware et al.'s headline: one BBR flow's share barely moves as the
  // number of loss-based competitors grows by 5x.
  const double f1000 = WareBbrModel(core_params(1, 1000)).predict().bbr_fraction;
  const double f5000 = WareBbrModel(core_params(1, 5000)).predict().bbr_fraction;
  EXPECT_GT(f1000, 0.1);
  EXPECT_LT(f1000, 0.9);
  EXPECT_NEAR(f1000, f5000, 0.25);
}

TEST(WareBbr, ManyBbrFlowsDominate) {
  // Equal counts: BBR takes nearly everything (paper Finding 7).
  const double f = WareBbrModel(core_params(1000, 1000)).predict().bbr_fraction;
  EXPECT_GT(f, 0.8);
}

TEST(WareBbr, PredictionIsAFraction) {
  for (int n : {1, 10, 100, 1000}) {
    const auto pred = WareBbrModel(core_params(n, 1000)).predict();
    EXPECT_GE(pred.bbr_fraction, 0.0);
    EXPECT_LE(pred.bbr_fraction, 1.0);
    EXPECT_TRUE(pred.window_limited);
    EXPECT_GT(pred.inflight_cap_segments, 0.0);
  }
}

TEST(WareBbr, RejectsBadParams) {
  WareBbrParams p = core_params(0, 10);
  EXPECT_THROW(WareBbrModel{p}, std::invalid_argument);
}

}  // namespace
}  // namespace ccas
