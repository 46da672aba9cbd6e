// Property tests for the car-following and lane-change models.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "sim/acc.h"
#include "sim/idm.h"
#include "sim/krauss.h"
#include "sim/lane_change.h"

namespace head::sim {
namespace {

DriverParams DefaultParams() { return DriverParams{}; }

TEST(IdmTest, FreeRoadAcceleratesTowardDesiredSpeed) {
  const DriverParams p = DefaultParams();
  EXPECT_GT(IdmAccel(p, 10.0, 1e9, 0.0), 0.0);
  EXPECT_NEAR(IdmAccel(p, p.desired_speed_mps, 1e9, 0.0), 0.0, 1e-6);
  EXPECT_LT(IdmAccel(p, p.desired_speed_mps + 5.0, 1e9, 0.0), 0.0);
}

TEST(IdmTest, BrakesWhenGapSmall) {
  const DriverParams p = DefaultParams();
  EXPECT_LT(IdmAccel(p, 20.0, 5.0, 0.0), -1.0);
}

TEST(IdmTest, BrakesHarderWhenClosing) {
  const DriverParams p = DefaultParams();
  const double same_speed = IdmAccel(p, 20.0, 30.0, 0.0);
  const double closing = IdmAccel(p, 20.0, 30.0, 5.0);
  EXPECT_LT(closing, same_speed);
}

TEST(IdmTest, MonotoneInGap) {
  const DriverParams p = DefaultParams();
  double prev = IdmAccel(p, 20.0, 5.0, 0.0);
  for (double gap = 10.0; gap <= 200.0; gap += 5.0) {
    const double a = IdmAccel(p, 20.0, gap, 0.0);
    EXPECT_GE(a, prev - 1e-12) << "gap " << gap;
    prev = a;
  }
}

TEST(IdmTest, DesiredGapGrowsWithSpeed) {
  const DriverParams p = DefaultParams();
  EXPECT_LT(IdmDesiredGap(p, 5.0, 0.0), IdmDesiredGap(p, 20.0, 0.0));
  EXPECT_GE(IdmDesiredGap(p, 0.0, 0.0), p.min_gap_m);
}

// Parameterized equilibrium sweep: for several speeds, a follower at the
// IDM equilibrium gap holds roughly zero acceleration.
class IdmEquilibriumTest : public ::testing::TestWithParam<double> {};

TEST_P(IdmEquilibriumTest, EquilibriumGapIsStationary) {
  DriverParams p = DefaultParams();
  const double v = GetParam();
  p.desired_speed_mps = 30.0;  // far above v: free term negligible but kept
  const double s_star = IdmDesiredGap(p, v, 0.0);
  // At gap = s*/sqrt(1 − (v/v0)^4) the IDM acceleration is exactly zero.
  const double denom = std::sqrt(1.0 - std::pow(v / 30.0, 4.0));
  const double eq_gap = s_star / denom;
  EXPECT_NEAR(IdmAccel(p, v, eq_gap, 0.0), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Speeds, IdmEquilibriumTest,
                         ::testing::Values(5.0, 10.0, 15.0, 20.0, 25.0));

TEST(AccTest, RegulatesTowardDesiredSpeedWhenFree) {
  const DriverParams p = DefaultParams();
  const AccGains g;
  EXPECT_GT(AccAccel(p, g, 10.0, 1e9, 0.0), 0.0);
  EXPECT_LT(AccAccel(p, g, p.desired_speed_mps + 5.0, 1e9, 0.0), 0.0);
}

TEST(AccTest, BrakesWhenGapBelowDesired) {
  const DriverParams p = DefaultParams();
  const AccGains g;
  // desired gap at v=20: 2 + 1.5*20 = 32 m; 28 m keeps the controller off
  // its saturation clamp so the closing-rate term is visible.
  EXPECT_LT(AccAccel(p, g, 20.0, 28.0, 0.0), 0.0);
  EXPECT_LT(AccAccel(p, g, 20.0, 28.0, 5.0),
            AccAccel(p, g, 20.0, 28.0, 0.0));
}

TEST(KraussTest, SafeSpeedNonNegativeAndBoundedByGap) {
  const DriverParams p = DefaultParams();
  EXPECT_GE(KraussSafeSpeed(p, 20.0, 0.0, 0.0, 0.5), 0.0);
  // Generous gap: safe speed well above the leader's.
  EXPECT_GT(KraussSafeSpeed(p, 20.0, 15.0, 100.0, 0.5), 15.0);
  // Zero gap behind a stopped leader: must stop.
  EXPECT_NEAR(KraussSafeSpeed(p, 10.0, 0.0, 0.0, 0.5), 0.0, 1e-9);
}

TEST(KraussTest, NeverExceedsDesiredSpeedAndBounds) {
  DriverParams p = DefaultParams();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.Uniform(0.0, 25.0);
    const double a = KraussAccel(p, v, 20.0, 50.0, 0.5, rng);
    const double v_new = v + a * 0.5;
    EXPECT_LE(v_new, p.desired_speed_mps + 1e-9);
    EXPECT_GE(v_new, -1e-9);
  }
}

TEST(MobilTest, ChangesTowardFreeLaneWhenBlocked) {
  // Ego blocked by a slow leader in lane 2; lane 1 is free.
  RoadConfig road;
  std::vector<VehicleSnapshot> fleet = {
      {1, {2, 120.0, 10.0}},  // slow leader ahead of ego
  };
  RoadView view(fleet);
  Vehicle ego;
  ego.id = 7;
  ego.state = {2, 100.0, 20.0};
  ego.params = DriverParams{};
  const std::optional<LaneChange> change = MobilDecide(view, ego, road);
  ASSERT_TRUE(change.has_value());
}

TEST(MobilTest, StaysWhenNoAdvantage) {
  RoadConfig road;
  RoadView view(std::vector<VehicleSnapshot>{});  // empty road
  Vehicle ego;
  ego.id = 7;
  ego.state = {3, 100.0, 20.0};
  ego.params = DriverParams{};
  EXPECT_FALSE(MobilDecide(view, ego, road).has_value());
}

TEST(MobilTest, RespectsSafetyOfNewFollower) {
  RoadConfig road;
  // Fast follower right next to the candidate slot in lane 1.
  std::vector<VehicleSnapshot> fleet = {
      {1, {2, 130.0, 5.0}},    // very slow leader → strong incentive
      {2, {1, 97.0, 25.0}},    // follower in target lane, 3 m behind
  };
  RoadView view(fleet);
  Vehicle ego;
  ego.id = 7;
  ego.state = {2, 100.0, 20.0};
  ego.params = DriverParams{};
  const std::optional<LaneChange> change = MobilDecide(view, ego, road);
  // Left is unsafe; right is free so MOBIL may pick it — but never left.
  if (change.has_value()) {
    EXPECT_EQ(*change, LaneChange::kRight);
  }
}

TEST(MobilTest, CooldownBlocksChanges) {
  RoadConfig road;
  std::vector<VehicleSnapshot> fleet = {{1, {2, 110.0, 5.0}}};
  RoadView view(fleet);
  Vehicle ego;
  ego.id = 7;
  ego.state = {2, 100.0, 20.0};
  ego.params = DriverParams{};
  ego.lane_change_cooldown = 3;
  EXPECT_FALSE(MobilDecide(view, ego, road).has_value());
}

TEST(MobilTest, LaneChangeSafeRejectsOverlap) {
  std::vector<VehicleSnapshot> fleet = {{1, {1, 100.0, 20.0}}};
  RoadView view(fleet);
  Vehicle ego;
  ego.id = 7;
  ego.state = {2, 100.0, 20.0};
  EXPECT_FALSE(LaneChangeSafe(view, ego, 1));
}

TEST(LaneChangeConflictTest, FrontMostWinsPerTargetLane) {
  std::vector<LaneChangeProposal> proposals = {
      {0, 2, 100.0},  // 5 m behind the winner in lane 2: dropped
      {1, 2, 105.0},  // front-most into lane 2
      {2, 2, 80.0},   // 25 m behind: kept
      {3, 3, 100.0},  // alone in lane 3
  };
  ResolveLaneChangeConflicts(proposals);
  ASSERT_EQ(proposals.size(), 3u);
  EXPECT_EQ(proposals[0].index, 1u);
  EXPECT_EQ(proposals[1].index, 2u);
  EXPECT_EQ(proposals[2].index, 3u);
}

TEST(LaneChangeConflictTest, ExactLonTieKeepsLowestFleetIndex) {
  // 40 vehicles want the same slot of lane 3 from the same lon (from lanes
  // 2 and 4); whatever order they were proposed in, the lowest fleet index
  // wins. A second tied group 30 m behind keeps its own lowest index.
  Rng rng(4);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<LaneChangeProposal> proposals;
    for (size_t i = 0; i < 40; ++i) {
      proposals.push_back({100 + i, 3, 250.0});
      proposals.push_back({200 + i, 3, 220.0});
    }
    std::shuffle(proposals.begin(), proposals.end(), rng.engine());
    ResolveLaneChangeConflicts(proposals);
    ASSERT_EQ(proposals.size(), 2u);
    EXPECT_EQ(proposals[0].index, 100u);
    EXPECT_EQ(proposals[1].index, 200u);
  }
}

}  // namespace
}  // namespace head::sim
