// Sensor model: detection radius and line-of-sight occlusion geometry.
#include "sensor/sensor_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sensor/occlusion.h"

namespace head::sensor {
namespace {

RoadConfig DefaultRoad() { return RoadConfig{}; }

TEST(OcclusionGeometryTest, SegmentRectIntersection) {
  // Horizontal segment crossing a unit box at the origin.
  EXPECT_TRUE(SegmentIntersectsRect(-2, 0, 2, 0, 0, 0, 1, 1));
  // Segment passing above the box.
  EXPECT_FALSE(SegmentIntersectsRect(-2, 2, 2, 2, 0, 0, 1, 1));
  // Segment ending before the box.
  EXPECT_FALSE(SegmentIntersectsRect(-3, 0, -2, 0, 0, 0, 1, 1));
  // Diagonal through a corner region.
  EXPECT_TRUE(SegmentIntersectsRect(-2, -2, 2, 2, 0, 0, 1, 1));
  // Degenerate segment inside the box.
  EXPECT_TRUE(SegmentIntersectsRect(0.1, 0.1, 0.1, 0.1, 0, 0, 1, 1));
}

TEST(OcclusionTest, SameLaneBlockerHidesVehicleBehindIt) {
  const RoadConfig road = DefaultRoad();
  const VehicleState observer{3, 0.0, 20.0};
  const VehicleState blocker{3, 30.0, 20.0};
  const VehicleState target{3, 60.0, 20.0};
  EXPECT_TRUE(Occludes(observer, target, blocker, road.lane_width_m));
}

TEST(OcclusionTest, AdjacentLaneVehicleDoesNotHideSameLaneTarget) {
  const RoadConfig road = DefaultRoad();
  const VehicleState observer{3, 0.0, 20.0};
  const VehicleState blocker{2, 30.0, 20.0};  // one lane over
  const VehicleState target{3, 60.0, 20.0};
  EXPECT_FALSE(Occludes(observer, target, blocker, road.lane_width_m));
}

TEST(OcclusionTest, DiagonalShadowMatchesFig4Geometry) {
  const RoadConfig road = DefaultRoad();
  // Fig. 4, case (1,1): C1 front-left of A; C11 beyond it on the same ray
  // (one more lane left, double the longitudinal distance).
  const VehicleState a{3, 0.0, 20.0};
  const VehicleState c1{2, 20.0, 20.0};
  const VehicleState c11{1, 40.0, 20.0};
  EXPECT_TRUE(Occludes(a, c11, c1, road.lane_width_m));
}

TEST(OcclusionTest, BlockerBehindTargetDoesNotOcclude) {
  const RoadConfig road = DefaultRoad();
  const VehicleState observer{3, 0.0, 20.0};
  const VehicleState target{3, 30.0, 20.0};
  const VehicleState blocker{3, 60.0, 20.0};  // beyond the target
  EXPECT_FALSE(Occludes(observer, target, blocker, road.lane_width_m));
}

TEST(SensorTest, RangeCutoff) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  sensor.range_m = 100.0;
  sensor.model_occlusion = false;
  const VehicleState ego{3, 0.0, 20.0};
  std::vector<sim::VehicleSnapshot> global = {
      {0, ego},
      {1, {3, 99.0, 20.0}},
      {2, {3, 101.0, 20.0}},
      {3, {3, -99.0, 20.0}},
  };
  const auto observed = Observe(global, ego, sensor, road);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].id, 1);
  EXPECT_EQ(observed[1].id, 3);
}

TEST(SensorTest, RangeIsEuclideanAcrossLanes) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  sensor.range_m = 10.0;
  sensor.model_occlusion = false;
  const VehicleState ego{1, 0.0, 20.0};
  // 9.9 m ahead but 3 lanes over (9.6 m lateral): distance ≈ 13.8 > 10.
  std::vector<sim::VehicleSnapshot> global = {{1, {4, 9.9, 20.0}}};
  EXPECT_TRUE(Observe(global, ego, sensor, road).empty());
}

TEST(SensorTest, OcclusionRemovesHiddenVehicle) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  const VehicleState ego{3, 0.0, 20.0};
  std::vector<sim::VehicleSnapshot> global = {
      {1, {3, 30.0, 20.0}},
      {2, {3, 60.0, 20.0}},  // hidden behind 1
      {3, {2, 40.0, 20.0}},  // visible, other lane
  };
  const auto observed = Observe(global, ego, sensor, road);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].id, 1);
  EXPECT_EQ(observed[1].id, 3);
}

TEST(SensorTest, EgoNeverObservesItself) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  const VehicleState ego{3, 0.0, 20.0};
  std::vector<sim::VehicleSnapshot> global = {{kEgoVehicleId, ego}};
  EXPECT_TRUE(Observe(global, ego, sensor, road).empty());
}

TEST(SensorTest, DisablingOcclusionRestoresHiddenVehicle) {
  const RoadConfig road = DefaultRoad();
  SensorConfig sensor;
  sensor.model_occlusion = false;
  const VehicleState ego{3, 0.0, 20.0};
  std::vector<sim::VehicleSnapshot> global = {
      {1, {3, 30.0, 20.0}},
      {2, {3, 60.0, 20.0}},
  };
  EXPECT_EQ(Observe(global, ego, sensor, road).size(), 2u);
}

// The sensor without its blocker prefilter: every target in range is
// tested against every other vehicle on the road, O(k·n). The oracle for
// Observe.
std::vector<sim::VehicleSnapshot> BruteForceObserve(
    const std::vector<sim::VehicleSnapshot>& global, const VehicleState& ego,
    const SensorConfig& sensor, const RoadConfig& road) {
  std::vector<sim::VehicleSnapshot> out;
  for (const sim::VehicleSnapshot& target : global) {
    if (target.id == kEgoVehicleId) continue;
    const double dx = DLon(target.state, ego);
    const double dy = DLat(target.state, ego, road.lane_width_m);
    if (dx * dx + dy * dy > sensor.range_m * sensor.range_m) continue;
    bool visible = true;
    for (const sim::VehicleSnapshot& blocker : global) {
      if (!sensor.model_occlusion) break;
      if (blocker.id == target.id || blocker.id == kEgoVehicleId) continue;
      if (Occludes(ego, target.state, blocker.state, road.lane_width_m)) {
        visible = false;
        break;
      }
    }
    if (visible) out.push_back(target);
  }
  return out;
}

void ExpectSameObservation(const std::vector<sim::VehicleSnapshot>& got,
                           const std::vector<sim::VehicleSnapshot>& want,
                           const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << where << " entry " << i;
    EXPECT_EQ(got[i].state, want[i].state) << where << " entry " << i;
  }
}

void ExpectMatchesOracle(const std::vector<sim::VehicleSnapshot>& global,
                         const VehicleState& ego, const SensorConfig& sensor,
                         const RoadConfig& road, const std::string& where) {
  ExpectSameObservation(Observe(global, ego, sensor, road),
                        BruteForceObserve(global, ego, sensor, road), where);
}

TEST(SensorOracleTest, MatchesBruteForceOnRandomSnapshots) {
  const RoadConfig road;
  Rng rng(2024);
  size_t visible = 0, hidden = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    SensorConfig sensor;
    sensor.range_m = rng.Bernoulli(0.5) ? 100.0 : rng.Uniform(10.0, 120.0);
    sensor.model_occlusion = !rng.Bernoulli(0.1);
    const VehicleState ego{rng.UniformInt(1, road.num_lanes),
                           rng.Uniform(-50.0, 3000.0), 20.0};
    // Vehicles spread over more than the sensor reach on both sides, dense
    // enough that many shadow each other; ids are a random permutation
    // and the ego sits at a random position of the snapshot.
    const int n = rng.UniformInt(0, 120);
    std::vector<VehicleId> ids(n);
    std::iota(ids.begin(), ids.end(), 1);
    std::shuffle(ids.begin(), ids.end(), rng.engine());
    std::vector<sim::VehicleSnapshot> global;
    for (int i = 0; i < n; ++i) {
      global.push_back(
          {ids[i],
           {rng.UniformInt(1, road.num_lanes),
            ego.lon_m + rng.Uniform(-1.6, 1.6) * sensor.range_m,
            rng.Uniform(0.0, 25.0)}});
    }
    global.insert(global.begin() + rng.UniformInt(0, n),
                  {kEgoVehicleId, ego});
    const std::vector<sim::VehicleSnapshot> want =
        BruteForceObserve(global, ego, sensor, road);
    ExpectSameObservation(Observe(global, ego, sensor, road), want,
                          "trial " + std::to_string(trial));
    visible += want.size();
    for (const sim::VehicleSnapshot& v : global) {
      const double dx = DLon(v.state, ego);
      const double dy = DLat(v.state, ego, road.lane_width_m);
      if (v.id != kEgoVehicleId &&
          dx * dx + dy * dy <= sensor.range_m * sensor.range_m) {
        ++hidden;
      }
    }
  }
  hidden -= visible;
  // Both outcomes must be common for the comparison to mean anything.
  EXPECT_GT(visible, 5000u);
  EXPECT_GT(hidden, 5000u);
}

TEST(SensorOracleTest, TargetExactlyAtRangeIsVisible) {
  const RoadConfig road;
  SensorConfig sensor;
  const VehicleState ego{3, 200.0, 20.0};
  const std::vector<sim::VehicleSnapshot> global = {
      {kEgoVehicleId, ego},
      {1, {3, 200.0 + sensor.range_m, 20.0}},
      {2, {3, 200.0 - sensor.range_m, 20.0}},
  };
  const auto observed = Observe(global, ego, sensor, road);
  ASSERT_EQ(observed.size(), 2u);
  ExpectMatchesOracle(global, ego, sensor, road, "at range");
}

TEST(SensorOracleTest, BlockersAtThePrefilterMargin) {
  const RoadConfig road;
  SensorConfig sensor;
  const VehicleState ego{3, 500.0, 20.0};
  const double margin = sensor.range_m + kVehicleLengthM;
  // A blocker beyond R still hides a target at the range limit whose
  // sight line ends inside its rectangle: the prefilter must keep it.
  for (const double sign : {1.0, -1.0}) {
    const std::vector<sim::VehicleSnapshot> global = {
        {kEgoVehicleId, ego},
        {1, {3, ego.lon_m + sign * sensor.range_m, 20.0}},
        {2, {3, ego.lon_m + sign * (sensor.range_m + 2.3), 20.0}},
    };
    EXPECT_TRUE(Observe(global, ego, sensor, road).empty());
    ExpectMatchesOracle(global, ego, sensor, road, "blocker beyond R");
  }
  // Blockers just inside, at and just outside R + one vehicle length,
  // beside targets at the range limit in every lane.
  std::vector<sim::VehicleSnapshot> global = {{kEgoVehicleId, ego}};
  VehicleId id = 1;
  for (int lane = 1; lane <= road.num_lanes; ++lane) {
    for (const double sign : {1.0, -1.0}) {
      const double dy = (lane - ego.lane) * road.lane_width_m;
      const double reach = std::sqrt(sensor.range_m * sensor.range_m - dy * dy);
      global.push_back({id++, {lane, ego.lon_m + sign * reach, 20.0}});
      global.push_back(
          {id++, {lane, ego.lon_m + sign * std::nextafter(margin, 0.0), 20.0}});
      global.push_back({id++, {lane, ego.lon_m + sign * margin, 20.0}});
      global.push_back(
          {id++, {lane, ego.lon_m + sign * std::nextafter(margin, 1e9), 20.0}});
    }
  }
  ExpectMatchesOracle(global, ego, sensor, road, "margin");
  EXPECT_FALSE(Observe(global, ego, sensor, road).empty());
}

TEST(SensorOracleTest, OcclusionOffMatchesOracle) {
  const RoadConfig road;
  SensorConfig sensor;
  sensor.model_occlusion = false;
  const VehicleState ego{2, 0.0, 20.0};
  std::vector<sim::VehicleSnapshot> global = {{kEgoVehicleId, ego}};
  for (int k = 1; k <= 40; ++k) {
    global.push_back({k, {1 + k % 6, -120.0 + 6.0 * k, 20.0}});
  }
  const auto observed = Observe(global, ego, sensor, road);
  EXPECT_GT(observed.size(), 20u);
  ExpectMatchesOracle(global, ego, sensor, road, "occlusion off");
}

TEST(SensorOracleTest, EgoInOutermostLanes) {
  const RoadConfig road;
  const SensorConfig sensor;
  for (const int ego_lane : {1, road.num_lanes}) {
    const VehicleState ego{ego_lane, 1000.0, 20.0};
    std::vector<sim::VehicleSnapshot> global = {{kEgoVehicleId, ego}};
    VehicleId id = 1;
    for (int lane = 1; lane <= road.num_lanes; ++lane) {
      for (double lon = 880.0; lon <= 1120.0; lon += 12.0) {
        global.push_back({id++, {lane, lon, 20.0}});
      }
    }
    ExpectMatchesOracle(global, ego, sensor, road,
                        "ego lane " + std::to_string(ego_lane));
  }
}

TEST(SensorOracleTest, EmptyRoad) {
  const RoadConfig road;
  const SensorConfig sensor;
  const VehicleState ego{3, 0.0, 20.0};
  EXPECT_TRUE(Observe({}, ego, sensor, road).empty());
  EXPECT_TRUE(Observe({{kEgoVehicleId, ego}}, ego, sensor, road).empty());
}

}  // namespace
}  // namespace head::sensor
