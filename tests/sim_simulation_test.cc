// Simulation-engine invariants: spawning, stepping, collisions, termination.
#include "sim/simulation.h"

#include <bit>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "sensor/sensor_model.h"
#include "sim/scenario.h"
#include "sim/spawner.h"

namespace head::sim {
namespace {

SimConfig SmallConfig() {
  SimConfig c;
  c.road.length_m = 500.0;
  c.spawn.back_margin_m = 150.0;
  c.spawn.front_margin_m = 150.0;
  return c;
}

TEST(SpawnerTest, RespectsDensityRoughly) {
  RoadConfig road;
  road.length_m = 2000.0;
  SpawnConfig spawn;
  spawn.density_veh_per_km = 180.0;
  spawn.back_margin_m = 0.0;
  spawn.front_margin_m = 0.0;
  Rng rng(3);
  const auto fleet = SpawnInitialTraffic(road, spawn, 1, 0.0, rng);
  const double expected = 180.0 * 2.0;  // 2 km
  EXPECT_GT(fleet.size(), expected * 0.7);
  EXPECT_LT(fleet.size(), expected * 1.3);
}

TEST(SpawnerTest, NoInitialOverlapsWithinLane) {
  RoadConfig road;
  SpawnConfig spawn;
  Rng rng(11);
  const auto fleet = SpawnInitialTraffic(road, spawn, 3, 0.0, rng);
  for (size_t i = 0; i < fleet.size(); ++i) {
    for (size_t j = i + 1; j < fleet.size(); ++j) {
      if (fleet[i].state.lane != fleet[j].state.lane) continue;
      EXPECT_GT(std::fabs(fleet[i].state.lon_m - fleet[j].state.lon_m),
                kVehicleLengthM)
          << "vehicles " << fleet[i].id << " and " << fleet[j].id;
    }
  }
}

TEST(SpawnerTest, EgoClearZoneIsEmpty) {
  RoadConfig road;
  SpawnConfig spawn;
  Rng rng(17);
  const auto fleet = SpawnInitialTraffic(road, spawn, 2, 0.0, rng);
  for (const Vehicle& v : fleet) {
    if (v.state.lane != 2) continue;
    EXPECT_GE(std::fabs(v.state.lon_m), spawn.ego_clear_zone_m);
  }
}

TEST(SpawnerTest, UniqueIdsAndValidLanesAndSpeeds) {
  RoadConfig road;
  SpawnConfig spawn;
  Rng rng(23);
  const auto fleet = SpawnInitialTraffic(road, spawn, 1, 0.0, rng);
  std::set<VehicleId> ids;
  for (const Vehicle& v : fleet) {
    EXPECT_TRUE(ids.insert(v.id).second);
    EXPECT_NE(v.id, kEgoVehicleId);
    EXPECT_TRUE(road.IsValidLane(v.state.lane));
    EXPECT_GE(v.state.v_mps, road.v_min_mps);
    EXPECT_LE(v.state.v_mps, road.v_max_mps);
  }
}

TEST(SimulationTest, ResetPlacesEgoAtOrigin) {
  Simulation sim(SmallConfig(), 1);
  EXPECT_EQ(sim.ego_state().lon_m, 0.0);
  EXPECT_EQ(sim.status(), EpisodeStatus::kRunning);
  EXPECT_EQ(sim.step_count(), 0);
}

TEST(SimulationTest, DeterministicUnderSameSeed) {
  Simulation a(SmallConfig(), 99);
  Simulation b(SmallConfig(), 99);
  for (int i = 0; i < 30; ++i) {
    a.Step(Maneuver{LaneChange::kKeep, 1.0});
    b.Step(Maneuver{LaneChange::kKeep, 1.0});
  }
  EXPECT_EQ(a.ego_state(), b.ego_state());
  ASSERT_EQ(a.conventional_vehicles().size(), b.conventional_vehicles().size());
  for (size_t i = 0; i < a.conventional_vehicles().size(); ++i) {
    EXPECT_EQ(a.conventional_vehicles()[i].state,
              b.conventional_vehicles()[i].state);
  }
}

TEST(SimulationTest, BoundaryHitIsCollision) {
  Simulation sim(SmallConfig(), 5);
  // Drive off the left edge: repeatedly change left.
  EpisodeStatus status = EpisodeStatus::kRunning;
  for (int i = 0; i < 10 && status == EpisodeStatus::kRunning; ++i) {
    status = sim.Step(Maneuver{LaneChange::kLeft, 0.0});
  }
  EXPECT_EQ(status, EpisodeStatus::kCollision);
}

TEST(SimulationTest, ReachesDestinationOnFreeRoad) {
  SimConfig config = SmallConfig();
  config.spawn.density_veh_per_km = 1e-6;  // effectively empty road
  Simulation sim(config, 1);
  EpisodeStatus status = EpisodeStatus::kRunning;
  int steps = 0;
  while (status == EpisodeStatus::kRunning && steps < 1000) {
    status = sim.Step(Maneuver{LaneChange::kKeep, 3.0});
    ++steps;
  }
  EXPECT_EQ(status, EpisodeStatus::kReachedDestination);
  EXPECT_GE(sim.ego_state().lon_m, config.road.length_m);
}

TEST(SimulationTest, RearEndCollisionDetected) {
  SimConfig config = SmallConfig();
  Simulation sim(config, 7);
  // Full throttle, no lane change: with traffic ahead capped at ~24 m/s and
  // the ego at 25 m/s max, the ego eventually rear-ends someone.
  EpisodeStatus status = EpisodeStatus::kRunning;
  int steps = 0;
  while (status == EpisodeStatus::kRunning && steps < 2000) {
    status = sim.Step(Maneuver{LaneChange::kKeep, 3.0});
    ++steps;
  }
  // Either crashed into the leader or (rarely) threaded through to the end.
  EXPECT_NE(status, EpisodeStatus::kRunning);
}

TEST(SimulationTest, ConventionalVehiclesStayWithinSpeedLimits) {
  Simulation sim(SmallConfig(), 13);
  for (int i = 0; i < 50; ++i) {
    sim.Step(Maneuver{LaneChange::kKeep, 0.0});
    for (const Vehicle& v : sim.conventional_vehicles()) {
      EXPECT_GE(v.state.v_mps, -1e-9);
      EXPECT_LE(v.state.v_mps, sim.config().road.v_max_mps + 1e-9);
      EXPECT_TRUE(sim.config().road.IsValidLane(v.state.lane));
    }
    if (sim.status() != EpisodeStatus::kRunning) break;
  }
}

TEST(SimulationTest, ConventionalVehiclesDoNotCollide) {
  Simulation sim(SmallConfig(), 21);
  for (int i = 0; i < 120 && sim.status() == EpisodeStatus::kRunning; ++i) {
    sim.Step(Maneuver{LaneChange::kKeep, -1.0});
    const auto& fleet = sim.conventional_vehicles();
    const RoadView view = sim.View();
    const auto& sorted = view.vehicles();
    for (size_t k = 1; k < sorted.size(); ++k) {
      if (sorted[k].state.lane != sorted[k - 1].state.lane) continue;
      if (sorted[k].id == kEgoVehicleId || sorted[k - 1].id == kEgoVehicleId) {
        continue;
      }
      EXPECT_GT(sorted[k].state.lon_m - sorted[k - 1].state.lon_m,
                kVehicleLengthM * 0.8)
          << "step " << i;
    }
    (void)fleet;
  }
}

TEST(SimulationTest, StepAfterTerminalIsNoOp) {
  SimConfig config = SmallConfig();
  Simulation sim(config, 5);
  while (sim.Step(Maneuver{LaneChange::kLeft, 0.0}) ==
         EpisodeStatus::kRunning) {
  }
  const VehicleState frozen = sim.ego_state();
  const int steps = sim.step_count();
  sim.Step(Maneuver{LaneChange::kKeep, 3.0});
  EXPECT_EQ(sim.ego_state(), frozen);
  EXPECT_EQ(sim.step_count(), steps);
}

TEST(SimulationTest, TimeoutTerminates) {
  SimConfig config = SmallConfig();
  config.max_steps = 5;
  config.spawn.density_veh_per_km = 1e-6;
  Simulation sim(config, 2);
  EpisodeStatus status = EpisodeStatus::kRunning;
  for (int i = 0; i < 10 && status == EpisodeStatus::kRunning; ++i) {
    status = sim.Step(Maneuver{LaneChange::kKeep, -3.0});
  }
  EXPECT_EQ(status, EpisodeStatus::kTimeout);
}

TEST(SimulationTest, EgoNeighborMatchesRoadViewOverPaperRollout) {
  // EgoNeighbor's linear pass must find the vehicle the sorted RoadView
  // finds, on every step of a 500-step paper-highway rollout with random
  // ego maneuvers (episodes restart on a new seed when they end).
  Simulation sim(PaperHighwayScenario(), 42);
  Rng rng(7);
  uint64_t seed = 42;
  int compared = 0, leaders = 0, followers = 0;
  for (int step = 0; step < 500; ++step) {
    const RoadView view = sim.View();
    const VehicleState& ego = sim.ego_state();
    for (const bool front : {true, false}) {
      const VehicleSnapshot* want =
          front ? view.Leader(ego.lane, ego.lon_m, kEgoVehicleId)
                : view.Follower(ego.lane, ego.lon_m, kEgoVehicleId);
      const Vehicle* got = sim.EgoNeighbor(front);
      ASSERT_EQ(got == nullptr, want == nullptr)
          << "step " << step << " front=" << front;
      if (got != nullptr) {
        ASSERT_EQ(got->id, want->id) << "step " << step << " front=" << front;
        (front ? leaders : followers) += 1;
      }
      ++compared;
    }
    const LaneChange change = rng.Bernoulli(0.1)
                                  ? (rng.Bernoulli(0.5) ? LaneChange::kLeft
                                                        : LaneChange::kRight)
                                  : LaneChange::kKeep;
    if (sim.Step(Maneuver{change, rng.Uniform(-2.0, 2.0)}) !=
        EpisodeStatus::kRunning) {
      sim.Reset(++seed);
    }
  }
  EXPECT_EQ(compared, 1000);
  // Both queries must have been exercised with a vehicle present.
  EXPECT_GT(leaders, 250);
  EXPECT_GT(followers, 250);
}

// FNV-1a over the bit patterns of everything a rollout step produces.
class RolloutDigest {
 public:
  void Add(uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (x >> (8 * b)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void Add(double x) { Add(std::bit_cast<uint64_t>(x)); }
  void Add(int x) { Add(static_cast<uint64_t>(static_cast<int64_t>(x))); }
  void Add(const VehicleState& s) {
    Add(s.lane);
    Add(s.lon_m);
    Add(s.v_mps);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

// Digest of a seeded `steps`-step rollout: per step the sensor's output ids
// in order, the View() order, the status, the ego and every conventional
// vehicle's state, and the applied accelerations. The ego follows a seeded
// random policy (lane changes, including off the road, and accelerations);
// episodes restart on a new seed when they end.
uint64_t DigestRollout(const SimConfig& config, uint64_t seed, int steps) {
  Simulation sim(config, seed);
  Rng policy(seed ^ 0x9e3779b97f4a7c15ull);
  RolloutDigest digest;
  int episodes = 1;
  for (int step = 0; step < steps; ++step) {
    for (const VehicleSnapshot& v :
         sensor::Observe(sim.GlobalSnapshot(), sim.ego_state(),
                         sensor::SensorConfig{}, config.road)) {
      digest.Add(static_cast<uint64_t>(v.id));
    }
    const RoadView view = sim.View();
    for (const VehicleSnapshot& v : view.vehicles()) {
      digest.Add(static_cast<uint64_t>(v.id));
    }
    const LaneChange change = policy.Bernoulli(0.2)
                                  ? (policy.Bernoulli(0.5) ? LaneChange::kLeft
                                                           : LaneChange::kRight)
                                  : LaneChange::kKeep;
    const EpisodeStatus status =
        sim.Step(Maneuver{change, policy.Uniform(-3.0, 3.0)});
    digest.Add(static_cast<int>(status));
    digest.Add(sim.ego_state());
    for (const Vehicle& v : sim.conventional_vehicles()) {
      digest.Add(static_cast<uint64_t>(v.id));
      digest.Add(v.state);
    }
    for (const double a : sim.last_conventional_accels()) digest.Add(a);
    if (status != EpisodeStatus::kRunning) {
      sim.Reset(seed + episodes++);
    }
  }
  EXPECT_GT(episodes, 2) << "the policy should end several episodes";
  return digest.value();
}

TEST(SimulationTest, RolloutDigestMatchesParent) {
  // The constants were recorded before the lane-sorted fleet index, the
  // adjacency neighbour search and the cached IDM free-road term replaced
  // the per-step RoadView sorts and binary searches, and before the
  // sensor's blocker prefilter: those changes must leave every bit of the
  // trajectories and observations unchanged.
  SimConfig no_lane_changes = PaperHighwayScenario();
  no_lane_changes.conventional_lane_changes = false;
  EXPECT_EQ(DigestRollout(PaperHighwayScenario(), 11, 300), 0x4cb438f6c0a5fe6eull);
  EXPECT_EQ(DigestRollout(no_lane_changes, 12, 300), 0x29bd8fa3c1c6b6b6ull);
  EXPECT_EQ(DigestRollout(BottleneckScenario(), 13, 400), 0x03a69e67bd9ee597ull);
  EXPECT_EQ(DigestRollout(StopAndGoScenario(), 14, 400), 0x7f3f7c7f2da9cc7dull);
  EXPECT_EQ(DigestRollout(DenseTrafficScenario(), 15, 400), 0xe73a67dd6af6261full);
}

}  // namespace
}  // namespace head::sim
