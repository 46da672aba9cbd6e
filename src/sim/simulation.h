// The microscopic traffic simulation engine — the project's SUMO substitute.
// One ego (externally controlled through Step(maneuver), mirroring TraCI) and
// a fleet of conventional vehicles driven by IDM/ACC/Krauss + MOBIL lane
// changes. Advances in Δt ticks; detects ego collisions (vehicle crash or
// road-boundary hit) and arrival at the destination.
#ifndef HEAD_SIM_SIMULATION_H_
#define HEAD_SIM_SIMULATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/recorder.h"
#include "sim/lane_change.h"
#include "sim/road.h"
#include "sim/spawner.h"
#include "sim/vehicle.h"

namespace head::sim {

struct SimConfig {
  RoadConfig road;
  SpawnConfig spawn;
  /// Whether conventional vehicles may change lanes (MOBIL).
  bool conventional_lane_changes = true;
  /// Lane-change cooldown for conventional drivers, in steps.
  int lane_change_cooldown_steps = 4;
  /// Ego initial speed; lane is drawn uniformly at Reset.
  double ego_init_speed_mps = 15.0;
  /// Hard episode cap (steps) as a divergence guard.
  int max_steps = 4000;
  /// Static obstacles added to every episode (lane closures, stalled
  /// vehicles — see sim/scenario.h). Ids are reassigned on Reset.
  std::vector<Vehicle> static_obstacles;
};

enum class EpisodeStatus {
  kRunning,
  kReachedDestination,
  kCollision,
  kTimeout,
};

const char* ToString(EpisodeStatus s);

/// Maps the sim status onto the flight recorder's layer-neutral outcome.
obs::EpisodeEnd ToEpisodeEnd(EpisodeStatus s);

class Simulation {
 public:
  /// Builds and immediately resets to a fresh episode derived from `seed`.
  Simulation(const SimConfig& config, uint64_t seed);

  /// Starts a new episode: fresh fleet, ego at the origin on a random lane.
  void Reset(uint64_t seed);

  const SimConfig& config() const { return config_; }
  EpisodeStatus status() const { return status_; }
  int step_count() const { return step_count_; }
  double time_s() const { return step_count_ * config_.road.dt_s; }

  const VehicleState& ego_state() const { return ego_.state; }
  const std::vector<Vehicle>& conventional_vehicles() const { return fleet_; }

  /// Ground-truth snapshot of every vehicle (ego id 0 included) — what an
  /// oracle would see; the sensor model filters this.
  std::vector<VehicleSnapshot> GlobalSnapshot() const;

  /// Indexed view over GlobalSnapshot(), copied from the lane index in
  /// O(n) without sorting.
  RoadView View() const;

  /// Nearest conventional vehicle in the ego's lane strictly ahead of the
  /// ego (`front`) or at or behind it: what View().Leader / Follower
  /// (ego lane, ego lon, ego id) return, read off the ego's neighbours in
  /// the lane index. nullptr when none.
  const Vehicle* EgoNeighbor(bool front) const;

  /// Advances one Δt with the given ego maneuver. No-op once terminal.
  EpisodeStatus Step(const Maneuver& ego_maneuver);

  /// Acceleration each conventional vehicle applied during the last Step
  /// (parallel to conventional_vehicles()); empty before the first step.
  const std::vector<double>& last_conventional_accels() const {
    return last_accels_;
  }

 private:
  // A slot names a vehicle in the lane index: slot i < fleet_.size() is
  // fleet_[i], slot fleet_.size() is the ego.
  using Slot = uint32_t;
  static constexpr int32_t kNoSlot = -1;

  const Vehicle& SlotVehicle(Slot slot) const {
    return slot < fleet_.size() ? fleet_[slot] : ego_;
  }
  const VehicleState& SlotState(Slot slot) const {
    return SlotVehicle(slot).state;
  }
  // Within a lane the index is ordered by (lon, id), RoadOrderLess without
  // the lane, so that MoveLane finds a slot whose lane already changed.
  bool SlotBefore(Slot a, Slot b) const;
  auto InLaneOrder() const {
    return [this](Slot a, Slot b) { return SlotBefore(a, b); };
  }
  // Re-files `slot`, whose lane changed from `from_lane`, in the index.
  void MoveLane(Slot slot, int from_lane);
  // Index position of `slot` in its lane.
  size_t PositionInLane(Slot slot) const;
  // Leader and follower of run[j] within its own lane (kNoSlot = none).
  struct LanePair {
    int32_t leader = kNoSlot;
    int32_t follower = kNoSlot;
  };
  LanePair OwnLaneNeighbors(const std::vector<Slot>& run, size_t j) const;

  double ConventionalAccel(size_t i);
  void ApplyLaneChanges(const Maneuver& ego_maneuver);
  bool EgoCollided(double ego_prev_lon) const;

  SimConfig config_;
  Rng rng_;
  Vehicle ego_;  // id 0; params unused (externally controlled)
  std::vector<Vehicle> fleet_;
  std::vector<double> last_accels_;
  // The lane index: lanes_[l] holds the slots of every vehicle in lane l,
  // the ego included, ordered by (lon, id). It spans lanes 0 to
  // num_lanes + 1 because the ego may drive one lane off the road. Reset
  // sorts it; Step keeps it in order (lane changes move slots between
  // lanes, one insertion pass per lane follows integration).
  std::vector<std::vector<Slot>> lanes_;
  // Per-step scratch, reused across steps. Per slot: the IDM free-road term
  // under the vehicle's own params and under the generic params, and the
  // leader after lane changes (kNoSlot = none).
  std::vector<double> own_free_;
  std::vector<double> generic_free_;
  std::vector<int32_t> leader_;
  std::vector<double> prev_lons_;  // fleet lons before the step
  std::vector<LaneChangeProposal> proposals_;
  EpisodeStatus status_ = EpisodeStatus::kRunning;
  int step_count_ = 0;
};

}  // namespace head::sim

#endif  // HEAD_SIM_SIMULATION_H_
