// Spatial queries over one time-step snapshot of the road: nearest leader /
// follower per lane. Used by the car-following and lane-change models, the
// sensor, and the decision baselines.
#ifndef HEAD_SIM_ROAD_H_
#define HEAD_SIM_ROAD_H_

#include <optional>
#include <vector>

#include "common/types.h"

namespace head::sim {

/// One vehicle's identity + kinematic state within a snapshot.
struct VehicleSnapshot {
  VehicleId id = kInvalidVehicleId;
  VehicleState state;
};

/// The total order of a road snapshot: by lane, then lon, then id. The id
/// breaks exact lon ties, so every sort of one snapshot agrees.
inline bool RoadOrderLess(const VehicleSnapshot& a, const VehicleSnapshot& b) {
  if (a.state.lane != b.state.lane) return a.state.lane < b.state.lane;
  if (a.state.lon_m != b.state.lon_m) return a.state.lon_m < b.state.lon_m;
  return a.id < b.id;
}

/// Immutable index over a snapshot, sorted by RoadOrderLess for O(log n)
/// leader/follower queries.
class RoadView {
 public:
  explicit RoadView(std::vector<VehicleSnapshot> vehicles);

  /// Wraps a snapshot that is already in RoadOrderLess order, without
  /// sorting it again (checked in debug builds).
  static RoadView FromSorted(std::vector<VehicleSnapshot> sorted);

  /// Nearest vehicle strictly ahead of `lon_m` in `lane` (excluding
  /// `exclude_id`), or nullptr.
  const VehicleSnapshot* Leader(int lane, double lon_m,
                                VehicleId exclude_id = kInvalidVehicleId) const;

  /// Nearest vehicle at or behind `lon_m` in `lane` (excluding `exclude_id`),
  /// or nullptr. A vehicle exactly at `lon_m` counts as follower, matching
  /// the convention that the querying vehicle itself is excluded by id.
  const VehicleSnapshot* Follower(
      int lane, double lon_m, VehicleId exclude_id = kInvalidVehicleId) const;

  /// All vehicles, sorted by (lane, lon, id).
  const std::vector<VehicleSnapshot>& vehicles() const { return sorted_; }

  /// Finds a vehicle by id (linear scan), or nullptr.
  const VehicleSnapshot* Find(VehicleId id) const;

 private:
  struct Presorted {};
  RoadView(Presorted, std::vector<VehicleSnapshot> sorted);
  void IndexLanes();

  std::vector<VehicleSnapshot> sorted_;
  // Index of the first vehicle of each lane in sorted_ (lane -> range).
  std::vector<std::pair<int, std::pair<int, int>>> lane_ranges_;

  std::pair<int, int> LaneRange(int lane) const;
};

/// Bumper-to-bumper gap between a follower at `rear_lon` and a leader at
/// `front_lon`, assuming both have length kVehicleLengthM (negative = overlap).
inline double Gap(double front_lon, double rear_lon) {
  return front_lon - rear_lon - kVehicleLengthM;
}

}  // namespace head::sim

#endif  // HEAD_SIM_ROAD_H_
