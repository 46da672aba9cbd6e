// MOBIL-style lane-change decision (Kesting/Treiber flavor of the LC models
// the paper cites as "LC" [8]): a candidate change must be safe for the new
// follower and must yield a net acceleration advantage weighted by a
// politeness factor.
#ifndef HEAD_SIM_LANE_CHANGE_H_
#define HEAD_SIM_LANE_CHANGE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/road.h"
#include "sim/vehicle.h"

namespace head::sim {

/// Another vehicle as MOBIL weighs it: its state and its IDM free-road term
/// under the generic driver params that stand in for other drivers,
/// IdmFreeTerm(DriverParams{}, state->v_mps).
struct MobilCar {
  const VehicleState* state = nullptr;  ///< nullptr: no such vehicle
  double generic_free_term = 0.0;
};

/// Everything MOBIL reads about one vehicle's surroundings in one snapshot:
/// its own-lane leader and follower, and the leader and follower it would
/// have in the left (index 0, lane − 1) and right (index 1, lane + 1) lane.
/// A leader is the nearest vehicle strictly ahead, a follower the nearest at
/// or behind (RoadView::Leader / Follower with the vehicle itself excluded).
struct MobilNeighbors {
  const VehicleState* cur_leader = nullptr;
  MobilCar old_follower;
  const VehicleState* new_leader[2] = {nullptr, nullptr};
  MobilCar new_follower[2];
};

/// Whether moving `veh` into `target_lane` is safe: positive gaps to the new
/// leader/follower and the new follower not forced below −b_safe.
bool LaneChangeSafe(const RoadView& view, const Vehicle& veh, int target_lane);

/// Full decision (the paper's conventional vehicles are "SUMO-controlled";
/// this reproduces their gap-seeking behavior): the MOBIL incentive of each
/// side is −inf when the lane is invalid or the change unsafe; the better
/// side is taken if its incentive clears the driver's threshold, otherwise
/// nullopt. `self_free_term` is IdmFreeTerm(veh.params, veh.state.v_mps).
std::optional<LaneChange> MobilDecide(const Vehicle& veh,
                                      double self_free_term,
                                      const MobilNeighbors& neighbors,
                                      const RoadConfig& road);

/// MobilDecide with the neighbours found in `view` by binary search.
std::optional<LaneChange> MobilDecide(const RoadView& view, const Vehicle& veh,
                                      const RoadConfig& road);

/// One conventional vehicle's decided change into `target_lane`; `index` is
/// the vehicle's position in the fleet and `lon_m` its position on the road.
struct LaneChangeProposal {
  size_t index;
  int target_lane;
  double lon_m;
};

/// Resolves simultaneous proposals that would merge into the same gap:
/// per target lane the front-most vehicle wins, and a proposal less than
/// two vehicle lengths behind the last accepted one into that lane is
/// dropped. Sorts `proposals` by (target lane, lon descending, index) — a
/// total order, so exact lon ties resolve the same way whatever the sort —
/// and erases the dropped ones.
void ResolveLaneChangeConflicts(std::vector<LaneChangeProposal>& proposals);

}  // namespace head::sim

#endif  // HEAD_SIM_LANE_CHANGE_H_
