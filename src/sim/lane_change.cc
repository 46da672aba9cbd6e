#include "sim/lane_change.h"

#include <algorithm>
#include <limits>

#include "sim/idm.h"

namespace head::sim {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Hypothetical IDM acceleration of a vehicle with params `p`, state `s` and
// free-road term `free_term` if its leader were `leader` (nullptr = free
// road).
double AccelWithLeader(const DriverParams& p, const VehicleState& s,
                       double free_term, const VehicleState* leader) {
  if (leader == nullptr) {
    return IdmAccel(p, s.v_mps, 1e9, 0.0, free_term);
  }
  return IdmAccel(p, s.v_mps, Gap(leader->lon_m, s.lon_m),
                  s.v_mps - leader->v_mps, free_term);
}

// Acceleration of `follower` (generic params) with `veh` as its leader.
double FollowerAccelBehind(const VehicleState& veh, const MobilCar& follower) {
  const VehicleState& f = *follower.state;
  return IdmAccel(DriverParams{}, f.v_mps, Gap(veh.lon_m, f.lon_m),
                  f.v_mps - veh.v_mps, follower.generic_free_term);
}

// Safety criterion for one side; on success `*new_follower_after` is the new
// follower's acceleration behind `veh` (unset when there is none).
bool Safe(const Vehicle& veh, const VehicleState* new_leader,
          const MobilCar& new_follower, double* new_follower_after) {
  const VehicleState& s = veh.state;
  if (new_leader != nullptr && Gap(new_leader->lon_m, s.lon_m) < 0.5) {
    return false;
  }
  if (new_follower.state != nullptr) {
    if (Gap(s.lon_m, new_follower.state->lon_m) < 0.5) return false;
    // Deceleration imposed on the new follower must stay above −b_safe.
    // Use generic average driver params for the unknown follower.
    *new_follower_after = FollowerAccelBehind(s, new_follower);
    if (*new_follower_after < -veh.params.safe_decel_mps2) return false;
  }
  return true;
}

const VehicleState* StateOf(const VehicleSnapshot* v) {
  return v == nullptr ? nullptr : &v->state;
}

MobilCar CarOf(const VehicleSnapshot* v) {
  return v == nullptr
             ? MobilCar{}
             : MobilCar{&v->state, IdmFreeTerm(DriverParams{}, v->state.v_mps)};
}

// The neighbours of `veh` in `view`.
MobilNeighbors FindMobilNeighbors(const RoadView& view, const Vehicle& veh) {
  const VehicleState& s = veh.state;
  MobilNeighbors n;
  n.cur_leader = StateOf(view.Leader(s.lane, s.lon_m, veh.id));
  n.old_follower = CarOf(view.Follower(s.lane, s.lon_m, veh.id));
  for (int side = 0; side < 2; ++side) {
    const int lane = s.lane + (side == 0 ? -1 : 1);
    n.new_leader[side] = StateOf(view.Leader(lane, s.lon_m, veh.id));
    n.new_follower[side] = CarOf(view.Follower(lane, s.lon_m, veh.id));
  }
  return n;
}

}  // namespace

bool LaneChangeSafe(const RoadView& view, const Vehicle& veh,
                    int target_lane) {
  const VehicleState& s = veh.state;
  double new_follower_after = 0.0;
  return Safe(veh, StateOf(view.Leader(target_lane, s.lon_m, veh.id)),
              CarOf(view.Follower(target_lane, s.lon_m, veh.id)),
              &new_follower_after);
}

std::optional<LaneChange> MobilDecide(const Vehicle& veh,
                                      double self_free_term,
                                      const MobilNeighbors& n,
                                      const RoadConfig& road) {
  if (veh.lane_change_cooldown > 0) return std::nullopt;
  const VehicleState& s = veh.state;
  bool ok[2];
  double new_follower_after[2] = {0.0, 0.0};
  for (int side = 0; side < 2; ++side) {
    ok[side] = road.IsValidLane(s.lane + (side == 0 ? -1 : 1)) &&
               Safe(veh, n.new_leader[side], n.new_follower[side],
                    &new_follower_after[side]);
  }
  if (!ok[0] && !ok[1]) return std::nullopt;

  // Terms both sides share: own acceleration now, and the old follower's
  // gain from losing `veh` as its leader.
  const double a_self_before =
      AccelWithLeader(veh.params, s, self_free_term, n.cur_leader);
  double old_follower_delta = 0.0;
  if (n.old_follower.state != nullptr) {
    const double before = FollowerAccelBehind(s, n.old_follower);
    const double after =
        AccelWithLeader(DriverParams{}, *n.old_follower.state,
                        n.old_follower.generic_free_term, n.cur_leader);
    old_follower_delta = after - before;
  }

  double incentive[2] = {kNegInf, kNegInf};
  for (int side = 0; side < 2; ++side) {
    if (!ok[side]) continue;
    const double a_self_after =
        AccelWithLeader(veh.params, s, self_free_term, n.new_leader[side]);
    // New follower's loss: it gains `veh` as leader in place of the new
    // leader.
    double follower_delta = 0.0;
    const MobilCar& nf = n.new_follower[side];
    if (nf.state != nullptr) {
      const double before = AccelWithLeader(
          DriverParams{}, *nf.state, nf.generic_free_term, n.new_leader[side]);
      follower_delta += new_follower_after[side] - before;
    }
    if (n.old_follower.state != nullptr) follower_delta += old_follower_delta;
    incentive[side] = (a_self_after - a_self_before) +
                      veh.params.politeness * follower_delta;
  }
  const double best = std::max(incentive[0], incentive[1]);
  if (best <= veh.params.lc_threshold_mps2) return std::nullopt;
  return best == incentive[0] ? LaneChange::kLeft : LaneChange::kRight;
}

std::optional<LaneChange> MobilDecide(const RoadView& view, const Vehicle& veh,
                                      const RoadConfig& road) {
  return MobilDecide(veh, IdmFreeTerm(veh.params, veh.state.v_mps),
                     FindMobilNeighbors(view, veh), road);
}

void ResolveLaneChangeConflicts(std::vector<LaneChangeProposal>& proposals) {
  std::sort(proposals.begin(), proposals.end(),
            [](const LaneChangeProposal& a, const LaneChangeProposal& b) {
              if (a.target_lane != b.target_lane) {
                return a.target_lane < b.target_lane;
              }
              if (a.lon_m != b.lon_m) return a.lon_m > b.lon_m;
              return a.index < b.index;
            });
  constexpr double kConflictGapM = 2.0 * kVehicleLengthM;
  size_t kept = 0;
  for (const LaneChangeProposal& p : proposals) {
    if (kept > 0 && p.target_lane == proposals[kept - 1].target_lane &&
        proposals[kept - 1].lon_m - p.lon_m < kConflictGapM) {
      continue;  // would merge into the slot just taken
    }
    proposals[kept++] = p;
  }
  proposals.resize(kept);
}

}  // namespace head::sim
