#include "sensor/sensor_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sensor/occlusion.h"

namespace head::sensor {

bool IsVisible(const VehicleState& ego, const sim::VehicleSnapshot& target,
               const std::vector<sim::VehicleSnapshot>& others,
               const SensorConfig& sensor, const RoadConfig& road) {
  const double dx = DLon(target.state, ego);
  const double dy = DLat(target.state, ego, road.lane_width_m);
  if (dx * dx + dy * dy > sensor.range_m * sensor.range_m) return false;
  if (!sensor.model_occlusion) return true;
  // A blocker centred more than a vehicle length outside the sight line's
  // lon span cannot reach it: Occludes() would reject it on its lon slab.
  const double lo = std::min(ego.lon_m, target.state.lon_m) - kVehicleLengthM;
  const double hi = std::max(ego.lon_m, target.state.lon_m) + kVehicleLengthM;
  for (const sim::VehicleSnapshot& blocker : others) {
    if (blocker.id == target.id || blocker.id == kEgoVehicleId) continue;
    if (blocker.state.lon_m < lo || blocker.state.lon_m > hi) continue;
    // Blockers further away than the target along the sight line cannot
    // occlude it; Occludes() handles that through the segment test.
    if (Occludes(ego, target.state, blocker.state, road.lane_width_m)) {
      return false;
    }
  }
  return true;
}

std::vector<sim::VehicleSnapshot> Observe(
    const std::vector<sim::VehicleSnapshot>& global_snapshot,
    const VehicleState& ego, const SensorConfig& sensor,
    const RoadConfig& road) {
  HEAD_SCOPE("sensor.observe");
  static obs::Counter& observations = obs::GetCounter("sensor.observations");
  observations.Add();
  // Only vehicles within R + one vehicle length of the ego along the road
  // can be targets or blockers. A target is within R, and so is its whole
  // sight segment (the range disc is convex); a rectangle the segment
  // crosses has its centre within half a diagonal, < one vehicle length,
  // of a point of the segment. The filter keeps snapshot order, so the
  // output order is that of the snapshot.
  const double reach = sensor.range_m + kVehicleLengthM;
  std::vector<sim::VehicleSnapshot> nearby;
  for (const sim::VehicleSnapshot& v : global_snapshot) {
    if (v.id != kEgoVehicleId && std::fabs(DLon(v.state, ego)) <= reach) {
      nearby.push_back(v);
    }
  }
  std::vector<sim::VehicleSnapshot> out;
  for (const sim::VehicleSnapshot& v : nearby) {
    if (IsVisible(ego, v, nearby, sensor, road)) out.push_back(v);
  }
  return out;
}

}  // namespace head::sensor
