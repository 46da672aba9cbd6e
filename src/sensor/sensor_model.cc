#include "sensor/sensor_model.h"

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
  for (const sim::VehicleSnapshot& blocker : others) {
    if (blocker.id == target.id || blocker.id == kEgoVehicleId) continue;
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
  std::vector<sim::VehicleSnapshot> out;
  for (const sim::VehicleSnapshot& v : global_snapshot) {
    if (v.id == kEgoVehicleId) continue;
    if (IsVisible(ego, v, global_snapshot, sensor, road)) out.push_back(v);
  }
  return out;
}

}  // namespace head::sensor
