// Intelligent Driver Model (Treiber, Hennecke & Helbing, Phys. Rev. E 62,
// 2000 — paper ref [69]). Longitudinal acceleration from own speed, leader
// approach rate and bumper gap.
#ifndef HEAD_SIM_IDM_H_
#define HEAD_SIM_IDM_H_

#include <algorithm>
#include <cmath>

#include "sim/vehicle.h"

namespace head::sim {

/// Free-road term (v / v0)^4 of the IDM. It depends on the driver and its
/// own speed only, so a caller evaluating several gaps for one vehicle
/// computes it once and passes it to the five-argument IdmAccel.
inline double IdmFreeTerm(const DriverParams& p, double v) {
  const double v0 = std::max(p.desired_speed_mps, 0.1);
  return std::pow(v / v0, 4.0);
}

/// Desired (equilibrium-seeking) dynamic gap s*(v, Δv) of the IDM.
inline double IdmDesiredGap(const DriverParams& p, double v, double dv) {
  const double dynamic = v * p.time_headway_s +
                         v * dv / (2.0 * std::sqrt(p.max_accel_mps2 *
                                                   p.comfort_decel_mps2));
  return p.min_gap_m + std::max(0.0, dynamic);
}

/// IDM acceleration with the free-road term `free_term` = IdmFreeTerm(p, v).
inline double IdmAccel(const DriverParams& p, double v, double gap_m,
                       double dv, double free_term) {
  const double gap = std::max(gap_m, 0.1);  // avoid the singularity at 0
  const double s_star = IdmDesiredGap(p, v, dv);
  const double interaction = (s_star / gap) * (s_star / gap);
  return p.max_accel_mps2 * (1.0 - free_term - interaction);
}

/// IDM acceleration.
///  v        — own speed (m/s)
///  gap_m    — bumper-to-bumper gap to leader; pass a large value (e.g. 1e9)
///             when there is no leader
///  dv       — approach rate v − v_leader (positive when closing)
inline double IdmAccel(const DriverParams& p, double v, double gap_m,
                       double dv) {
  return IdmAccel(p, v, gap_m, dv, IdmFreeTerm(p, v));
}

}  // namespace head::sim

#endif  // HEAD_SIM_IDM_H_
