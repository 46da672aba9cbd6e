#include "sim/road.h"

#include <algorithm>

#include "common/check.h"

namespace head::sim {

RoadView::RoadView(std::vector<VehicleSnapshot> vehicles)
    : sorted_(std::move(vehicles)) {
  std::sort(sorted_.begin(), sorted_.end(), RoadOrderLess);
  IndexLanes();
}

RoadView::RoadView(Presorted, std::vector<VehicleSnapshot> sorted)
    : sorted_(std::move(sorted)) {
  HEAD_DCHECK(std::is_sorted(sorted_.begin(), sorted_.end(), RoadOrderLess));
  IndexLanes();
}

RoadView RoadView::FromSorted(std::vector<VehicleSnapshot> sorted) {
  return RoadView(Presorted{}, std::move(sorted));
}

void RoadView::IndexLanes() {
  int begin = 0;
  for (int i = 1; i <= static_cast<int>(sorted_.size()); ++i) {
    if (i == static_cast<int>(sorted_.size()) ||
        sorted_[i].state.lane != sorted_[begin].state.lane) {
      lane_ranges_.push_back({sorted_[begin].state.lane, {begin, i}});
      begin = i;
    }
  }
}

std::pair<int, int> RoadView::LaneRange(int lane) const {
  for (const auto& [l, range] : lane_ranges_) {
    if (l == lane) return range;
  }
  return {0, 0};
}

const VehicleSnapshot* RoadView::Leader(int lane, double lon_m,
                                        VehicleId exclude_id) const {
  const auto [begin, end] = LaneRange(lane);
  // First vehicle with lon > lon_m.
  int lo = begin;
  int hi = end;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (sorted_[mid].state.lon_m > lon_m) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  for (int i = lo; i < end; ++i) {
    if (sorted_[i].id != exclude_id) return &sorted_[i];
  }
  return nullptr;
}

const VehicleSnapshot* RoadView::Follower(int lane, double lon_m,
                                          VehicleId exclude_id) const {
  const auto [begin, end] = LaneRange(lane);
  int lo = begin;
  int hi = end;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (sorted_[mid].state.lon_m > lon_m) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  for (int i = lo - 1; i >= begin; --i) {
    if (sorted_[i].id != exclude_id) return &sorted_[i];
  }
  return nullptr;
}

const VehicleSnapshot* RoadView::Find(VehicleId id) const {
  for (const VehicleSnapshot& v : sorted_) {
    if (v.id == id) return &v;
  }
  return nullptr;
}

}  // namespace head::sim
