#include "sim/road.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace head::sim {
namespace {

std::vector<VehicleSnapshot> MakeFleet() {
  return {
      {1, {1, 50.0, 20.0}},  {2, {1, 100.0, 21.0}}, {3, {1, 150.0, 19.0}},
      {4, {2, 80.0, 22.0}},  {5, {2, 120.0, 18.0}}, {6, {3, 60.0, 20.0}},
  };
}

TEST(RoadViewTest, LeaderFindsNearestAhead) {
  RoadView view(MakeFleet());
  const VehicleSnapshot* l = view.Leader(1, 60.0);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->id, 2);
  l = view.Leader(1, 120.0);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->id, 3);
  EXPECT_EQ(view.Leader(1, 150.0), nullptr);  // strictly ahead
  EXPECT_EQ(view.Leader(4, 0.0), nullptr);    // empty lane
}

TEST(RoadViewTest, FollowerFindsNearestBehindOrAt) {
  RoadView view(MakeFleet());
  const VehicleSnapshot* f = view.Follower(1, 120.0);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->id, 2);
  // A vehicle exactly at the query lon counts as follower.
  f = view.Follower(1, 100.0);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->id, 2);
  EXPECT_EQ(view.Follower(1, 40.0), nullptr);
}

TEST(RoadViewTest, ExclusionSkipsSelf) {
  RoadView view(MakeFleet());
  const VehicleSnapshot* f = view.Follower(1, 100.0, /*exclude_id=*/2);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->id, 1);
  const VehicleSnapshot* l = view.Leader(1, 99.0, /*exclude_id=*/2);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->id, 3);
}

TEST(RoadViewTest, FindById) {
  RoadView view(MakeFleet());
  const VehicleSnapshot* v = view.Find(5);
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->state.lon_m, 120.0);
  EXPECT_EQ(view.Find(99), nullptr);
}

TEST(RoadViewTest, VehiclesSortedByLaneThenLon) {
  RoadView view(MakeFleet());
  const auto& v = view.vehicles();
  for (size_t i = 1; i < v.size(); ++i) {
    const bool ordered =
        v[i - 1].state.lane < v[i].state.lane ||
        (v[i - 1].state.lane == v[i].state.lane &&
         v[i - 1].state.lon_m <= v[i].state.lon_m);
    EXPECT_TRUE(ordered);
  }
}

TEST(RoadViewTest, TiedLonOrdersById) {
  // 40 vehicles share lon 50 in lane 2 (enough that std::sort does not
  // fall back to insertion sort), in a shuffled input order; whatever
  // order they arrive in, they sort by id, so Leader finds the smallest id
  // and Follower the largest.
  std::vector<VehicleSnapshot> fleet = {{100, {2, 10.0, 20.0}},
                                        {101, {2, 90.0, 20.0}}};
  for (VehicleId id = 1; id <= 40; ++id) fleet.push_back({id, {2, 50.0, 20.0}});
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(fleet.begin(), fleet.end(), rng.engine());
    const RoadView view(fleet);
    const auto& sorted = view.vehicles();
    ASSERT_EQ(sorted.size(), 42u);
    EXPECT_EQ(sorted.front().id, 100);
    EXPECT_EQ(sorted.back().id, 101);
    for (size_t i = 1; i + 1 < sorted.size(); ++i) {
      EXPECT_EQ(sorted[i].id, static_cast<VehicleId>(i));
    }
    EXPECT_EQ(view.Leader(2, 49.0)->id, 1);
    EXPECT_EQ(view.Follower(2, 50.0)->id, 40);
    EXPECT_EQ(view.Follower(2, 50.0, /*exclude_id=*/40)->id, 39);
    EXPECT_EQ(view.Leader(2, 50.0)->id, 101);
    // A presorted copy indexes the same way.
    const RoadView copy = RoadView::FromSorted(sorted);
    EXPECT_EQ(copy.Leader(2, 49.0)->id, 1);
    EXPECT_EQ(copy.Follower(2, 50.0)->id, 40);
  }
}

TEST(RoadViewTest, EmptyViewIsSafe) {
  RoadView view({});
  EXPECT_EQ(view.Leader(1, 0.0), nullptr);
  EXPECT_EQ(view.Follower(1, 0.0), nullptr);
  EXPECT_EQ(view.Find(1), nullptr);
}

TEST(GapTest, BumperToBumper) {
  // Leader at 100, follower at 90, both 5 m long → 5 m gap.
  EXPECT_DOUBLE_EQ(Gap(100.0, 90.0), 10.0 - kVehicleLengthM);
  EXPECT_LT(Gap(94.0, 90.0), 0.0);  // overlap
}

}  // namespace
}  // namespace head::sim
