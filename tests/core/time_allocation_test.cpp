#include "core/time_allocation.hpp"

#include <gtest/gtest.h>

#include "oracle/full_replan.hpp"

namespace taps::core {
namespace {

topo::Path path_of(std::initializer_list<topo::LinkId> ids) {
  topo::Path p;
  p.links = ids;
  return p;
}

TEST(TimeAllocation, IdlePathStartsImmediately) {
  const OccupancyMap occ(3);
  const TimeAllocation a = allocate_time(occ, path_of({0, 1}), 1.0, 2.0, 10.0);
  ASSERT_TRUE(a.feasible());
  EXPECT_DOUBLE_EQ(a.completion, 3.0);
  ASSERT_EQ(a.slices.size(), 1u);
  EXPECT_EQ(a.slices.intervals()[0], (util::Interval{1.0, 3.0}));
}

TEST(TimeAllocation, AvoidsBusyTimeOnAnyLink) {
  OccupancyMap occ(3);
  // Link 0 busy [0,1), link 1 busy [2,3): union blocks both windows.
  {
    util::IntervalSet s;
    s.insert(0.0, 1.0);
    topo::Path p0;
    p0.links = {0};
    occ.occupy(p0, s);
  }
  {
    util::IntervalSet s;
    s.insert(2.0, 3.0);
    topo::Path p1;
    p1.links = {1};
    occ.occupy(p1, s);
  }
  const TimeAllocation a = allocate_time(occ, path_of({0, 1}), 0.0, 2.0, 10.0);
  ASSERT_TRUE(a.feasible());
  ASSERT_EQ(a.slices.size(), 2u);
  EXPECT_EQ(a.slices.intervals()[0], (util::Interval{1.0, 2.0}));
  EXPECT_EQ(a.slices.intervals()[1], (util::Interval{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.completion, 4.0);
}

TEST(TimeAllocation, InfeasibleBeforeHorizon) {
  OccupancyMap occ(1);
  util::IntervalSet s;
  s.insert(0.0, 3.0);
  topo::Path p0;
  p0.links = {0};
  occ.occupy(p0, s);
  // Deadline 4 leaves one idle unit; two units cannot fit.
  const TimeAllocation a = allocate_time(occ, path_of({0}), 0.0, 2.0, 4.0);
  EXPECT_FALSE(a.feasible());
}

TEST(TimeAllocation, ExactFitAtHorizon) {
  OccupancyMap occ(1);
  const TimeAllocation a = allocate_time(occ, path_of({0}), 0.0, 4.0, 4.0);
  ASSERT_TRUE(a.feasible());
  EXPECT_DOUBLE_EQ(a.completion, 4.0);
}

TEST(TimeAllocation, GapSliceEndsAtTheNextBusyStart) {
  // From a k=4 fat-tree run with every task arriving at t=0: the gap before
  // the busy interval at b is [0.001, b), and 0.001 + (b - 0.001) rounds to
  // b + 1 ulp. The slice must stop at b, not overlap the busy interval.
  constexpr double kBusyStart = 0.015561971433875737;
  ASSERT_GT(0.001 + (kBusyStart - 0.001), kBusyStart);
  OccupancyMap occ(1);
  util::IntervalSet busy;
  busy.insert(0.0, 0.001);
  busy.insert(kBusyStart, 0.02);
  occ.occupy(path_of({0}), busy);

  const TimeAllocation a = allocate_time(occ, path_of({0}), 0.0, 0.01556, 1.0);
  ASSERT_TRUE(a.feasible());
  ASSERT_EQ(a.slices.size(), 2u);
  EXPECT_EQ(a.slices.intervals()[0], (util::Interval{0.001, kBusyStart}));
  EXPECT_FALSE(occ.collides(path_of({0}), a.slices));
  const TimeAllocation ref = oracle::allocate_time_reference(occ, path_of({0}), 0.0, 0.01556, 1.0);
  EXPECT_EQ(ref.slices, a.slices);
  EXPECT_EQ(ref.completion, a.completion);
}

TEST(TimeAllocation, HorizonSliceEndsAtTheHorizon) {
  // The same rounding at the horizon: 0.001 + (h - 0.001) is h + 1 ulp.
  constexpr double kHorizon = 0.015561971433875737;
  ASSERT_GT(0.001 + (kHorizon - 0.001), kHorizon);
  const OccupancyMap occ(1);
  const double duration = kHorizon - 0.001;
  const TimeAllocation a = allocate_time(occ, path_of({0}), 0.001, duration, kHorizon);
  ASSERT_TRUE(a.feasible());
  EXPECT_EQ(a.slices.intervals()[0], (util::Interval{0.001, kHorizon}));
  EXPECT_EQ(a.completion, kHorizon);
  const TimeAllocation ref =
      oracle::allocate_time_reference(occ, path_of({0}), 0.001, duration, kHorizon);
  EXPECT_EQ(ref.slices, a.slices);
}

TEST(TimeAllocation, ZeroDurationInfeasible) {
  const OccupancyMap occ(1);
  EXPECT_FALSE(allocate_time(occ, path_of({0}), 0.0, 0.0, 10.0).feasible());
}

TEST(TimeAllocation, HorizonBeforeNowInfeasible) {
  const OccupancyMap occ(1);
  EXPECT_FALSE(allocate_time(occ, path_of({0}), 5.0, 1.0, 4.0).feasible());
}

}  // namespace
}  // namespace taps::core
