#include "core/path_allocation.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/fixtures.hpp"
#include "topo/fattree.hpp"

namespace taps::core {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;
using test::make_fig3_topology;

TEST(SortEdfSjf, OrdersByDeadlineThenSize) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0, {flow(d.left[0], d.right[0], 2.0)});  // flow 0
  add_task(net, 0.0, 2.0, {flow(d.left[1], d.right[1], 5.0)});  // flow 1
  add_task(net, 0.0, 2.0, {flow(d.left[2], d.right[2], 1.0)});  // flow 2
  std::vector<net::FlowId> order{0, 1, 2};
  sort_edf_sjf(net, order);
  EXPECT_EQ(order, (std::vector<net::FlowId>{2, 1, 0}));  // d2/s1, d2/s5, d4
}

TEST(PlanOneFlow, PicksEarliestCompletionPath) {
  // Fig. 3 topology: two hops differ; here just verify the planner avoids a
  // busy path segment by choosing slices after it.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 2.0)});

  OccupancyMap occ(net.graph().link_count());
  const PlanConfig config{};
  const FlowPlan plan = plan_one_flow(net, occ, 0, 0.0, config);
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.completion, 2.0);
  EXPECT_TRUE(topo::is_valid_path(net.graph(), plan.path, d.left[0], d.right[0]));
  EXPECT_NEAR(plan.slices.measure(), 2.0, 1e-12);
}

TEST(PlanOneFlow, InfeasibleWhenDeadlineTooTight) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 1.0, {flow(d.left[0], d.right[0], 2.0)});
  OccupancyMap occ(net.graph().link_count());
  const FlowPlan plan = plan_one_flow(net, occ, 0, 0.0, PlanConfig{});
  EXPECT_FALSE(plan.feasible);
}

TEST(PlanOneFlow, MultipathRoutesAroundBusyArm) {
  // Partial fat-tree style diamond via the Fig. 3 topology: flow 1->4 can
  // take S1-S5-S4 only; instead use dumbbell variant with two arms:
  topo::Graph g;
  const auto a = g.add_node(topo::NodeKind::kHost, "a");
  const auto b = g.add_node(topo::NodeKind::kHost, "b");
  const auto x = g.add_node(topo::NodeKind::kTor, "x");
  const auto y = g.add_node(topo::NodeKind::kTor, "y");
  g.add_duplex_link(a, x, 1.0);
  g.add_duplex_link(a, y, 1.0);
  g.add_duplex_link(x, b, 1.0);
  g.add_duplex_link(y, b, 1.0);
  topo::GenericTopology topo(std::move(g), {a, b}, "diamond");
  net::Network net(topo);
  add_task(net, 0.0, 10.0, {flow(a, b, 2.0)});

  OccupancyMap occ(net.graph().link_count());
  // Make the x arm busy [0,5): planner should route via y and finish at 2.
  const auto x_link = topo.graph().link_between(x, b);
  util::IntervalSet busy;
  busy.insert(0.0, 5.0);
  topo::Path px;
  px.links = {x_link};
  occ.occupy(px, busy);

  const FlowPlan plan = plan_one_flow(net, occ, 0, 0.0, PlanConfig{});
  ASSERT_TRUE(plan.feasible);
  EXPECT_DOUBLE_EQ(plan.completion, 2.0);
  // The chosen path must not include the busy x->b link.
  for (const topo::LinkId lid : plan.path.links) EXPECT_NE(lid, x_link);
}

// A PlanScratch lives across a planning domain's whole run, while its race
// state (prefix unions, per-link lower bounds) is valid for one
// plan_one_flow call only. Three flows on the same k=4 fat-tree endpoints
// (four candidates sharing both host links) are planned through one scratch,
// committing each plan before the next; every plan must equal a
// scratch-less one bitwise. Planning at an earlier `now` after a commit
// catches a stale lower bound (it would wrongly prune every candidate as
// past the deadline); planning at a later one catches a stale prefix union
// (the host links would look idle on the other aggregation group).
TEST(PlanOneFlow, ReusedScratchMatchesFreshAcrossMutations) {
  topo::FatTree ft(topo::FatTreeConfig{4, 1.0});
  net::Network net(ft);
  const topo::NodeId src = ft.host(0, 0, 0);
  const topo::NodeId dst = ft.host(1, 0, 0);
  add_task(net, 0.0, 10.0, {flow(src, dst, 1.0)});  // flow 0
  add_task(net, 0.0, 1.5, {flow(src, dst, 1.0)});   // flow 1: fits only before flow 0
  add_task(net, 0.0, 10.0, {flow(src, dst, 1.0)});  // flow 2
  ASSERT_EQ(ft.paths(src, dst, PlanConfig{}.max_paths).size(), 4u);

  OccupancyMap occ(net.graph().link_count());
  PlanScratch scratch;
  const std::pair<net::FlowId, double> steps[] = {{0, 1.0}, {1, 0.0}, {2, 0.5}};
  for (const auto& [fid, now] : steps) {
    const FlowPlan reused = plan_one_flow(net, occ, fid, now, PlanConfig{}, &scratch);
    const FlowPlan fresh = plan_one_flow(net, occ, fid, now, PlanConfig{});
    ASSERT_TRUE(fresh.feasible) << "flow " << fid;
    EXPECT_EQ(reused.feasible, fresh.feasible) << "flow " << fid;
    EXPECT_EQ(reused.path.links, fresh.path.links) << "flow " << fid;
    EXPECT_EQ(reused.slices, fresh.slices) << "flow " << fid;
    EXPECT_EQ(reused.completion, fresh.completion) << "flow " << fid;
    occ.occupy(fresh.path, fresh.slices);
  }
}

TEST(PlanFlows, CommitsOccupancyBetweenFlows) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 2.0)});
  add_task(net, 0.0, 10.0, {flow(d.left[1], d.right[1], 3.0)});
  OccupancyMap occ(net.graph().link_count());
  std::vector<net::FlowId> order{0, 1};
  const auto plans = plan_flows(net, occ, order, 0.0, PlanConfig{});
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_DOUBLE_EQ(plans[0].completion, 2.0);
  EXPECT_DOUBLE_EQ(plans[1].completion, 5.0);  // serialized on the bottleneck
  EXPECT_TRUE(plans[1].slices.intersect(plans[0].slices).empty());
}

TEST(PlanFlows, InfeasibleFlowOccupiesNothing) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 2.0, {flow(d.left[0], d.right[0], 2.0)});
  add_task(net, 0.0, 2.0, {flow(d.left[1], d.right[1], 2.0)});  // cannot fit
  OccupancyMap occ(net.graph().link_count());
  std::vector<net::FlowId> order{0, 1};
  const auto plans = plan_flows(net, occ, order, 0.0, PlanConfig{});
  EXPECT_TRUE(plans[0].feasible);
  EXPECT_FALSE(plans[1].feasible);
  // The bottleneck carries only flow 0's two units.
  const auto bottleneck = net.graph().link_between(1, 0) != topo::kInvalidLink
                              ? net.graph().link_between(0, 1)
                              : 0;
  (void)bottleneck;
  double total = 0.0;
  for (const auto& l : net.graph().links()) total += occ.link(l.id).measure();
  // flow 0 occupies its 3 path links for 2 units each.
  EXPECT_NEAR(total, 6.0, 1e-9);
}

// Paper Fig. 3: global slice scheduling completes all four flows, including
// f4's split allocation (0,1) & (2,3).
TEST(PlanFlows, Fig3GlobalScheduleFitsAllFour) {
  auto t = make_fig3_topology();
  net::Network net(*t.topology);
  add_task(net, 0.0, 1.0, {flow(t.h1, t.h2, 1.0)});  // f1
  add_task(net, 0.0, 2.0, {flow(t.h1, t.h4, 1.0)});  // f2
  add_task(net, 0.0, 2.0, {flow(t.h3, t.h2, 1.0)});  // f3
  add_task(net, 0.0, 3.0, {flow(t.h3, t.h4, 2.0)});  // f4

  OccupancyMap occ(net.graph().link_count());
  std::vector<net::FlowId> order{0, 1, 2, 3};
  sort_edf_sjf(net, order);
  const auto plans = plan_flows(net, occ, order, 0.0, PlanConfig{});

  for (const auto& p : plans) {
    EXPECT_TRUE(p.feasible) << "flow " << p.flow;
    EXPECT_LE(p.completion, net.flow(p.flow).spec.deadline + 1e-9);
  }
  // f4 (flow id 3) is the split allocation: (0,1) and (2,3), as in Fig. 3(b).
  const FlowPlan* f4 = nullptr;
  for (const auto& p : plans) {
    if (p.flow == 3) f4 = &p;
  }
  ASSERT_NE(f4, nullptr);
  ASSERT_EQ(f4->slices.size(), 2u);
  EXPECT_EQ(f4->slices.intervals()[0], (util::Interval{0.0, 1.0}));
  EXPECT_EQ(f4->slices.intervals()[1], (util::Interval{2.0, 3.0}));
  EXPECT_DOUBLE_EQ(f4->completion, 3.0);
}

}  // namespace
}  // namespace taps::core
