#include "sched/pdq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/fixtures.hpp"
#include "sched/fresh_order_check.hpp"

namespace taps::sched {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;
using test::make_fig3_topology;

TEST(Pdq, Fig1dTwoFlowsNoTasks) {
  // Paper Fig. 1(d) (Early Termination disabled there): EDF+SJF order is
  // f21, f11, f22, f12; each runs alone at full rate; f21 and f11 finish,
  // f22 and f12 miss -> 2 flows, 0 tasks.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0,
           {flow(d.left[0], d.right[0], 2.0), flow(d.left[1], d.right[1], 4.0)});
  add_task(net, 0.0, 4.0,
           {flow(d.left[2], d.right[2], 1.0), flow(d.left[3], d.right[3], 3.0)});
  Pdq sched(PdqConfig{.early_termination = false});
  (void)test::run(net, sched);

  EXPECT_EQ(test::completed_flows(net), 2u);
  EXPECT_EQ(net.flows()[2].state, net::FlowState::kCompleted);  // f21 [0,1)
  EXPECT_EQ(net.flows()[0].state, net::FlowState::kCompleted);  // f11 [1,3)
  EXPECT_NEAR(net.flows()[2].completion_time, 1.0, 1e-9);
  EXPECT_NEAR(net.flows()[0].completion_time, 3.0, 1e-9);
  EXPECT_EQ(test::completed_tasks(net), 0u);
}

TEST(Pdq, EarlyTerminationKillsDoomedFlows) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0,
           {flow(d.left[0], d.right[0], 2.0), flow(d.left[1], d.right[1], 4.0)});
  add_task(net, 0.0, 4.0,
           {flow(d.left[2], d.right[2], 1.0), flow(d.left[3], d.right[3], 3.0)});
  Pdq sched;  // ET on by default
  (void)test::run(net, sched);

  // Same completions as Fig. 1(d)...
  EXPECT_EQ(test::completed_flows(net), 2u);
  // ...but the doomed flows are cut off early instead of at their deadline:
  // f12 (4 units) is terminated at t=1 when remaining 4 > time-to-deadline 3,
  // having sent nothing; f22 is terminated at t=3 having sent nothing.
  EXPECT_DOUBLE_EQ(net.flows()[1].bytes_sent, 0.0);
  EXPECT_DOUBLE_EQ(net.flows()[3].bytes_sent, 0.0);
}

TEST(Pdq, HighestPriorityRunsAloneAtFullRate) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 3.0)});
  add_task(net, 0.0, 20.0, {flow(d.left[1], d.right[1], 3.0)});
  Pdq sched;
  sched.bind(net);
  sched.on_task_arrival(0, 0.0);
  sched.on_task_arrival(1, 0.0);
  (void)sched.assign_rates(0.0);
  EXPECT_NEAR(net.flows()[0].rate, 1.0, 1e-9);  // earlier deadline wins
  EXPECT_DOUBLE_EQ(net.flows()[1].rate, 0.0);   // paused
}

TEST(Pdq, DisjointPathsRunConcurrently) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 2.0)});
  add_task(net, 0.0, 10.0, {flow(d.left[1], d.left[2], 2.0)});  // rack-local
  Pdq sched;
  (void)test::run(net, sched);
  EXPECT_NEAR(net.flows()[0].completion_time, 2.0, 1e-9);
  EXPECT_NEAR(net.flows()[1].completion_time, 2.0, 1e-9);
}

TEST(Pdq, PreemptionOnUrgentArrival) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 10.0, {flow(d.left[0], d.right[0], 5.0)});
  add_task(net, 1.0, 3.0, {flow(d.left[1], d.right[1], 1.0)});  // tighter
  Pdq sched;
  (void)test::run(net, sched);
  // The late urgent flow preempts: runs [1,2); the early flow resumes and
  // still finishes (5 units with 1 pause -> t=6).
  EXPECT_NEAR(net.flows()[1].completion_time, 2.0, 1e-9);
  EXPECT_NEAR(net.flows()[0].completion_time, 6.0, 1e-9);
  EXPECT_EQ(test::completed_tasks(net), 2u);
}

// Paper Fig. 3: with bounded switch flow lists, PDQ cannot use the idle
// bottleneck links in the first time unit and f4 misses; global scheduling
// (TAPS, tested in core/) completes all four.
TEST(Pdq, Fig3FlowListLimitLosesF4) {
  auto t = make_fig3_topology();
  net::Network net(*t.topology);
  add_task(net, 0.0, 1.0, {flow(t.h1, t.h2, 1.0)});  // f1
  add_task(net, 0.0, 2.0, {flow(t.h1, t.h4, 1.0)});  // f2
  add_task(net, 0.0, 2.0, {flow(t.h3, t.h2, 1.0)});  // f3
  add_task(net, 0.0, 3.0, {flow(t.h3, t.h4, 2.0)});  // f4
  Pdq sched(PdqConfig{.early_termination = true, .flow_list_limit = 2});
  (void)test::run(net, sched);

  EXPECT_EQ(net.flows()[0].state, net::FlowState::kCompleted);
  EXPECT_EQ(net.flows()[1].state, net::FlowState::kCompleted);
  EXPECT_EQ(net.flows()[2].state, net::FlowState::kCompleted);
  EXPECT_EQ(net.flows()[3].state, net::FlowState::kMissed);  // the paper's f4
  EXPECT_NEAR(net.flows()[2].completion_time, 2.0, 1e-9);    // f3 runs [1,2)
}

TEST(Pdq, Fig3UnlimitedListCompletesAll) {
  // Idealized PDQ (no switch list bound) can actually fit all four flows —
  // the Fig. 3 failure is specifically the bounded-flow-list artifact.
  auto t = make_fig3_topology();
  net::Network net(*t.topology);
  add_task(net, 0.0, 1.0, {flow(t.h1, t.h2, 1.0)});
  add_task(net, 0.0, 2.0, {flow(t.h1, t.h4, 1.0)});
  add_task(net, 0.0, 2.0, {flow(t.h3, t.h2, 1.0)});
  add_task(net, 0.0, 3.0, {flow(t.h3, t.h4, 2.0)});
  Pdq sched;
  (void)test::run(net, sched);
  EXPECT_EQ(test::completed_flows(net), 4u);
}

// The carried EDF+SJF order must rank exactly like a fresh sort on every
// call: random fat-tree tasks, early termination on, with and without a
// switch flow-list limit.
Pdq::Key fresh_pdq_key(const net::Network& net, net::FlowId id) {
  const net::Flow& f = net.flow(id);
  return Pdq::Key{.deadline = f.spec.deadline, .remaining = f.remaining, .id = id};
}

void expect_fresh_order_rates(const PdqConfig& config, std::uint64_t seed) {
  const topo::FatTree ft(topo::FatTreeConfig{4, 1.0});
  net::Network net(ft);
  test::add_random_tasks(net, ft, seed, 60);
  Pdq pdq(config);
  test::FreshOrderCheck checked(pdq, fresh_pdq_key, config.flow_list_limit);
  (void)test::run(net, checked);
  EXPECT_GT(checked.checks(), 50u);
  EXPECT_GT(checked.paused(), 0u);
  // Early termination fired: some flows were cut before their deadline.
  EXPECT_GT(std::count_if(net.flows().begin(), net.flows().end(),
                          [](const net::Flow& f) { return f.state == net::FlowState::kMissed; }),
            0);
}

TEST(Pdq, CarriedOrderRanksLikeAFreshSort) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) expect_fresh_order_rates(PdqConfig{}, seed);
}

TEST(Pdq, CarriedOrderRanksLikeAFreshSortWithAFlowListLimit) {
  for (const std::uint64_t seed : {4u, 5u, 6u}) {
    expect_fresh_order_rates(PdqConfig{.early_termination = true, .flow_list_limit = 2}, seed);
  }
}

TEST(Pdq, EarlyTerminationMissesLeaveTheCarriedOrder) {
  // Flow 1 (deadline 3.5, 3 units) cannot finish even alone once flow 0
  // (deadline 1) has held the link for a unit: early termination marks it
  // missed inside assign_rates, and the next flow in line takes the link.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 1.0, {flow(d.left[0], d.right[0], 1.0)});
  add_task(net, 0.0, 3.5, {flow(d.left[1], d.right[1], 3.0)});
  add_task(net, 0.0, 9.0, {flow(d.left[2], d.right[2], 2.0)});
  Pdq pdq;
  test::FreshOrderCheck checked(pdq, fresh_pdq_key);
  checked.bind(net);
  for (net::TaskId t = 0; t < 3; ++t) checked.on_task_arrival(t, 0.0);
  (void)checked.assign_rates(0.0);
  EXPECT_EQ(net.flows()[0].rate, 1.0);

  // One unit later flow 0 is done and flow 1 has 3 units left for 2.5.
  net.on_flow_completed(0, 1.0);
  checked.on_flow_finished(0, 1.0);
  (void)checked.assign_rates(1.0);
  EXPECT_EQ(net.flows()[1].state, net::FlowState::kMissed);
  EXPECT_EQ(net.flows()[2].rate, 1.0);
  EXPECT_EQ(checked.checks(), 2u);
}

}  // namespace
}  // namespace taps::sched
