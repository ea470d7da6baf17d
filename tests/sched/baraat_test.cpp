#include "sched/baraat.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/fixtures.hpp"
#include "sched/fresh_order_check.hpp"

namespace taps::sched {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;

// Paper Fig. 2(a): t1: two unit flows, deadline 4; t2: two unit flows,
// deadline 2. All arrive together.
struct Fig2 {
  test::Dumbbell d = make_dumbbell();
  net::Network net{*d.topology};
  Fig2() {
    add_task(net, 0.0, 4.0,
             {flow(d.left[0], d.right[0], 1.0), flow(d.left[1], d.right[1], 1.0)});
    add_task(net, 0.0, 2.0,
             {flow(d.left[2], d.right[2], 1.0), flow(d.left[3], d.right[3], 1.0)});
  }
};

TEST(Baraat, Fig2bUrgentLateTaskStarves) {
  // FIFO task serialization: t1 (arrived first by id) monopolizes the
  // bottleneck until t=2; t2's deadline is 2, so t2 fails entirely.
  // (The paper's Fig. 2(b) prose says Baraat "fails all the tasks", but t1 —
  // two unit flows against deadline 4 — mathematically completes by t=2;
  // see EXPERIMENTS.md. The essential claim holds: the urgent task dies.)
  Fig2 s;
  Baraat sched;
  (void)test::run(s.net, sched);

  EXPECT_EQ(s.net.tasks()[0].state, net::TaskState::kCompleted);
  EXPECT_EQ(s.net.tasks()[1].state, net::TaskState::kFailed);
  EXPECT_EQ(s.net.flows()[2].state, net::FlowState::kMissed);
  EXPECT_EQ(s.net.flows()[3].state, net::FlowState::kMissed);
}

TEST(Baraat, TaskFifoOrderBeatsDeadlines) {
  // Deadline-agnostic: even an impossibly tight later task never preempts.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 100.0, {flow(d.left[0], d.right[0], 5.0)});
  add_task(net, 1.0, 2.5, {flow(d.left[1], d.right[1], 1.0)});
  Baraat sched;
  (void)test::run(net, sched);
  EXPECT_EQ(net.flows()[1].state, net::FlowState::kMissed);
  EXPECT_EQ(net.tasks()[0].state, net::TaskState::kCompleted);
}

TEST(Baraat, SjfInsideTask) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 100.0,
           {flow(d.left[0], d.right[0], 3.0), flow(d.left[1], d.right[1], 1.0)});
  Baraat sched;
  (void)test::run(net, sched);
  // Smaller flow first: completes at 1; larger at 4.
  EXPECT_NEAR(net.flows()[1].completion_time, 1.0, 1e-9);
  EXPECT_NEAR(net.flows()[0].completion_time, 4.0, 1e-9);
}

TEST(Baraat, WastesBandwidthOnDoomedFlows) {
  // No deadline awareness: a flow that cannot finish still transmits until
  // its deadline passes (the waste Fig. 8 charges to Baraat).
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 2.0, {flow(d.left[0], d.right[0], 10.0)});
  Baraat sched;
  (void)test::run(net, sched);
  const auto& f = net.flows()[0];
  EXPECT_EQ(f.state, net::FlowState::kMissed);
  EXPECT_NEAR(f.bytes_sent, 2.0, 1e-9);  // transmitted right up to deadline
}

TEST(Baraat, SecondTaskUsesDisjointLinks) {
  // Task serialization is per-link, not global: flows of a later task run
  // immediately when they do not collide with the head task.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 100.0, {flow(d.left[0], d.right[0], 4.0)});
  add_task(net, 0.0, 100.0, {flow(d.left[1], d.left[2], 2.0)});  // rack-local
  Baraat sched;
  (void)test::run(net, sched);
  EXPECT_NEAR(net.flows()[1].completion_time, 2.0, 1e-9);
}

// The carried task-FIFO+SJF order must rank exactly like a fresh sort on
// every call, with tasks growing later waves (Network::extend_task) whose
// flow ids the scheduler has not seen yet.
Baraat::Key fresh_baraat_key(const net::Network& net, net::FlowId id) {
  const net::Flow& f = net.flow(id);
  return Baraat::Key{.task_arrival = net.task(f.task()).spec.arrival,
                     .remaining = f.remaining,
                     .task = f.task(),
                     .id = id};
}

TEST(Baraat, CarriedOrderRanksLikeAFreshSort) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const topo::FatTree ft(topo::FatTreeConfig{4, 1.0});
    net::Network net(ft);
    test::add_random_tasks(net, ft, seed, 40);
    // Every fourth task sends a second wave a little after it arrived.
    const std::size_t first_waves = net.tasks().size();
    for (std::size_t t = 0; t < first_waves; t += 4) {
      const net::Task& task = net.tasks()[t];
      const net::Flow& head = net.flow(task.spec.flows.front());
      const std::vector<net::FlowSpec> wave{flow(head.spec.dst, head.spec.src, 0.02),
                                            flow(head.spec.src, head.spec.dst, 0.01)};
      net.extend_task(task.id(), task.spec.arrival + 0.01, wave);
    }
    Baraat baraat;
    test::FreshOrderCheck checked(baraat, fresh_baraat_key);
    (void)test::run(net, checked);
    EXPECT_GT(checked.checks(), 50u);
    EXPECT_GT(checked.paused(), 0u);
  }
}

TEST(Baraat, TaskExtendedMidRunJoinsTheCarriedOrder) {
  // Task 0 runs alone; task 1 waits behind it. At t=1, after the order was
  // carried through two calls, task 0 grows a wave of new flow ids: they
  // rank inside task 0 (its arrival, SJF), ahead of all of task 1.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 100.0, {flow(d.left[0], d.right[0], 4.0)});
  add_task(net, 0.5, 100.0,
           {flow(d.left[1], d.right[1], 1.0), flow(d.left[2], d.right[2], 2.0)});
  Baraat baraat;
  test::FreshOrderCheck checked(baraat, fresh_baraat_key);
  checked.bind(net);
  checked.on_task_arrival(0, 0.0);
  (void)checked.assign_rates(0.0);
  net.flow(0).remaining -= 0.5;  // flow 0 transmits at rate 1 for 0.5
  checked.on_task_arrival(1, 0.5);
  (void)checked.assign_rates(0.5);
  EXPECT_EQ(net.flows()[0].rate, 1.0);
  EXPECT_EQ(net.flows()[1].rate, 0.0);

  net.flow(0).remaining -= 0.5;
  net.extend_task(0, 1.0,
                  std::vector<net::FlowSpec>{flow(d.left[3], d.right[3], 3.5),
                                             flow(d.left[4], d.right[4], 0.5)});
  checked.on_task_arrival(0, 1.0);
  (void)checked.assign_rates(1.0);
  // Task 0's smallest flow (the new 0.5-unit one, id 4) now holds the
  // bottleneck; task 1 still waits.
  EXPECT_EQ(net.flows()[4].rate, 1.0);
  EXPECT_EQ(net.flows()[0].rate, 0.0);
  EXPECT_EQ(net.flows()[1].rate, 0.0);
  EXPECT_EQ(checked.checks(), 3u);
}

}  // namespace
}  // namespace taps::sched
