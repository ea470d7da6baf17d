#include "sched/varys.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"

namespace taps::sched {
namespace {

using test::add_task;
using test::flow;
using test::make_dumbbell;

TEST(Varys, Fig2cRejectsLateUrgentTask) {
  // Paper Fig. 2(c): t1 (deadline 4) reserves first; t2's (deadline 2)
  // reservations no longer fit, so the whole of t2 is rejected — Varys's
  // arrival-order sensitivity. One task completes.
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0,
           {flow(d.left[0], d.right[0], 1.0), flow(d.left[1], d.right[1], 1.0)});
  add_task(net, 0.0, 2.0,
           {flow(d.left[2], d.right[2], 1.0), flow(d.left[3], d.right[3], 1.0)});
  Varys sched;
  (void)test::run(net, sched);

  EXPECT_EQ(net.tasks()[0].state, net::TaskState::kCompleted);
  EXPECT_EQ(net.tasks()[1].state, net::TaskState::kRejected);
  // Rejected flows never transmit a byte.
  EXPECT_DOUBLE_EQ(net.flows()[2].bytes_sent, 0.0);
  EXPECT_DOUBLE_EQ(net.flows()[3].bytes_sent, 0.0);
}

TEST(Varys, AdmittedTasksAlwaysMeetDeadlines) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0,
           {flow(d.left[0], d.right[0], 1.0), flow(d.left[1], d.right[1], 1.0)});
  add_task(net, 0.0, 8.0, {flow(d.left[2], d.right[2], 2.0)});
  Varys sched;
  (void)test::run(net, sched);
  for (const auto& t : net.tasks()) {
    if (t.state != net::TaskState::kRejected) {
      EXPECT_EQ(t.state, net::TaskState::kCompleted);
    }
  }
  EXPECT_EQ(test::completed_tasks(net), 2u);
}

TEST(Varys, SpareCapacityAcceleratesCompletion) {
  // Reservation alone (r = 1/4) would finish at the deadline; max-min
  // redistribution of the spare finishes at t=2 as in Fig. 2(c).
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  add_task(net, 0.0, 4.0,
           {flow(d.left[0], d.right[0], 1.0), flow(d.left[1], d.right[1], 1.0)});
  Varys sched;
  (void)test::run(net, sched);
  EXPECT_NEAR(net.flows()[0].completion_time, 2.0, 1e-9);
  EXPECT_NEAR(net.flows()[1].completion_time, 2.0, 1e-9);
}

TEST(Varys, AdmitsWhenReservationsFreeUp) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  // First task reserves the full bottleneck (size 4, deadline 4 -> r=1).
  add_task(net, 0.0, 4.0, {flow(d.left[0], d.right[0], 4.0)});
  // Identical task arriving after the first completes is admitted.
  add_task(net, 5.0, 9.0, {flow(d.left[1], d.right[1], 4.0)});
  Varys sched;
  (void)test::run(net, sched);
  EXPECT_EQ(test::completed_tasks(net), 2u);
}

TEST(Varys, RejectsOverCommittingTaskEvenAlone) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  // Two flows of one task over the same bottleneck, each needing r=0.75.
  add_task(net, 0.0, 4.0,
           {flow(d.left[0], d.right[0], 3.0), flow(d.left[1], d.right[1], 3.0)});
  Varys sched;
  (void)test::run(net, sched);
  EXPECT_EQ(net.tasks()[0].state, net::TaskState::kRejected);
}

TEST(Varys, PastDeadlineTaskRejectedOutright) {
  auto d = make_dumbbell();
  net::Network net(*d.topology);
  net::FlowSpec f = flow(d.left[0], d.right[0], 1.0);
  // No usable time at all: the window is below the scheduler's time
  // tolerance (a zero-length window is rejected by Network::add_task).
  net.add_task(5.0, 5.0 + 1e-12, {&f, 1});
  Varys sched;
  (void)test::run(net, sched);
  EXPECT_EQ(net.tasks()[0].state, net::TaskState::kRejected);
}

TEST(Varys, NoWastedBytesEver) {
  auto d = make_dumbbell(8);
  net::Network net(*d.topology);
  for (int i = 0; i < 8; ++i) {
    add_task(net, 0.1 * i, 0.1 * i + 2.0,
             {flow(d.left[static_cast<std::size_t>(i)],
                   d.right[static_cast<std::size_t>(i)], 1.5)});
  }
  Varys sched;
  (void)test::run(net, sched);
  for (const auto& f : net.flows()) {
    if (f.state != net::FlowState::kCompleted) {
      EXPECT_DOUBLE_EQ(f.bytes_sent, 0.0);
    }
  }
}

}  // namespace
}  // namespace taps::sched
