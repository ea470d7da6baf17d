// Unit tests for the admission controller service: grant contents, reject
// reasons, preemption reporting, decision agreement with the FluidSimulator
// oracle, sharded cross-pod classification, registry-compaction
// transparency, and the metrics:: surfacing.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/fixtures.hpp"
#include "core/taps_scheduler.hpp"
#include "svc/svc_fixtures.hpp"

namespace taps::test {
namespace {

using svc::AdmissionService;
using svc::Reason;
using svc::ServiceConfig;
using svc::TaskResponse;

TEST(SvcService, AcceptsFeasibleTaskWithDeadlineRespectingGrants) {
  auto d = make_dumbbell();
  AdmissionService service(*d.topology, ServiceConfig{});
  const svc::Seq seq =
      service.submit(task_req(0.0, 10.0, {flow_req(d.left[0], d.right[0], 4.0)}, 7));
  service.pump();
  const auto responses = service.take_responses();
  ASSERT_EQ(responses.size(), 1u);
  const TaskResponse& r = responses.front();
  EXPECT_EQ(r.seq, seq);
  EXPECT_EQ(r.client_tag, 7u);
  ASSERT_TRUE(r.accepted());
  ASSERT_EQ(r.grants.size(), 1u);
  EXPECT_FALSE(r.grants[0].path.empty());
  ASSERT_FALSE(r.grants[0].slices.empty());
  EXPECT_GE(r.grants[0].slices.front_start(), 0.0);
  EXPECT_LE(r.grants[0].slices.back_end(), 10.0);
  EXPECT_NEAR(r.grants[0].slices.measure(), 4.0, 1e-9);  // unit capacity
  EXPECT_EQ(service.audit(), std::nullopt);
  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.responses, 1u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(SvcService, PlannerRejectsInfeasibleTask) {
  auto d = make_dumbbell();
  AdmissionService service(*d.topology, ServiceConfig{});
  // The bottleneck fits 10 units by t=10; the second task cannot.
  (void)service.submit(task_req(0.0, 10.0, {flow_req(d.left[0], d.right[0], 9.0)}));
  (void)service.submit(task_req(1.0, 6.0, {flow_req(d.left[1], d.right[1], 4.0)}));
  service.pump();
  const auto responses = service.take_responses();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].accepted());
  EXPECT_EQ(responses[1].reason, Reason::kPlannerReject);
  EXPECT_TRUE(responses[1].grants.empty());
  EXPECT_EQ(service.audit(), std::nullopt);
}

TEST(SvcService, PreemptionReportsVictimSeq) {
  auto d = make_dumbbell();
  ServiceConfig config;
  config.shard.taps.preempt_policy = core::PreemptPolicy::kSchedulable;
  AdmissionService service(*d.topology, config);
  const svc::Seq hog =
      service.submit(task_req(0.0, 10.0, {flow_req(d.left[0], d.right[0], 9.0)}));
  const svc::Seq urgent =
      service.submit(task_req(1.0, 3.0, {flow_req(d.left[1], d.right[1], 1.9)}));
  service.pump();
  auto responses = service.take_responses();
  std::sort(responses.begin(), responses.end(),
            [](const TaskResponse& a, const TaskResponse& b) { return a.seq < b.seq; });
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].accepted());
  ASSERT_TRUE(responses[1].accepted());
  EXPECT_EQ(responses[1].seq, urgent);
  ASSERT_EQ(responses[1].preempted.size(), 1u);
  EXPECT_EQ(responses[1].preempted[0], hog);
  EXPECT_EQ(service.stats().preemptions, 1u);
  EXPECT_EQ(service.audit(), std::nullopt);
}

// The service drives TapsScheduler in virtual time instead of under the
// event loop; on the same workload both must reach the same final task
// verdicts (admitted tasks complete by their deadline under the fluid
// contract, everything else is rejected).
TEST(SvcService, MatchesFluidSimulatorVerdicts) {
  topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  util::Rng rng(20260809);
  const double capacity = kPow2Capacity;
  std::vector<svc::TaskRequest> requests;
  double arrival = 0.0;
  double horizon = 0.0;
  for (int i = 0; i < 60; ++i) {
    arrival += rng.exponential(0.01) + 1e-7;
    const auto& hosts = ft.hosts();
    const auto pick = [&] {
      return hosts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    };
    std::vector<svc::FlowRequest> fs;
    double total = 0.0;
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 3));
    for (std::size_t f = 0; f < n; ++f) {
      const topo::NodeId src = pick();
      topo::NodeId dst = src;
      while (dst == src) dst = pick();
      const double transfer = rng.uniform_real(0.005, 0.03);
      total += transfer;
      fs.push_back(flow_req(src, dst, transfer * capacity));
    }
    const double deadline = arrival + rng.uniform_real(1.3, 3.0) * total;
    horizon = std::max(horizon, deadline);
    requests.push_back(task_req(arrival, deadline, std::move(fs)));
  }

  ServiceConfig config;
  config.shard.compact_interval = 0;  // keep local ids == seq for comparison
  AdmissionService service(ft, config);
  for (const auto& r : requests) (void)service.submit(r);
  service.pump();
  service.advance_clock(horizon + 1.0);
  EXPECT_EQ(service.audit(), std::nullopt);

  net::Network net(ft);
  for (const auto& r : requests) {
    std::vector<net::FlowSpec> specs;
    for (const auto& f : r.flows) specs.push_back(flow(f.src, f.dst, f.size));
    (void)add_task(net, r.arrival, r.deadline, specs);
  }
  core::TapsScheduler sched;
  (void)run(net, sched);

  const net::Network& svc_net = service.shard(0).network();
  ASSERT_EQ(svc_net.tasks().size(), requests.size());
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto id = static_cast<net::TaskId>(i);
    EXPECT_EQ(svc_net.task(id).state, net.task(id).state) << "task " << i;
    if (svc_net.task(id).state == net::TaskState::kCompleted) ++accepted;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(service.stats().accepted, sched.counters().tasks_accepted);
}

TEST(SvcService, ShardedServiceAdmitsCrossPodTasksOnGlobalDomain) {
  topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  const svc::TaskRequest cross =
      task_req(0.0, 1.0, {flow_req(ft.host(0, 0, 0), ft.host(1, 0, 0), 1000.0)});
  const svc::TaskRequest local =
      task_req(0.0, 1.0, {flow_req(ft.host(2, 0, 0), ft.host(2, 1, 0), 1000.0)});

  ServiceConfig sharded;
  sharded.shards = 4;
  {
    AdmissionService service(ft, sharded);
    ASSERT_TRUE(service.has_global_domain());
    EXPECT_EQ(service.shard_count(), 5u);
    (void)service.submit(cross);
    (void)service.submit(local);
    service.pump();
    auto responses = service.take_responses();
    std::sort(responses.begin(), responses.end(),
              [](const TaskResponse& a, const TaskResponse& b) { return a.seq < b.seq; });
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[0].accepted());
    ASSERT_EQ(responses[0].grants.size(), 1u);
    EXPECT_TRUE(responses[1].accepted());
    // The spanning task committed on the global domain, the pod-local one on
    // its pod shard.
    EXPECT_EQ(service.shard(service.global_domain()).stats().accepted, 1u);
    EXPECT_EQ(service.stats().cross_pod_enqueued, 1u);
    EXPECT_EQ(service.stats().by_reason[static_cast<std::size_t>(Reason::kCrossShard)], 0u);
    EXPECT_EQ(service.audit(), std::nullopt);
  }
  {
    // The single-shard (global) service admits the same cross-pod task.
    AdmissionService service(ft, ServiceConfig{});
    EXPECT_FALSE(service.has_global_domain());
    (void)service.submit(cross);
    service.pump();
    const auto responses = service.take_responses();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(responses[0].accepted());
  }
}

TEST(SvcService, ShardingRequiresFatTree) {
  auto d = make_dumbbell();
  ServiceConfig config;
  config.shards = 2;
  EXPECT_THROW(AdmissionService(*d.topology, config), std::invalid_argument);
}

// Registry compaction must be invisible in every response (decisions,
// grants, preemptions) while keeping the task/flow registry bounded.
TEST(SvcService, CompactionIsTransparentAndBoundsRegistry) {
  topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  util::Rng rng(1234);
  WorkloadKnobs knobs;
  knobs.tasks = 300;
  const auto requests = pod_local_workload(ft, rng, knobs);

  ServiceConfig compacting;
  compacting.shard.compact_interval = 16;
  compacting.shard.taps.trim_interval = 8;
  ServiceConfig plain = compacting;
  plain.shard.compact_interval = 0;

  const SvcRun a = run_service(ft, requests, compacting, /*started=*/false);
  const SvcRun b = run_service(ft, requests, plain, /*started=*/false);
  EXPECT_EQ(compare_responses(a.responses, b.responses), std::nullopt);
  EXPECT_EQ(a.audit, std::nullopt);
  EXPECT_EQ(b.audit, std::nullopt);
  ASSERT_EQ(a.shards.size(), 1u);
  EXPECT_GT(a.shards[0].compactions, 0u);
  EXPECT_EQ(b.shards[0].registered_tasks, requests.size());
  EXPECT_LT(a.shards[0].registered_tasks, requests.size() / 2);
}

TEST(SvcService, MetricsSurfaceCoversCountersAndReasons) {
  topo::FatTree ft(topo::FatTreeConfig{4, kPow2Capacity});
  util::Rng rng(99);
  const auto requests = pod_local_workload(ft, rng);
  const SvcRun run = run_service(ft, requests, ServiceConfig{}, /*started=*/false);

  const metrics::Table table = svc::stats_table(run.stats, run.shards);
  EXPECT_GE(table.rows().size(), 10u);
  bool saw_submitted = false;
  for (const auto& row : table.rows()) {
    if (row.front() == "submitted") {
      saw_submitted = true;
      EXPECT_EQ(row.back(), metrics::Table::format(requests.size()));
    }
  }
  EXPECT_TRUE(saw_submitted);

  const metrics::RunMetrics m = svc::to_run_metrics(run.stats, run.shards);
  EXPECT_EQ(m.tasks_total, requests.size());
  EXPECT_EQ(m.tasks_completed + m.tasks_rejected, m.tasks_total);
  EXPECT_EQ(m.replans, svc::aggregate(run.shards).taps.replans);
}

}  // namespace
}  // namespace taps::test
