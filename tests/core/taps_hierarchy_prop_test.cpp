// Bit-identity pin for hierarchical admission: the pod-local conservative
// precheck (TapsConfig::hierarchical_precheck = true) must never reject a
// task the global planner would admit — on random fat-tree scenarios, every
// committed decision, path, slice set, per-link occupancy and flow outcome
// must be BITWISE identical with the precheck on and off (the always-global
// pipeline is the oracle).
//
// The scenarios are biased toward what makes the precheck fire: hotspot
// sources (many tasks sharing a host uplink), same-instant cascades (the
// no-transmission gate holds), tight deadlines (provably-infeasible
// arrivals), cross-pod flows (pod-uplink budget tests), and exact-fit sizes
// (the budget-exhausted boundary, which must NOT fast-reject).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/prop.hpp"
#include "core/taps_scheduler.hpp"
#include "topo/fattree.hpp"

namespace taps::core {
namespace {

struct FlowGen {
  std::size_t src = 0;
  std::size_t dst = 0;
  double size = 1.0;
};

struct TaskGen {
  double arrival = 0.0;
  double slack = 1.0;  // deadline = arrival + slack
  std::vector<FlowGen> flows;
};

std::ostream& operator<<(std::ostream& os, const TaskGen& t) {
  os << "{t=" << t.arrival << " slack=" << t.slack << " flows=[";
  for (const FlowGen& f : t.flows) {
    os << "(" << f.src << "->" << f.dst << " sz=" << f.size << ")";
  }
  return os << "]}";
}

// k=4 fat-tree with unit capacity: 16 hosts in 4 pods, sizes read as seconds.
constexpr int kHosts = 16;

std::vector<TaskGen> gen_scenario(util::Rng& rng) {
  std::vector<TaskGen> tasks;
  const int n = static_cast<int>(rng.uniform_int(2, 16));
  // A couple of hotspot hosts most sources concentrate on, so host-uplink
  // mass actually accumulates and the precheck has something to prove.
  const auto hot_a = static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1));
  const auto hot_b = static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    // Mostly same-instant cascades (gate armed); occasionally advance time
    // so the gate closes and the fallback path runs under the comparison.
    if (i > 0 && rng.bernoulli(0.25)) t += rng.uniform_real(0.1, 1.5);
    TaskGen task;
    task.arrival = t;
    // Tight tail forces provable infeasibility; round sizes + slacks land
    // exact-exhaustion boundaries reasonably often.
    task.slack = rng.bernoulli(0.4) ? rng.uniform_real(0.3, 1.2)
                                    : rng.uniform_real(1.2, 6.0);
    const int nf = static_cast<int>(rng.uniform_int(1, 3));
    for (int j = 0; j < nf; ++j) {
      FlowGen f;
      f.src = rng.bernoulli(0.6) ? (rng.bernoulli(0.5) ? hot_a : hot_b)
                                 : static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1));
      f.dst = static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1));
      if (f.dst == f.src) f.dst = (f.dst + 1) % kHosts;
      f.size = rng.bernoulli(0.5) ? rng.uniform_real(0.2, 2.0)
                                  : static_cast<double>(rng.uniform_int(1, 4)) * 0.5;
      task.flows.push_back(f);
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

struct ScenarioRun {
  std::unique_ptr<topo::FatTree> topo;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<TapsScheduler> sched;
};

ScenarioRun run_scenario(const std::vector<TaskGen>& tasks, bool precheck) {
  ScenarioRun r;
  r.topo = std::make_unique<topo::FatTree>(topo::FatTreeConfig{4, 1.0});
  r.net = std::make_unique<net::Network>(*r.topo);
  const std::vector<topo::NodeId>& hosts = r.topo->hosts();
  for (const TaskGen& t : tasks) {
    std::vector<net::FlowSpec> flows;
    for (const FlowGen& f : t.flows) {
      flows.push_back(test::flow(hosts[f.src], hosts[f.dst], f.size));
    }
    test::add_task(*r.net, t.arrival, t.arrival + t.slack, std::move(flows));
  }
  TapsConfig cfg;
  cfg.hierarchical_precheck = precheck;
  cfg.trim_interval = 4;  // exercise registry compaction under the comparison
  r.sched = std::make_unique<TapsScheduler>(cfg);
  (void)test::run(*r.net, *r.sched);
  return r;
}

std::optional<std::string> compare_runs(const ScenarioRun& on, const ScenarioRun& off) {
  std::ostringstream os;
  const auto fail = [&os]() -> std::optional<std::string> { return os.str(); };

  for (std::size_t i = 0; i < on.net->tasks().size(); ++i) {
    if (on.net->tasks()[i].state != off.net->tasks()[i].state) {
      os << "task " << i << " state: precheck-on " << net::to_string(on.net->tasks()[i].state)
         << " vs off " << net::to_string(off.net->tasks()[i].state);
      return fail();
    }
  }
  for (std::size_t i = 0; i < on.net->flows().size(); ++i) {
    const net::Flow& a = on.net->flows()[i];
    const net::Flow& b = off.net->flows()[i];
    if (a.state != b.state) {
      os << "flow " << i << " state differs";
      return fail();
    }
    if (a.remaining != b.remaining) {  // bitwise on purpose
      os << "flow " << i << " remaining: " << a.remaining << " vs " << b.remaining;
      return fail();
    }
    if (a.completion_time != b.completion_time) {
      os << "flow " << i << " completion: " << a.completion_time << " vs "
         << b.completion_time;
      return fail();
    }
    if (a.path.links != b.path.links) {
      os << "flow " << i << " committed path differs";
      return fail();
    }
    if (on.sched->slices(a.id()) != off.sched->slices(b.id())) {
      os << "flow " << i << " slices: " << on.sched->slices(a.id()) << " vs "
         << off.sched->slices(b.id());
      return fail();
    }
  }
  const std::size_t links = on.net->graph().link_count();
  for (topo::LinkId l = 0; l < static_cast<topo::LinkId>(links); ++l) {
    if (on.sched->occupancy().link(l) != off.sched->occupancy().link(l)) {
      os << "occupancy on link " << l << ": " << on.sched->occupancy().link(l) << " vs "
         << off.sched->occupancy().link(l);
      return fail();
    }
  }
  // Decision counters must match; effort counters (replans, flows_planned,
  // reuse, sorts) legitimately differ — skipping the trial replan on a fast
  // reject is the whole point.
  const TapsCounters& ca = on.sched->counters();
  const TapsCounters& cb = off.sched->counters();
  if (ca.tasks_accepted != cb.tasks_accepted || ca.tasks_rejected != cb.tasks_rejected ||
      ca.tasks_preempted != cb.tasks_preempted || ca.plan_commits != cb.plan_commits ||
      ca.slice_grants != cb.slice_grants || ca.replan_reverts != cb.replan_reverts) {
    os << "decision counters differ: accepted " << ca.tasks_accepted << "/"
       << cb.tasks_accepted << " rejected " << ca.tasks_rejected << "/" << cb.tasks_rejected
       << " preempted " << ca.tasks_preempted << "/" << cb.tasks_preempted << " commits "
       << ca.plan_commits << "/" << cb.plan_commits << " grants " << ca.slice_grants << "/"
       << cb.slice_grants << " reverts " << ca.replan_reverts << "/" << cb.replan_reverts;
    return fail();
  }
  if (cb.pod_fast_rejects != 0) {
    os << "oracle run fast-rejected " << cb.pod_fast_rejects << " tasks with the precheck off";
    return fail();
  }
  return std::nullopt;
}

TAPS_PROP(TapsHierarchyProp, PrecheckBitIdenticalIncremental, 150) {
  prop.for_all(gen_scenario, [](const std::vector<TaskGen>& tasks) {
    const ScenarioRun on = run_scenario(tasks, /*precheck=*/true);
    const ScenarioRun off = run_scenario(tasks, /*precheck=*/false);
    return compare_runs(on, off);
  });
}

TEST(TapsHierarchyProp, FastRejectsActuallyHappenInAggregate) {
  // Guard against the precheck silently degenerating into "never fires":
  // across a batch of hotspot-biased random scenarios it must reject a
  // nonzero number of tasks locally, and must save real planning work.
  util::Rng rng(0xBADCAFE);
  std::size_t fast = 0;
  std::size_t planned_on = 0;
  std::size_t planned_off = 0;
  for (int i = 0; i < 25; ++i) {
    const std::vector<TaskGen> tasks = gen_scenario(rng);
    const ScenarioRun on = run_scenario(tasks, /*precheck=*/true);
    const ScenarioRun off = run_scenario(tasks, /*precheck=*/false);
    fast += on.sched->counters().pod_fast_rejects;
    planned_on += on.sched->counters().flows_planned;
    planned_off += off.sched->counters().flows_planned;
  }
  EXPECT_GT(fast, 0u);
  EXPECT_LT(planned_on, planned_off);
}

}  // namespace
}  // namespace taps::core
