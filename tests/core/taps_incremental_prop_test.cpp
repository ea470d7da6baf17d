// Bit-identity pin for TapsScheduler's admission sessions: the journaled
// in-place session (prefix adoption, checkpoint resume, vacate-by-slices)
// must produce schedules BITWISE identical to oracle::FullReplanTaps, which
// replans every arrival from scratch on fresh maps, on random scenarios —
// same admission/rejection/preemption decisions, same committed paths and
// slices, same per-link occupancy, same flow outcomes.
//
// The scenarios deliberately mix same-instant arrival cascades (maximum
// cross-arrival prefix reuse) with spread arrivals (transmission between
// commits breaks the reusable prefix), tight deadlines (rejects, compacting
// replans and their reverts) and multi-flow tasks (preemption validation),
// so every resume/restart path of the session runs under the comparison.
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
#include "oracle/full_replan.hpp"

namespace taps::core {
namespace {

struct FlowGen {
  std::size_t left = 0;
  std::size_t right = 0;
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
    os << "(" << f.left << "->" << f.right << " sz=" << f.size << ")";
  }
  return os << "]}";
}

constexpr int kSide = 6;

std::vector<TaskGen> gen_scenario(util::Rng& rng) {
  std::vector<TaskGen> tasks;
  const int n = static_cast<int>(rng.uniform_int(2, 14));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    // ~half the arrivals land on the same instant as the previous one
    // (cascades); the rest advance time so flows transmit between commits.
    if (i > 0 && !rng.bernoulli(0.5)) t += rng.uniform_real(0.1, 1.5);
    TaskGen task;
    task.arrival = t;
    // Mostly feasible-ish slacks with a tight tail to force rejections and
    // preemption attempts.
    task.slack = rng.bernoulli(0.25) ? rng.uniform_real(0.3, 1.0)
                                     : rng.uniform_real(1.0, 6.0);
    const int nf = static_cast<int>(rng.uniform_int(1, 3));
    for (int j = 0; j < nf; ++j) {
      task.flows.push_back(
          FlowGen{static_cast<std::size_t>(rng.uniform_int(0, kSide - 1)),
                  static_cast<std::size_t>(rng.uniform_int(0, kSide - 1)),
                  rng.uniform_real(0.2, 2.0)});
    }
    tasks.push_back(std::move(task));
  }
  return tasks;
}

template <typename Sched>
struct ScenarioRun {
  std::unique_ptr<test::Dumbbell> d;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<Sched> sched;
};

template <typename Sched>
ScenarioRun<Sched> run_scenario(const std::vector<TaskGen>& tasks,
                                PreemptPolicy policy = PreemptPolicy::kProgress) {
  ScenarioRun<Sched> r;
  r.d = std::make_unique<test::Dumbbell>(test::make_dumbbell(kSide));
  r.net = std::make_unique<net::Network>(*r.d->topology);
  for (const TaskGen& t : tasks) {
    std::vector<net::FlowSpec> flows;
    for (const FlowGen& f : t.flows) {
      flows.push_back(test::flow(r.d->left[f.left], r.d->right[f.right], f.size));
    }
    test::add_task(*r.net, t.arrival, t.arrival + t.slack, std::move(flows));
  }
  TapsConfig cfg;
  cfg.preempt_policy = policy;
  cfg.trim_interval = 4;  // exercise the trim cadence under the comparison
  r.sched = std::make_unique<Sched>(cfg);
  (void)test::run(*r.net, *r.sched);
  return r;
}

using SessionRun = ScenarioRun<TapsScheduler>;
using OracleRun = ScenarioRun<oracle::FullReplanTaps>;

std::optional<std::string> compare_runs(const SessionRun& inc, const OracleRun& full) {
  std::ostringstream os;
  const auto fail = [&os]() -> std::optional<std::string> { return os.str(); };

  for (std::size_t i = 0; i < inc.net->tasks().size(); ++i) {
    if (inc.net->tasks()[i].state != full.net->tasks()[i].state) {
      os << "task " << i << " state: session " << net::to_string(inc.net->tasks()[i].state)
         << " vs oracle " << net::to_string(full.net->tasks()[i].state);
      return fail();
    }
  }
  for (std::size_t i = 0; i < inc.net->flows().size(); ++i) {
    const net::Flow& a = inc.net->flows()[i];
    const net::Flow& b = full.net->flows()[i];
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
    if (inc.sched->slices(a.id()) != full.sched->slices(b.id())) {
      os << "flow " << i << " slices: " << inc.sched->slices(a.id()) << " vs "
         << full.sched->slices(b.id());
      return fail();
    }
  }
  const std::size_t links = inc.net->graph().link_count();
  for (topo::LinkId l = 0; l < static_cast<topo::LinkId>(links); ++l) {
    if (inc.sched->occupancy().link(l) != full.sched->occupancy().link(l)) {
      os << "occupancy on link " << l << ": " << inc.sched->occupancy().link(l) << " vs "
         << full.sched->occupancy().link(l);
      return fail();
    }
  }
  const TapsCounters& ca = inc.sched->counters();
  const TapsCounters& cb = full.sched->counters();
  if (ca.tasks_accepted != cb.tasks_accepted || ca.tasks_rejected != cb.tasks_rejected ||
      ca.tasks_preempted != cb.tasks_preempted || ca.replans != cb.replans ||
      ca.replan_reverts != cb.replan_reverts || ca.plan_commits != cb.plan_commits ||
      ca.slice_grants != cb.slice_grants) {
    os << "decision counters differ: accepted " << ca.tasks_accepted << "/"
       << cb.tasks_accepted << " rejected " << ca.tasks_rejected << "/" << cb.tasks_rejected
       << " preempted " << ca.tasks_preempted << "/" << cb.tasks_preempted << " replans "
       << ca.replans << "/" << cb.replans << " reverts " << ca.replan_reverts << "/"
       << cb.replan_reverts << " commits " << ca.plan_commits << "/" << cb.plan_commits
       << " grants " << ca.slice_grants << "/" << cb.slice_grants;
    return fail();
  }
  return std::nullopt;
}

TAPS_PROP(TapsIncrementalProp, BitIdenticalToFullReplan, 150) {
  prop.for_all(gen_scenario, [](const std::vector<TaskGen>& tasks) -> std::optional<std::string> {
    // kProgress never preempts when a task's flows arrive together;
    // kSchedulable does, which drives the preemption-validation replan and
    // the session restarts it can force.
    for (const PreemptPolicy policy : {PreemptPolicy::kProgress, PreemptPolicy::kSchedulable}) {
      const SessionRun inc = run_scenario<TapsScheduler>(tasks, policy);
      const OracleRun full = run_scenario<oracle::FullReplanTaps>(tasks, policy);
      if (auto diff = compare_runs(inc, full)) {
        return std::string(policy == PreemptPolicy::kProgress ? "kProgress: " : "kSchedulable: ") +
               *diff;
      }
    }
    return std::nullopt;
  });
}

TEST(TapsIncrementalProp, ReuseActuallyHappensInAggregate) {
  // Guard against the reuse machinery silently degenerating into "restart
  // every session": across a batch of random scenarios (each containing
  // same-instant cascades) prefix reuse must fire, and must save real
  // planning work relative to the from-scratch oracle.
  util::Rng rng(0xC0FFEE);
  std::size_t reused = 0;
  std::size_t planned_inc = 0;
  std::size_t planned_full = 0;
  for (int i = 0; i < 25; ++i) {
    const std::vector<TaskGen> tasks = gen_scenario(rng);
    const SessionRun inc = run_scenario<TapsScheduler>(tasks);
    const OracleRun full = run_scenario<oracle::FullReplanTaps>(tasks);
    reused += inc.sched->counters().cross_arrival_reuse_flows +
              inc.sched->counters().checkpoint_reuse_flows;
    planned_inc += inc.sched->counters().flows_planned;
    planned_full += full.sched->counters().flows_planned;
  }
  EXPECT_GT(reused, 0u);
  EXPECT_LT(planned_inc, planned_full);
}

}  // namespace
}  // namespace taps::core
