#include "oracle/full_replan.hpp"

#include <algorithm>

namespace taps::oracle {

using net::Flow;
using net::FlowId;
using net::FlowState;
using net::TaskId;
using net::TaskState;

void FullReplanTaps::bind(net::Network& net) {
  BaseScheduler::bind(net);
  occ_ = core::OccupancyMap(net.graph().link_count());
  slices_.assign(net.flows().size(), util::IntervalSet{});
  committed_.clear();
  scratch_.clear();
  counters_ = core::TapsCounters{};
  arrivals_since_trim_ = 0;
}

std::vector<FlowId> FullReplanTaps::unfinished() {
  std::vector<FlowId> out;
  for (const FlowId fid : active_flows()) {
    if (net_->flow(fid).remaining > sim::kByteEpsilon) out.push_back(fid);
  }
  return out;
}

FullReplanTaps::Attempt FullReplanTaps::plan(std::vector<FlowId> order, double now) {
  core::sort_edf_sjf(*net_, order);
  Attempt a{.plans = {}, .occ = core::OccupancyMap(net_->graph().link_count())};
  const core::PlanConfig config{.max_paths = config_.max_paths,
                                .ecmp_routing = config_.ecmp_routing,
                                .guard_band = config_.guard_band,
                                .fault_skip_occupy = config_.fault_skip_occupy};
  a.plans = core::plan_flows(*net_, a.occ, order, now, config, &scratch_);
  a.feasible = std::all_of(a.plans.begin(), a.plans.end(),
                           [](const core::FlowPlan& p) { return p.feasible; });
  counters_.flows_planned += order.size();
  ++counters_.replans;
  return a;
}

void FullReplanTaps::commit(Attempt&& attempt) {
  occ_ = std::move(attempt.occ);
  for (const FlowId fid : retired_) slices_[static_cast<std::size_t>(fid)].clear();
  committed_.clear();
  for (core::FlowPlan& plan : attempt.plans) {
    Flow& f = net_->flow(plan.flow);
    util::IntervalSet& sl = slices_[static_cast<std::size_t>(plan.flow)];
    if (f.path.links != plan.path.links || sl != plan.slices) ++counters_.slice_grants;
    f.path = std::move(plan.path);
    sl = std::move(plan.slices);
    committed_.push_back(plan.flow);
  }
  ++counters_.plan_commits;
}

void FullReplanTaps::admit(TaskId id, const std::vector<FlowId>& wave) {
  net::Task& t = net_->task(id);
  if (t.state == TaskState::kPending) t.state = TaskState::kAdmitted;
  ++counters_.tasks_accepted;
  for (const FlowId fid : wave) {
    Flow& f = net_->flow(fid);
    if (f.state != FlowState::kActive) {
      f.state = FlowState::kActive;
      active_.push_back(fid);
    }
  }
}

void FullReplanTaps::on_task_arrival(TaskId id, double now) {
  if (slices_.size() < net_->flows().size()) slices_.resize(net_->flows().size());
  const net::Task& t = net_->task(id);
  const std::vector<FlowId> wave = pending_wave(id, now);
  if (t.state == TaskState::kRejected || t.state == TaskState::kFailed) {
    for (const FlowId fid : wave) net_->flow(fid).state = FlowState::kRejected;
    return;
  }
  if (wave.empty()) return;
  if (config_.trim_interval != 0 && ++arrivals_since_trim_ >= config_.trim_interval) {
    arrivals_since_trim_ = 0;
    occ_.trim_before(now);
    for (util::IntervalSet& sl : slices_) sl.trim_before(now);
  }
  // Spent committed flows wholly in the past leave the plan at the next
  // commit, slices and all.
  retired_.clear();
  for (const FlowId fid : committed_) {
    const Flow& f = net_->flow(fid);
    const util::IntervalSet& sl = slices_[static_cast<std::size_t>(fid)];
    if ((!f.active() || f.remaining <= sim::kByteEpsilon) && !sl.empty() &&
        sl.back_end() <= now) {
      retired_.push_back(fid);
    }
  }

  std::vector<FlowId> order = unfinished();
  order.insert(order.end(), wave.begin(), wave.end());
  Attempt trial = plan(order, now);
  const core::RejectOutcome outcome =
      core::apply_reject_rule(*net_, id, trial.plans, config_.preempt_policy);
  if (outcome.decision == core::Decision::kAccept) {
    admit(id, wave);
    commit(std::move(trial));
    return;
  }
  if (outcome.decision == core::Decision::kPreemptVictim) {
    std::erase_if(order, [&](FlowId fid) { return net_->flow(fid).task() == outcome.victim; });
    Attempt validated = plan(order, now);
    if (validated.feasible) {
      net_->reject_task(outcome.victim);
      ++counters_.tasks_preempted;
      admit(id, wave);
      commit(std::move(validated));
      return;
    }
  }
  net_->reject_task(id);
  ++counters_.tasks_rejected;
  Attempt compacted = plan(unfinished(), now);
  if (compacted.feasible) {
    commit(std::move(compacted));
  } else {
    ++counters_.replan_reverts;
  }
}

void FullReplanTaps::on_flow_finished(FlowId id, double now) {
  BaseScheduler::on_flow_finished(id, now);
  const Flow& f = net_->flow(id);
  if (f.state != FlowState::kMissed) return;
  for (const FlowId sibling : net_->task(f.task()).spec.flows) {
    Flow& s = net_->flow(sibling);
    if (!s.finished()) {
      s.state = FlowState::kRejected;
      s.set_rate(0.0);
      slices_[static_cast<std::size_t>(sibling)].clear();
    }
  }
}

double FullReplanTaps::assign_rates(double now) {
  double next_boundary = sim::kInfinity;
  for (const FlowId fid : active_flows()) {
    Flow& f = net_->flow(fid);
    const util::IntervalSet& sl = slices_[static_cast<std::size_t>(fid)];
    double rate = sl.contains(now) ? sim::kInfinity : 0.0;
    for (const topo::LinkId lid : f.path.links) rate = std::min(rate, net_->link_capacity(lid));
    f.set_rate(rate);
    next_boundary = std::min(next_boundary, sl.next_boundary(now));
  }
  return next_boundary;
}

core::TimeAllocation allocate_time_reference(const core::OccupancyMap& occupancy,
                                             const topo::Path& path, double now,
                                             double duration, double horizon) {
  core::TimeAllocation out;
  if (duration <= 0.0 || horizon <= now) return out;
  out.slices = occupancy.path_union(path).allocate_earliest(now, duration, horizon);
  if (!out.slices.empty()) out.completion = out.slices.back_end();
  return out;
}

}  // namespace taps::oracle
