// From-scratch Algorithm 1, the reference core::TapsScheduler's admission
// sessions are pinned against (tests/core/taps_incremental_prop_test.cpp).
// Every arrival sorts all unfinished admitted flows plus the newcomers
// EDF+SJF and plans them on a fresh OccupancyMap per attempt (trial,
// preemption validation, compaction). Only Algorithms 2/3 and the reject
// rule are shared with the scheduler. The scheduler's observable
// bookkeeping (stale-slice retirement, trim cadence, the missed-deadline
// no-waste rule) is kept so slices and occupancy compare bitwise. No
// observer or makeup transmission (the fluid engine needs none).
#pragma once

#include <vector>

#include "core/path_allocation.hpp"
#include "core/taps_scheduler.hpp"

namespace taps::oracle {

// taps-threading: single-domain -- scheduler state advances under one simulation domain
class FullReplanTaps : public sched::BaseScheduler {
 public:
  explicit FullReplanTaps(const core::TapsConfig& config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "TAPS-full-replan"; }

  void bind(net::Network& net) override;
  void on_task_arrival(net::TaskId id, double now) override;
  void on_flow_finished(net::FlowId id, double now) override;
  double assign_rates(double now) override;

  [[nodiscard]] const util::IntervalSet& slices(net::FlowId id) const {
    return slices_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const core::OccupancyMap& occupancy() const { return occ_; }
  /// Only the decision counters (tasks_accepted/rejected/preempted, replans,
  /// replan_reverts, plan_commits, slice_grants) and flows_planned move.
  [[nodiscard]] const core::TapsCounters& counters() const { return counters_; }

 private:
  // taps-threading: thread-compatible
  struct Attempt {
    std::vector<core::FlowPlan> plans;
    core::OccupancyMap occ{0};
    bool feasible = true;
  };

  [[nodiscard]] std::vector<net::FlowId> unfinished();
  [[nodiscard]] Attempt plan(std::vector<net::FlowId> order, double now);
  void commit(Attempt&& attempt);
  void admit(net::TaskId id, const std::vector<net::FlowId>& wave);

  core::TapsConfig config_;
  core::OccupancyMap occ_{0};
  std::vector<util::IntervalSet> slices_;  // indexed by FlowId
  std::vector<net::FlowId> committed_;     // flows of the last committed plan
  std::vector<net::FlowId> retired_;       // spent flows whose slices clear on commit
  core::PlanScratch scratch_;
  core::TapsCounters counters_;
  std::size_t arrivals_since_trim_ = 0;
};

/// The textbook Algorithm 3: materialize T_ocp with path_union, then take
/// the earliest `duration` seconds of its complement from `now` before
/// `horizon`. Bit-identical to core::allocate_time, slower on fragmented
/// occupancy.
[[nodiscard]] core::TimeAllocation allocate_time_reference(const core::OccupancyMap& occupancy,
                                                           const topo::Path& path, double now,
                                                           double duration, double horizon);

}  // namespace taps::oracle
