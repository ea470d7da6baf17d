// Algorithm 2 of the paper: PathCalculation(F).
//
// For each flow (in the caller-supplied EDF+SJF order), enumerate candidate
// paths, run TimeAllocation on each, keep the path with the earliest
// completion, and commit its slices into the shared occupancy map. Flows
// that cannot finish before their deadline on any candidate path get an
// infeasible plan and occupy nothing (TAPS never spends bandwidth on a flow
// it cannot finish).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/time_allocation.hpp"
#include "net/network.hpp"

namespace taps::core {

// taps-threading: thread-compatible
struct PlanConfig {
  /// Cap on candidate paths per flow (see DESIGN.md on fat-tree path counts).
  std::size_t max_paths = 16;
  /// Ablation knob: hash each flow onto ONE of its candidate paths (ECMP)
  /// instead of letting Algorithm 2 choose the earliest-completion path.
  /// Isolates how much of TAPS's advantage comes from centralized routing.
  bool ecmp_routing = false;
  /// Slack subtracted from every deadline when planning (seconds). The
  /// fluid model needs none; on a packet network the last packet arrives
  /// one store-and-forward pipeline after its slice ends, so exact-fit
  /// plans miss by microseconds unless the controller budgets for it.
  double guard_band = 0.0;
  /// Fault injection for the invariant oracle's negative tests: planning
  /// skips OccupancyMap::occupy for this flow, so later flows can be granted
  /// overlapping slices. Never set outside tests.
  net::FlowId fault_skip_occupy = net::kInvalidFlow;
};

/// Caller-owned reusable planning state. Candidate paths depend only on a
/// flow's immutable (src, dst) and the fixed PlanConfig, yet Topology::paths
/// re-enumerates them on every call — which the old replan loop did for
/// every flow on every arrival. Keeping the scratch alive across replans
/// caches each flow's candidate list after its first planning. Also carries
/// the candidate race's trial slice set, the allocator's prefix unions and
/// the per-link lower-bound memo, so a planning domain's entire scratch
/// travels in one object (no hidden `thread_local` state — the concurrency
/// linter bans it).
// taps-threading: single-domain -- one instance per planning domain.
struct PlanScratch {
  /// Indexed by FlowId; an empty inner vector means "not yet computed"
  /// (paths() never legitimately returns zero candidates).
  std::vector<std::vector<topo::Path>> candidates;
  /// Trial slice set for the candidate-path race (swapped into the winning
  /// plan and recycled otherwise).
  util::IntervalSet trial;
  /// allocate_time_into's prefix unions, shared across one candidate race.
  TimeAllocScratch time_alloc;
  /// OccupancyMap::single_link_completion memo for one plan_one_flow call,
  /// indexed by LinkId: an entry counts only when its `race` matches the
  /// current one and its `duration` the candidate's.
  struct LinkBound {
    std::uint64_t race = 0;
    double duration = 0.0;
    double completion = 0.0;
  };
  std::vector<LinkBound> link_bounds;
  std::uint64_t race = 0;

  void clear() { candidates.clear(); }
};

// taps-threading: thread-compatible
struct FlowPlan {
  net::FlowId flow = net::kInvalidFlow;
  topo::Path path;
  util::IntervalSet slices;
  double completion = 0.0;
  bool feasible = false;
};

/// Plan a single flow against the current occupancy (does not commit).
/// `scratch` (optional) caches the flow's candidate paths across calls; its
/// race state (prefix unions, lower-bound memo) is invalidated on entry.
[[nodiscard]] FlowPlan plan_one_flow(const net::Network& net, const OccupancyMap& occupancy,
                                     net::FlowId fid, double now, const PlanConfig& config,
                                     PlanScratch* scratch = nullptr);

/// Plan every flow in `order` (the caller sorts by EDF+SJF), committing each
/// feasible flow's slices into `occupancy` before planning the next.
[[nodiscard]] std::vector<FlowPlan> plan_flows(const net::Network& net, OccupancyMap& occupancy,
                                               std::span<const net::FlowId> order, double now,
                                               const PlanConfig& config,
                                               PlanScratch* scratch = nullptr);

/// The paper's scheduling discipline as a strict total order on flow ids:
/// EDF first (earlier deadline), SJF tie-break (smaller remaining size),
/// then flow id.
[[nodiscard]] inline bool edf_sjf_before(const net::Network& net, net::FlowId a, net::FlowId b) {
  const net::Flow& fa = net.flow(a);
  const net::Flow& fb = net.flow(b);
  if (fa.spec.deadline != fb.spec.deadline) return fa.spec.deadline < fb.spec.deadline;
  if (fa.remaining != fb.remaining) return fa.remaining < fb.remaining;
  return a < b;
}

/// Sort flow ids by edf_sjf_before.
void sort_edf_sjf(const net::Network& net, std::vector<net::FlowId>& flows);

}  // namespace taps::core
