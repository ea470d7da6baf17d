#include "sched/d3.hpp"

#include <algorithm>

namespace taps::sched {

using net::Flow;
using net::FlowId;

void D3::on_task_arrival(net::TaskId id, double now) { admit_all_ecmp(id, now); }

double D3::assign_rates(double now) {
  auto& flows = active_flows();
  for (const auto& l : net_->graph().links()) {
    residual_[static_cast<std::size_t>(l.id)] = l.capacity;
  }

  // FCFS: grant deadline-driven requests in arrival order (flow id breaks
  // ties among equal arrival times, matching "earlier flows win"). The key
  // never changes and flows are admitted in arrival order, so the active
  // list is normally sorted already and is copied only when it is not.
  const auto fcfs = [this](FlowId a, FlowId b) {
    const Flow& fa = net_->flow(a);
    const Flow& fb = net_->flow(b);
    if (fa.spec.arrival != fb.spec.arrival) return fa.spec.arrival < fb.spec.arrival;
    return a < b;
  };
  std::vector<FlowId> resorted;
  if (!std::is_sorted(flows.begin(), flows.end(), fcfs)) {
    resorted.assign(flows.begin(), flows.end());
    std::sort(resorted.begin(), resorted.end(), fcfs);
  }
  const std::vector<FlowId>& order = resorted.empty() ? flows : resorted;

  for (const FlowId fid : order) {
    Flow& f = net_->flow(fid);
    const double ttd = f.time_to_deadline(now);
    // Demand: finish exactly at the deadline. A flow at/past its deadline is
    // settled by the simulator; guard anyway.
    double demand = ttd > sim::kTimeEpsilon ? f.remaining / ttd : sim::kInfinity;
    double grant = demand;
    for (const topo::LinkId lid : f.path.links) {
      grant = std::min(grant, residual_[static_cast<std::size_t>(lid)]);
    }
    grant = std::max(grant, 0.0);
    f.set_rate(grant);
    for (const topo::LinkId lid : f.path.links) {
      residual_[static_cast<std::size_t>(lid)] -= grant;
    }
  }

  // Base rate: spare capacity shared max-min among all flows.
  progressive_fill(flows, residual_);
  return sim::kInfinity;
}

}  // namespace taps::sched
