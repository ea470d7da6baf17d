#include "sched/pdq.hpp"

#include <algorithm>

namespace taps::sched {

using net::Flow;
using net::FlowId;

void Pdq::bind(net::Network& net) {
  BaseScheduler::bind(net);
  order_.clear();
  link_busy_.assign(net.graph().link_count(), 0);
  node_list_count_.assign(net.graph().node_count(), 0);
}

void Pdq::on_task_arrival(net::TaskId id, double now) { admit_all_ecmp(id, now); }

double Pdq::assign_rates(double now) {
  auto& flows = active_flows();

  if (config_.early_termination) {
    for (const FlowId fid : flows) {
      Flow& f = net_->flow(fid);
      if (f.finished()) continue;
      double full_rate = sim::kInfinity;
      for (const topo::LinkId lid : f.path.links) {
        full_rate = std::min(full_rate, net_->link_capacity(lid));
      }
      if (f.remaining / full_rate > f.time_to_deadline(now) + sim::kTimeEpsilon) {
        net_->on_flow_missed(fid);  // cannot finish even alone at full rate
      }
    }
  }

  // Priority order carried from the last call; the flows early termination
  // just marked missed drop out with the finished ones.
  const auto order = order_.repair(
      flows, [this](FlowId id) { return net_->flow(id).finished(); },
      [this](FlowId id) {
        const Flow& f = net_->flow(id);
        return Key{.deadline = f.spec.deadline, .remaining = f.remaining, .id = id};
      });

  std::fill(link_busy_.begin(), link_busy_.end(), 0);
  if (config_.flow_list_limit > 0) {
    std::fill(node_list_count_.begin(), node_list_count_.end(), 0);
  }
  for (const Key& k : order) {
    Flow& f = net_->flow(k.id);
    bool free = true;
    // Switch flow-list admission: every switch on the path tracks flows in
    // priority order; a flow ranked past the list limit at any switch is
    // paused there (switch nodes are the sources of links[1..]).
    if (config_.flow_list_limit > 0) {
      for (std::size_t i = 1; i < f.path.links.size(); ++i) {
        const auto node = static_cast<std::size_t>(net_->graph().link(f.path.links[i]).src);
        if (node_list_count_[node]++ >= config_.flow_list_limit) free = false;
      }
    }
    for (const topo::LinkId lid : f.path.links) {
      if (link_busy_[static_cast<std::size_t>(lid)] != 0) {
        free = false;
        break;
      }
    }
    if (free) {
      double rate = sim::kInfinity;
      for (const topo::LinkId lid : f.path.links) {
        rate = std::min(rate, net_->link_capacity(lid));
        link_busy_[static_cast<std::size_t>(lid)] = 1;
      }
      f.set_rate(rate);
    } else {
      f.set_rate(0.0);  // paused
    }
  }
  return sim::kInfinity;
}

}  // namespace taps::sched
