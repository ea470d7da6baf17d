#include "sched/baraat.hpp"

#include <algorithm>

namespace taps::sched {

using net::Flow;
using net::FlowId;

void Baraat::bind(net::Network& net) {
  BaseScheduler::bind(net);
  order_.clear();
  link_busy_.assign(net.graph().link_count(), 0);
}

void Baraat::on_task_arrival(net::TaskId id, double now) { admit_all_ecmp(id, now); }

double Baraat::assign_rates(double /*now*/) {
  auto& flows = active_flows();

  // Priority order carried from the last call (see sched/priority_order.hpp).
  const auto order = order_.repair(
      flows, [this](FlowId id) { return net_->flow(id).finished(); },
      [this](FlowId id) {
        const Flow& f = net_->flow(id);
        return Key{.task_arrival = net_->task(f.task()).spec.arrival,
                   .remaining = f.remaining,
                   .task = f.task(),
                   .id = id};
      });

  std::fill(link_busy_.begin(), link_busy_.end(), 0);
  for (const Key& k : order) {
    Flow& f = net_->flow(k.id);
    bool free = true;
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
      f.set_rate(0.0);
    }
  }
  return sim::kInfinity;
}

}  // namespace taps::sched
