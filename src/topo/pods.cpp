#include "topo/pods.hpp"

#include <algorithm>
#include <stdexcept>

namespace taps::topo {

PodMap::PodMap(const Graph& g, std::vector<int> pod_of_node, int pod_count)
    : pod_of_node_(std::move(pod_of_node)) {
  if (pod_of_node_.size() != g.node_count()) {
    throw std::invalid_argument("PodMap: pod assignment size != node count");
  }
  pods_.resize(static_cast<std::size_t>(pod_count));
  for (const int p : pod_of_node_) {
    if (p != kNoPod && (p < 0 || p >= pod_count)) {
      throw std::invalid_argument("PodMap: pod index out of range");
    }
  }

  for (const Node& n : g.nodes()) {
    if (n.kind != NodeKind::kHost) continue;
    const int p = pod_of(n.id);
    if (p != kNoPod) pods_[static_cast<std::size_t>(p)].hosts.push_back(n.id);
  }
  for (PodInfo& pod : pods_) std::sort(pod.hosts.begin(), pod.hosts.end());

  for (const Link& l : g.links()) {
    const int sp = pod_of(l.src);
    const int dp = pod_of(l.dst);
    if (sp != kNoPod && dp == kNoPod) {
      PodInfo& pod = pods_[static_cast<std::size_t>(sp)];
      pod.uplinks.push_back(l.id);
      pod.uplink_capacity += l.capacity;
    } else if (sp == kNoPod && dp != kNoPod) {
      pods_[static_cast<std::size_t>(dp)].downlinks.push_back(l.id);
    }
  }
}

}  // namespace taps::topo
