// Pod-level metadata derived from a topology at build time.
//
// A PodMap partitions the nodes of a hierarchical topology into pods
// (aggregation subtrees) and records, per pod, the directed uplinks leaving
// the pod toward the core layer, the downlinks entering it, and the summed
// uplink capacity that serves as the pod's bandwidth budget for the sharded
// admission service's cross-pod reservations (src/svc/service.hpp).
//
// Topologies without a pod structure simply return nullptr from
// Topology::pods().
#pragma once

#include <vector>

#include "topo/graph.hpp"

namespace taps::topo {

inline constexpr int kNoPod = -1;

struct PodInfo {
  std::vector<LinkId> uplinks;    // pod -> core links, deterministic order
  std::vector<LinkId> downlinks;  // core -> pod links, same order
  std::vector<NodeId> hosts;      // hosts inside the pod, id-sorted
  double uplink_capacity = 0.0;   // sum of uplink capacities (budget base)
};

class PodMap {
 public:
  /// Derive the map from `g` and a per-node pod assignment (kNoPod for core
  /// nodes that belong to no pod). `pod_count` must exceed every assignment.
  PodMap(const Graph& g, std::vector<int> pod_of_node, int pod_count);

  [[nodiscard]] int pod_count() const { return static_cast<int>(pods_.size()); }
  [[nodiscard]] int pod_of(NodeId node) const {
    return pod_of_node_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] bool same_pod(NodeId a, NodeId b) const {
    return pod_of(a) != kNoPod && pod_of(a) == pod_of(b);
  }
  [[nodiscard]] const PodInfo& pod(int p) const { return pods_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] const std::vector<PodInfo>& pods() const { return pods_; }

 private:
  std::vector<int> pod_of_node_;
  std::vector<PodInfo> pods_;
};

}  // namespace taps::topo
