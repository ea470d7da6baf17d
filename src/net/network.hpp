// Network: per-run mutable state — the task/flow registry bound to a
// topology. Schedulers and the simulator operate on this object.
#pragma once

#include <span>
#include <vector>

#include "net/flow_arena.hpp"
#include "net/task.hpp"
#include "topo/paths.hpp"

namespace taps::net {

// taps-threading: single-domain -- flow table and arena mutate under one advancement domain
class Network {
 public:
  /// The topology must outlive the Network.
  explicit Network(const topo::Topology& topology);

  // Flow views borrow slots in arena_; copying or moving the Network would
  // leave them bound to the old object's arena.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) = delete;
  Network& operator=(Network&&) = delete;
  ~Network() = default;

  /// Register a task and its flows. Flow ids and the task id are assigned
  /// here (contiguous, in registration order) and written back into the
  /// returned structures; `spec.flows`/`flow.task` are filled in. Throws
  /// std::invalid_argument (registering nothing) when check_flow rejects
  /// any flow.
  TaskId add_task(double arrival, double deadline, std::span<const FlowSpec> flow_specs);

  /// Append a later wave of flows to an existing task (the paper's dynamic
  /// Algorithm-1 setting, where a task's flows arrive over time and share
  /// the task's deadline). A task that had already completed is reopened
  /// (kAdmitted) — it is complete again only when the new wave also
  /// finishes. Waves cannot be added to rejected or failed tasks (the flows
  /// are registered as kRejected). Throws std::invalid_argument (registering
  /// nothing) for an unknown task, an `arrival` earlier than the task's, or
  /// a flow check_flow rejects.
  void extend_task(TaskId id, double arrival, std::span<const FlowSpec> flow_specs);

  /// Throws std::invalid_argument unless `spec` can be registered in a task
  /// window [arrival, deadline): both endpoints are hosts of the topology,
  /// src != dst, the size is finite and positive, both times are finite and
  /// deadline > arrival.
  void check_flow(const FlowSpec& spec, double arrival, double deadline) const;

  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }
  [[nodiscard]] const topo::Graph& graph() const { return topo_->graph(); }

  [[nodiscard]] Flow& flow(FlowId id) { return flows_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Flow& flow(FlowId id) const { return flows_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] Task& task(TaskId id) { return tasks_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const Task& task(TaskId id) const { return tasks_[static_cast<std::size_t>(id)]; }

  [[nodiscard]] std::vector<Flow>& flows() { return flows_; }
  [[nodiscard]] const std::vector<Flow>& flows() const { return flows_; }
  [[nodiscard]] std::vector<Task>& tasks() { return tasks_; }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  /// Structure-of-arrays backing store for the mutable flow state. The
  /// indexed simulation engine drains its rate-dirty list; everything else
  /// reaches the same state through the Flow views.
  [[nodiscard]] FlowStateArena& flow_state() { return arena_; }

  [[nodiscard]] double link_capacity(topo::LinkId id) const { return graph().link(id).capacity; }

  /// Uniform capacity check: the paper assumes all links have equal
  /// bandwidth; TAPS relies on this to reason in transfer-time units.
  [[nodiscard]] bool uniform_capacity() const;
  [[nodiscard]] double capacity() const { return graph().links().front().capacity; }

  /// Record that a flow completed at `now`: updates flow & task state.
  void on_flow_completed(FlowId id, double now);
  /// Record that a flow missed its deadline: updates flow & task state.
  void on_flow_missed(FlowId id);
  /// Reject an entire task (on arrival, or preempted). Flows that already
  /// completed stay completed; unfinished flows become kRejected.
  void reject_task(TaskId id);

 private:
  const topo::Topology* topo_;
  std::vector<char> is_host_;  // indexed by NodeId
  FlowStateArena arena_;  // declared before flows_: the views borrow its slots
  std::vector<Flow> flows_;
  std::vector<Task> tasks_;
};

}  // namespace taps::net
