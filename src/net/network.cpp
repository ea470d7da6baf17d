#include "net/network.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace taps::net {

Network::Network(const topo::Topology& topology)
    : topo_(&topology), is_host_(topology.graph().node_count(), 0) {
  for (const topo::NodeId h : topology.hosts()) is_host_[static_cast<std::size_t>(h)] = 1;
}

void Network::check_flow(const FlowSpec& spec, double arrival, double deadline) const {
  const auto host = [this](topo::NodeId n) {
    return n >= 0 && static_cast<std::size_t>(n) < is_host_.size() &&
           is_host_[static_cast<std::size_t>(n)] != 0;
  };
  const char* error = nullptr;
  if (!host(spec.src)) {
    error = "src is not a host";
  } else if (!host(spec.dst)) {
    error = "dst is not a host";
  } else if (spec.src == spec.dst) {
    error = "src == dst";
  } else if (!std::isfinite(spec.size) || !(spec.size > 0.0)) {
    error = "size must be finite and positive";
  } else if (!std::isfinite(arrival) || !std::isfinite(deadline)) {
    error = "arrival and deadline must be finite";
  } else if (!(deadline > arrival)) {
    error = "deadline must be later than arrival";
  }
  if (error != nullptr) {
    throw std::invalid_argument(
        std::string("invalid flow (src ") + std::to_string(spec.src) + ", dst " +
        std::to_string(spec.dst) + ", size " + std::to_string(spec.size) + ", arrival " +
        std::to_string(arrival) + ", deadline " + std::to_string(deadline) + "): " + error);
  }
}

TaskId Network::add_task(double arrival, double deadline, std::span<const FlowSpec> flow_specs) {
  for (const FlowSpec& fs : flow_specs) check_flow(fs, arrival, deadline);
  const TaskId tid = static_cast<TaskId>(tasks_.size());
  TaskSpec tspec;
  tspec.id = tid;
  tspec.arrival = arrival;
  tspec.deadline = deadline;
  tspec.flows.reserve(flow_specs.size());
  for (const FlowSpec& fs : flow_specs) {
    FlowSpec spec = fs;
    spec.id = static_cast<FlowId>(flows_.size());
    spec.task = tid;
    spec.arrival = arrival;
    spec.deadline = deadline;
    tspec.flows.push_back(spec.id);
    arena_.push(spec.size);
    flows_.emplace_back(spec, arena_);
  }
  tasks_.emplace_back(std::move(tspec));
  return tid;
}

void Network::extend_task(TaskId id, double arrival, std::span<const FlowSpec> flow_specs) {
  if (id < 0 || static_cast<std::size_t>(id) >= tasks_.size()) {
    throw std::invalid_argument("extend_task: unknown task " + std::to_string(id));
  }
  Task& t = task(id);
  if (!(arrival >= t.spec.arrival)) {
    throw std::invalid_argument("extend_task: wave arrival " + std::to_string(arrival) +
                                " precedes the task's arrival " +
                                std::to_string(t.spec.arrival));
  }
  for (const FlowSpec& fs : flow_specs) check_flow(fs, arrival, t.spec.deadline);
  const bool dead = t.state == TaskState::kRejected || t.state == TaskState::kFailed;
  for (const FlowSpec& fs : flow_specs) {
    FlowSpec spec = fs;
    spec.id = static_cast<FlowId>(flows_.size());
    spec.task = id;
    spec.arrival = arrival;
    spec.deadline = t.spec.deadline;
    t.spec.flows.push_back(spec.id);
    arena_.push(spec.size);
    flows_.emplace_back(spec, arena_);
    if (dead) flows_.back().state = FlowState::kRejected;
  }
  if (t.state == TaskState::kCompleted) t.state = TaskState::kAdmitted;
}

bool Network::uniform_capacity() const {
  const auto& links = graph().links();
  if (links.empty()) return true;
  const double c = links.front().capacity;
  for (const auto& l : links) {
    if (l.capacity != c) return false;
  }
  return true;
}

void Network::on_flow_completed(FlowId id, double now) {
  Flow& f = flow(id);
  assert(!f.finished());
  f.state = FlowState::kCompleted;
  f.remaining = 0.0;
  f.set_rate(0.0);
  f.completion_time = now;
  Task& t = task(f.task());
  ++t.completed_flows;
  if (t.state == TaskState::kAdmitted && t.completed_flows == t.flow_count()) {
    t.state = TaskState::kCompleted;
  }
}

void Network::on_flow_missed(FlowId id) {
  Flow& f = flow(id);
  assert(!f.finished());
  f.state = FlowState::kMissed;
  f.set_rate(0.0);
  Task& t = task(f.task());
  if (t.state == TaskState::kAdmitted || t.state == TaskState::kPending) {
    t.state = TaskState::kFailed;
  }
}

void Network::reject_task(TaskId id) {
  Task& t = task(id);
  t.state = TaskState::kRejected;
  for (FlowId fid : t.spec.flows) {
    Flow& f = flow(fid);
    if (!f.finished()) {
      f.state = FlowState::kRejected;
      f.set_rate(0.0);
    }
  }
}

}  // namespace taps::net
