// Baraat baseline (Dogar et al., SIGCOMM'14), flow-level model: task-aware
// but deadline-agnostic. Tasks are serialized FIFO by arrival; all flows of
// an earlier task strictly outrank flows of later tasks; inside a task flows
// follow SJF. Flow scheduling is PDQ-like (exclusive full-rate link use),
// with no deadline-based termination — which is exactly why Baraat wastes
// bandwidth in deadline-sensitive settings (paper Fig. 8).
#pragma once

#include "sched/priority_order.hpp"
#include "sched/scheduler.hpp"

namespace taps::sched {

// taps-threading: single-domain -- scheduler state advances under one simulation domain
class Baraat final : public BaseScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Baraat"; }

  void bind(net::Network& net) override;
  void on_task_arrival(net::TaskId id, double now) override;
  double assign_rates(double now) override;

  /// A flow's rank: task FIFO (arrival, then task id), then SJF on
  /// remaining size within the task, then flow id.
  // taps-threading: thread-compatible
  struct Key {
    double task_arrival = 0.0;
    double remaining = 0.0;
    net::TaskId task = net::kInvalidTask;
    net::FlowId id = net::kInvalidFlow;

    friend bool operator<(const Key& a, const Key& b) {
      if (a.task_arrival != b.task_arrival) return a.task_arrival < b.task_arrival;
      if (a.task != b.task) return a.task < b.task;
      if (a.remaining != b.remaining) return a.remaining < b.remaining;
      return a.id < b.id;
    }
  };

 private:
  CarriedOrder<Key> order_;
  std::vector<char> link_busy_;
};

}  // namespace taps::sched
