// PDQ baseline (Hong et al., SIGCOMM'12), flow-level model: flows are
// prioritized by EDF (earliest deadline) with SJF (smallest remaining size)
// tie-break; the highest-priority flow on each link transmits alone at full
// link rate, lower-priority flows are paused. Early Termination kills flows
// that cannot meet their deadline even at full rate.
//
// Suppressed Probing and Early Start are buffer-level mechanisms and are not
// represented in a flow-level model (the paper's simulation makes the same
// choice).
#pragma once

#include "sched/priority_order.hpp"
#include "sched/scheduler.hpp"

namespace taps::sched {

// taps-threading: thread-compatible
struct PdqConfig {
  bool early_termination = true;
  /// PDQ switches track a bounded list of flows; a flow not in the list of
  /// every switch it traverses is paused (the paper's Fig. 3 "flow list in
  /// S3 is full" motivation). 0 = unlimited (idealized PDQ, the default).
  std::size_t flow_list_limit = 0;
};

// taps-threading: single-domain -- scheduler state advances under one simulation domain
class Pdq final : public BaseScheduler {
 public:
  explicit Pdq(const PdqConfig& config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "PDQ"; }

  void bind(net::Network& net) override;
  void on_task_arrival(net::TaskId id, double now) override;
  double assign_rates(double now) override;

  /// A flow's rank: EDF, then SJF on remaining size, then flow id.
  // taps-threading: thread-compatible
  struct Key {
    double deadline = 0.0;
    double remaining = 0.0;
    net::FlowId id = net::kInvalidFlow;

    friend bool operator<(const Key& a, const Key& b) {
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      if (a.remaining != b.remaining) return a.remaining < b.remaining;
      return a.id < b.id;
    }
  };

 private:
  PdqConfig config_;
  CarriedOrder<Key> order_;
  std::vector<char> link_busy_;
  std::vector<std::size_t> node_list_count_;
};

}  // namespace taps::sched
