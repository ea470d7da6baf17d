// The original fluid event loop, kept as the oracle sim::FluidSimulator is
// pinned against (tests/sim/sim_engine_equiv_prop_test.cpp and
// bench_sim_scale's inline fingerprint cross-check).
//
// Every event rescans the whole active list: the next-event time is the
// minimum over every active flow's completion and deadline, every active
// flow is advanced, and every active flow is checked for completion, then
// for a missed deadline. Same run() -> SimStats contract and observer hooks
// as FluidSimulator; only the SimEffort work counters differ (this loop
// never skips a flow and never drains the rate-dirty set).
#pragma once

#include <vector>

#include "sim/simulator.hpp"

namespace taps::oracle {

// taps-threading: single-domain -- event loop state owned by one simulation domain
class ReferenceSimulator {
 public:
  ReferenceSimulator(net::Network& net, sim::Scheduler& scheduler)
      : net_(&net), scheduler_(&scheduler) {}

  void set_observer(sim::TransmitObserver* observer) { observer_ = observer; }

  /// Run to quiescence: all tasks arrived and no active flow remains.
  sim::SimStats run();

 private:
  /// Advance all active flows from now_ to `t` at their current rates.
  void advance_to(double t);
  /// Mark finished flows (completed / missed) and notify the scheduler.
  void settle(double now);

  net::Network* net_;
  sim::Scheduler* scheduler_;
  sim::TransmitObserver* observer_ = nullptr;
  double now_ = 0.0;
  sim::SimStats stats_;
  std::vector<net::FlowId> active_;  // enlisted flows, in enlist order
};

}  // namespace taps::oracle
