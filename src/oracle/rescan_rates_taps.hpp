// TAPS with the per-event rate rescan: the same admission and planning as
// core::TapsScheduler, but every assign_rates call recomputes every active
// flow's rate from its slices. The oracle the event-driven rate maintenance
// is pinned against (tests/sim/sim_engine_equiv_prop_test.cpp), and the
// rate half of bench_sim_scale's pre-indexed reference configuration.
#pragma once

#include "core/taps_scheduler.hpp"

namespace taps::oracle {

// taps-threading: single-domain -- scheduler state advances under one simulation domain
class RescanRatesTaps : public core::TapsScheduler {
 public:
  using core::TapsScheduler::TapsScheduler;

  double assign_rates(double now) override { return assign_rates_reference(now); }
};

}  // namespace taps::oracle
