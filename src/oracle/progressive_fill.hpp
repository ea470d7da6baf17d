// The flow-major max-min water-filling sched::BaseScheduler::progressive_fill
// is pinned against (tests/sched/progressive_fill_equiv_prop_test.cpp).
//
// Every round rescans every link the alive flows use for the bottleneck
// share, then walks each alive flow's path twice: once to add the share to
// its rate and subtract it from every link it crosses, once to freeze it if
// any of those links is saturated.
#pragma once

#include <vector>

#include "net/network.hpp"

namespace taps::oracle {

/// Max-min fair allocation of `residual` link capacity (indexed by LinkId,
/// consumed in place) among the unfinished flows of `flows` with bytes
/// left, *added* to each flow's current rate through Flow::set_rate.
void progressive_fill_reference(net::Network& net, const std::vector<net::FlowId>& flows,
                                std::vector<double>& residual);

}  // namespace taps::oracle
