// Test harness for the carried priority orders of PDQ and Baraat: wraps a
// scheduler and, after every rate assignment, recomputes the rates from an
// order sorted fresh (std::sort of the scheduler's own keys over the flows
// still active) and expects them bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "sim/simulator.hpp"
#include "topo/fattree.hpp"
#include "util/rng.hpp"

namespace taps::test {

/// `tasks` tasks of 1-6 flows between random hosts of `ft`, arriving over
/// about a second with deadlines tight enough that some flows cannot make them; the
/// equal-size flows of a task tie on remaining size until they transmit.
inline void add_random_tasks(net::Network& net, const topo::FatTree& ft, std::uint64_t seed,
                             int tasks) {
  util::Rng rng(seed);
  const auto& hosts = ft.hosts();
  const auto n = static_cast<std::int64_t>(hosts.size());
  const double capacity = ft.graph().links().front().capacity;
  double arrival = 0.0;
  for (int t = 0; t < tasks; ++t) {
    arrival += rng.uniform_real(0.0, 2.0 / tasks);
    const double size = capacity * rng.uniform_real(0.01, 0.1);
    std::vector<net::FlowSpec> flows;
    const auto count = rng.uniform_int(1, 6);
    for (std::int64_t i = 0; i < count; ++i) {
      const auto src = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      const auto dst = (src + 1 + static_cast<std::size_t>(rng.uniform_int(0, n - 2))) %
                       hosts.size();
      flows.push_back(flow(hosts[src], hosts[dst], rng.bernoulli(0.5) ? size : size * 0.5));
    }
    add_task(net, arrival, arrival + rng.uniform_real(0.05, 0.5), flows);
  }
}

/// PDQ/Baraat's exclusive allocation over `order`: a flow runs at its path's
/// bottleneck capacity when no higher-ranked flow holds one of its links (and,
/// with `flow_list_limit` > 0, when it ranks within the limit at every switch
/// on its path); otherwise it is paused. Rates indexed by FlowId.
inline std::vector<double> exclusive_rates(const net::Network& net,
                                           const std::vector<net::FlowId>& order,
                                           std::size_t flow_list_limit = 0) {
  std::vector<double> rates(net.flows().size(), 0.0);
  std::vector<char> busy(net.graph().link_count(), 0);
  std::vector<std::size_t> listed(net.graph().node_count(), 0);
  for (const net::FlowId id : order) {
    const net::Flow& f = net.flow(id);
    bool free = true;
    if (flow_list_limit > 0) {
      for (std::size_t i = 1; i < f.path.links.size(); ++i) {
        const auto node = static_cast<std::size_t>(net.graph().link(f.path.links[i]).src);
        if (listed[node]++ >= flow_list_limit) free = false;
      }
    }
    for (const topo::LinkId lid : f.path.links) {
      if (busy[static_cast<std::size_t>(lid)] != 0) free = false;
    }
    if (!free) continue;
    double rate = sim::kInfinity;
    for (const topo::LinkId lid : f.path.links) {
      rate = std::min(rate, net.link_capacity(lid));
      busy[static_cast<std::size_t>(lid)] = 1;
    }
    rates[static_cast<std::size_t>(id)] = rate;
  }
  return rates;
}

/// Forwards every callback to `Sched` and checks each assign_rates call
/// against exclusive_rates over a fresh std::sort of `Sched::Key`s, built by
/// `KeyOf(net, id)`.
template <typename Sched, typename KeyOf>
class FreshOrderCheck final : public sim::Scheduler {
 public:
  FreshOrderCheck(Sched& inner, KeyOf key_of, std::size_t flow_list_limit = 0)
      : inner_(&inner), key_of_(key_of), flow_list_limit_(flow_list_limit) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void bind(net::Network& net) override {
    sim::Scheduler::bind(net);
    inner_->bind(net);
  }
  void on_task_arrival(net::TaskId id, double now) override { inner_->on_task_arrival(id, now); }
  void on_flow_finished(net::FlowId id, double now) override {
    inner_->on_flow_finished(id, now);
  }
  double assign_rates(double now) override {
    const double next = inner_->assign_rates(now);
    check(now);
    return next;
  }

  /// Compare the rates the scheduler just set with the fresh-order rates.
  void check(double now) {
    std::vector<typename Sched::Key> keys;
    for (const net::Flow& f : net_->flows()) {
      if (f.state == net::FlowState::kActive) keys.push_back(key_of_(*net_, f.id()));
    }
    std::sort(keys.begin(), keys.end());
    std::vector<net::FlowId> order;
    for (const auto& k : keys) order.push_back(k.id);
    const std::vector<double> expected = exclusive_rates(*net_, order, flow_list_limit_);
    for (const net::FlowId id : order) {
      EXPECT_EQ(net_->flow(id).rate, expected[static_cast<std::size_t>(id)])
          << "flow " << id << " at t=" << now;
    }
    ++checks_;
    paused_ += static_cast<std::size_t>(
        std::count_if(order.begin(), order.end(), [&](net::FlowId id) {
          return expected[static_cast<std::size_t>(id)] == 0.0;
        }));
  }

  /// assign_rates calls checked, and paused flows seen over all of them.
  [[nodiscard]] std::size_t checks() const { return checks_; }
  [[nodiscard]] std::size_t paused() const { return paused_; }

 private:
  Sched* inner_;
  KeyOf key_of_;
  std::size_t flow_list_limit_;
  std::size_t checks_ = 0;
  std::size_t paused_ = 0;
};

}  // namespace taps::test
