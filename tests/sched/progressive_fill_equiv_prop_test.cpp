// Progressive-filling equivalence: BaseScheduler::progressive_fill (link by
// link) must reproduce oracle::progressive_fill_reference (flow by flow) bit
// for bit — every flow's rate, the whole residual vector and the arena's
// rate-dirty set — on random fat-tree and dumbbell flow sets. The inputs mix
// zero and non-zero start rates (D3 grants, Varys reservations), links that
// start at or below the saturation threshold (including -0.0, where only the
// first-touch tie-break fixes the sign of a zero share), finished and
// zero-remaining flows, and the empty input. Counterexamples shrink to a
// minimal item list.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/prop.hpp"
#include "oracle/progressive_fill.hpp"
#include "sched/scheduler.hpp"
#include "topo/fattree.hpp"

namespace taps::sched {
namespace {

/// Exposes the protected fill; the scheduler callbacks are never driven.
class FillProbe final : public BaseScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "fill-probe"; }
  void on_task_arrival(net::TaskId /*id*/, double /*now*/) override {}
  double assign_rates(double /*now*/) override { return sim::kInfinity; }
  using BaseScheduler::progressive_fill;
};

enum class FlowKind : std::uint8_t { kRising, kFinished, kNoBytes };

/// One generated input element: a flow, or an override of one link's
/// starting residual.
struct FillItem {
  bool is_link = false;
  // Flow: hosts by index into the topology's host list, an ECMP pick among
  // the candidate paths, and a start rate (0 for Fair Sharing).
  std::size_t src = 0;
  std::size_t dst = 0;
  std::uint64_t route = 0;
  double start_rate = 0.0;
  FlowKind kind = FlowKind::kRising;
  // Link override: link index (mod link count) and its starting residual.
  std::size_t link = 0;
  double residual = 0.0;
};

std::ostream& operator<<(std::ostream& os, const FillItem& it) {
  std::ostringstream v;
  v << std::hexfloat;
  if (it.is_link) {
    v << "link " << it.link << " residual=" << it.residual;
  } else {
    v << "flow " << it.src << "->" << it.dst << " route=" << it.route
      << " start_rate=" << it.start_rate << " kind=" << static_cast<int>(it.kind);
  }
  return os << v.str();
}

std::vector<FillItem> generate_items(util::Rng& rng, std::size_t hosts, double capacity) {
  std::vector<FillItem> items(static_cast<std::size_t>(rng.uniform_int(0, 48)));
  const bool with_start_rates = rng.bernoulli(0.5);
  for (FillItem& it : items) {
    if (rng.bernoulli(0.15)) {
      it.is_link = true;
      it.link = static_cast<std::size_t>(rng.uniform_int(0, 1'000'000));
      static constexpr double kLow[] = {0.0, -0.0, 1e-9, 5e-10, -1e-6, 2e-9};
      const auto low = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(std::size(kLow)) - 1));
      it.residual = rng.bernoulli(0.7) ? kLow[low] : capacity * rng.uniform_real(0.0, 1.0);
      continue;
    }
    const auto n = static_cast<std::int64_t>(hosts);
    it.src = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    it.dst = (it.src + 1 + static_cast<std::size_t>(rng.uniform_int(0, n - 2))) % hosts;
    it.route = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000));
    if (with_start_rates && rng.bernoulli(0.6)) {
      it.start_rate = capacity * rng.uniform_real(0.0, 0.4);
    }
    const double kind = rng.uniform_real(0.0, 1.0);
    it.kind = kind < 0.8   ? FlowKind::kRising
              : kind < 0.9 ? FlowKind::kFinished
                           : FlowKind::kNoBytes;
  }
  return items;
}

/// One side of the comparison: a network holding the items' flows with
/// their start rates set (and the dirty list drained), plus the starting
/// residuals — D3-style: each link's capacity less the start rates on it,
/// then the link overrides.
struct FillInput {
  net::Network net;
  std::vector<net::FlowId> flows;
  std::vector<double> residual;

  FillInput(const topo::Topology& topology, const std::vector<FillItem>& items) : net(topology) {
    const std::vector<topo::NodeId>& hosts = topology.hosts();
    residual.resize(net.graph().link_count());
    for (const topo::Link& l : net.graph().links()) {
      residual[static_cast<std::size_t>(l.id)] = l.capacity;
    }
    for (const FillItem& it : items) {
      if (it.is_link) continue;
      std::vector<net::FlowSpec> spec{test::flow(hosts[it.src], hosts[it.dst], 1e6)};
      const net::TaskId t = test::add_task(net, 0.0, 1.0, spec);
      const net::FlowId fid = net.task(t).spec.flows.front();
      net::Flow& f = net.flow(fid);
      const auto paths = topology.paths(f.spec.src, f.spec.dst, kDefaultMaxPaths);
      f.path = paths[it.route % paths.size()];
      f.state = it.kind == FlowKind::kFinished ? net::FlowState::kCompleted
                                               : net::FlowState::kActive;
      if (it.kind == FlowKind::kNoBytes) f.remaining = 0.0;
      f.set_rate(it.start_rate);
      for (const topo::LinkId lid : f.path.links) {
        residual[static_cast<std::size_t>(lid)] -= it.start_rate;
      }
      flows.push_back(fid);
    }
    for (const FillItem& it : items) {
      if (it.is_link) residual[it.link % residual.size()] = it.residual;
    }
    std::vector<net::FlowId> drained;
    net.flow_state().drain_dirty(drained);
  }
};

std::vector<net::FlowId> sorted_dirty(net::Network& net) {
  std::vector<net::FlowId> dirty;
  net.flow_state().drain_dirty(dirty);
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Run both fills on identical inputs; nullopt when they agree bitwise.
/// `rated` counts flows whose rate the fill changed, so callers can check
/// the property is not vacuous.
std::optional<std::string> compare_fills(const topo::Topology& topology,
                                         const std::vector<FillItem>& items,
                                         std::size_t* rated = nullptr) {
  FillInput ref(topology, items);
  FillInput fast(topology, items);
  oracle::progressive_fill_reference(ref.net, ref.flows, ref.residual);
  FillProbe probe;
  probe.bind(fast.net);
  probe.progressive_fill(fast.flows, fast.residual);

  std::ostringstream diff;
  diff << std::hexfloat;
  for (const net::FlowId fid : ref.flows) {
    const double want = ref.net.flow(fid).rate;
    const double got = fast.net.flow(fid).rate;
    if (bits(want) != bits(got)) {
      diff << "flow " << fid << " rate: reference " << want << ", link-major " << got;
      return diff.str();
    }
  }
  for (std::size_t l = 0; l < ref.residual.size(); ++l) {
    if (bits(ref.residual[l]) != bits(fast.residual[l])) {
      diff << "link " << l << " residual: reference " << ref.residual[l] << ", link-major "
           << fast.residual[l];
      return diff.str();
    }
  }
  const std::vector<net::FlowId> want_dirty = sorted_dirty(ref.net);
  const std::vector<net::FlowId> got_dirty = sorted_dirty(fast.net);
  if (want_dirty != got_dirty) {
    return "dirty sets differ: reference " + std::to_string(want_dirty.size()) +
           " flows, link-major " + std::to_string(got_dirty.size());
  }
  if (rated != nullptr) *rated += want_dirty.size();
  return std::nullopt;
}

TAPS_PROP(ProgressiveFillEquivProp, FatTreeMatchesReferenceBitwise, 300) {
  const topo::FatTree topology(topo::FatTreeConfig{4, topo::kGigabitPerSecond});
  const double capacity = topology.graph().links().front().capacity;
  std::size_t rated = 0;
  prop.for_all(
      [&](util::Rng& rng) { return generate_items(rng, topology.hosts().size(), capacity); },
      [&](const std::vector<FillItem>& items) { return compare_fills(topology, items, &rated); });
  EXPECT_GT(rated, 1000u);  // the fills actually re-rated flows
}

TAPS_PROP(ProgressiveFillEquivProp, DumbbellMatchesReferenceBitwise, 300) {
  const test::Dumbbell d = test::make_dumbbell(6, 1.0);
  std::size_t rated = 0;
  prop.for_all(
      [&](util::Rng& rng) { return generate_items(rng, d.topology->hosts().size(), 1.0); },
      [&](const std::vector<FillItem>& items) {
        return compare_fills(*d.topology, items, &rated);
      });
  EXPECT_GT(rated, 1000u);
}

TEST(ProgressiveFillEquiv, EmptyInputTouchesNothing) {
  const topo::FatTree topology(topo::FatTreeConfig{4, topo::kGigabitPerSecond});
  EXPECT_EQ(compare_fills(topology, {}), std::nullopt);

  // Only finished and zero-remaining flows: nothing is alive, so neither
  // fill rates a flow or consumes a byte of residual.
  FillItem done;
  done.dst = 5;
  done.start_rate = 7.0;
  done.kind = FlowKind::kFinished;
  FillItem empty = done;
  empty.kind = FlowKind::kNoBytes;
  FillInput in(topology, {done, empty});
  const std::vector<double> before = in.residual;
  FillProbe probe;
  probe.bind(in.net);
  probe.progressive_fill(in.flows, in.residual);
  EXPECT_EQ(in.net.flow(in.flows[0]).rate, 7.0);
  EXPECT_EQ(in.net.flow(in.flows[1]).rate, 7.0);
  EXPECT_TRUE(sorted_dirty(in.net).empty());
  for (std::size_t l = 0; l < before.size(); ++l) EXPECT_EQ(bits(before[l]), bits(in.residual[l]));
}

/// Reusing one scheduler's scratch across calls of different shapes gives
/// the same answer as a fresh fill each time.
TEST(ProgressiveFillEquiv, ScratchReuseAcrossCallsMatchesReference) {
  const topo::FatTree topology(topo::FatTreeConfig{4, topo::kGigabitPerSecond});
  const double capacity = topology.graph().links().front().capacity;
  util::Rng rng(2024);
  FillProbe probe;
  for (int call = 0; call < 20; ++call) {
    const std::vector<FillItem> items = generate_items(rng, topology.hosts().size(), capacity);
    FillInput ref(topology, items);
    oracle::progressive_fill_reference(ref.net, ref.flows, ref.residual);
    // One probe, re-bound per network but with its scratch vectors carried
    // over from the previous (differently shaped) call.
    FillInput fast(topology, items);
    probe.bind(fast.net);
    probe.progressive_fill(fast.flows, fast.residual);
    for (const net::FlowId fid : ref.flows) {
      ASSERT_EQ(bits(ref.net.flow(fid).rate), bits(fast.net.flow(fid).rate)) << "call " << call;
    }
    for (std::size_t l = 0; l < ref.residual.size(); ++l) {
      ASSERT_EQ(bits(ref.residual[l]), bits(fast.residual[l])) << "call " << call;
    }
  }
}

}  // namespace
}  // namespace taps::sched
