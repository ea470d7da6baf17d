#include "sched/scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "util/rng.hpp"

namespace taps::sched {

namespace {

/// std::min over `v[0..n)` (kInfinity when empty) in four independent
/// lanes, so the compares overlap instead of forming one dependency chain.
/// Exact: the minimum value does not depend on the order, and a NaN is
/// skipped either way.
double min_of(const double* v, std::size_t n) {
  double lane[4] = {sim::kInfinity, sim::kInfinity, sim::kInfinity, sim::kInfinity};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) lane[j] = std::min(lane[j], v[i + j]);
  }
  for (; i < n; ++i) lane[0] = std::min(lane[0], v[i]);
  return std::min(std::min(lane[0], lane[1]), std::min(lane[2], lane[3]));
}

}  // namespace

using net::Flow;
using net::FlowId;
using net::FlowState;
using net::TaskId;
using net::TaskState;

void BaseScheduler::bind(net::Network& net) {
  sim::Scheduler::bind(net);
  active_.clear();
  residual_.assign(net.graph().link_count(), 0.0);
  link_weight_.assign(net.graph().link_count(), 0.0);
  fill_.reset();
}

void BaseScheduler::on_flow_finished(net::FlowId /*id*/, double /*now*/) {
  // Finished flows are pruned lazily by active_flows() at the next
  // assign_rates call; an eager std::erase here is O(active) per completion
  // (O(n^2) over a run) and bought nothing the prune doesn't.
}

std::vector<FlowId> BaseScheduler::pending_wave(TaskId id, double now) const {
  std::vector<FlowId> wave;
  wave.reserve(net_->task(id).spec.flows.size());
  for (const FlowId fid : net_->task(id).spec.flows) {
    const Flow& f = net_->flow(fid);
    if (f.state == FlowState::kPending && f.spec.arrival <= now + sim::kTimeEpsilon) {
      wave.push_back(fid);
    }
  }
  return wave;
}

void BaseScheduler::admit_all_ecmp(TaskId id, double now) {
  net::Task& t = net_->task(id);
  const std::vector<FlowId> wave = pending_wave(id, now);
  if (t.state == TaskState::kRejected) {
    // The whole task was declined earlier; its later waves never transmit.
    for (const FlowId fid : wave) net_->flow(fid).state = FlowState::kRejected;
    return;
  }
  if (t.state == TaskState::kPending) t.state = TaskState::kAdmitted;
  for (const FlowId fid : wave) {
    Flow& f = net_->flow(fid);
    route_ecmp(f);
    f.state = FlowState::kActive;
    active_.push_back(fid);
  }
}

void BaseScheduler::route_ecmp(Flow& f) {
  const auto candidates = net_->topology().paths(f.spec.src, f.spec.dst, max_paths_);
  assert(!candidates.empty());
  const std::uint64_t h = util::hash_combine(static_cast<std::uint64_t>(f.id()) + 1,
                                             0x9d2c5680u ^ static_cast<std::uint64_t>(f.spec.src));
  f.path = topo::pick_ecmp(candidates, h);
}

std::vector<FlowId>& BaseScheduler::active_flows() {
  std::erase_if(active_, [this](FlowId id) { return net_->flow(id).finished(); });
  return active_;
}

void BaseScheduler::progressive_fill(const std::vector<FlowId>& flows,
                                     std::vector<double>& residual) {
  // Water-filling: raise every rising flow's rate by the bottleneck share
  // until a link saturates; freeze the flows crossing it; repeat. Link-major:
  // a round touches each live link once per rising flow crossing it, and
  // each flow's rate is written once at the end.
  using Index = FillScratch::Index;
  constexpr double kEps = 1e-9;
  if (!fill_) {
    fill_ = std::make_unique<FillScratch>();
    fill_->dense_of_link.assign(net_->graph().link_count(), FillScratch::kNone);
  }
  FillScratch& s = *fill_;

  // Alive flows, and the links they use numbered in first-touch order.
  s.alive.clear();
  s.links.clear();
  s.count.clear();
  for (const FlowId fid : flows) {
    const Flow& f = net_->flow(fid);
    if (f.finished() || f.remaining <= sim::kByteEpsilon) continue;
    s.alive.push_back(fid);
    for (const topo::LinkId lid : f.path.links) {
      Index& d = s.dense_of_link[static_cast<std::size_t>(lid)];
      if (d == FillScratch::kNone) {
        d = static_cast<Index>(s.links.size());
        s.links.push_back(lid);
        s.count.push_back(0);
      }
      ++s.count[d];
    }
  }
  const auto n_alive = static_cast<Index>(s.alive.size());
  const auto n_links = static_cast<Index>(s.links.size());

  // Link -> alive-flow index (CSR). Paths are read from the flows again
  // rather than copied: a copy would add as many entries again as the index
  // itself, which shows in peak RSS.
  s.crossing_begin.assign(n_links + 1, 0);
  for (Index d = 0; d < n_links; ++d) {
    s.crossing_begin[d + 1] = s.crossing_begin[d] + s.count[d];
  }
  s.cursor.assign(s.crossing_begin.begin(), s.crossing_begin.end() - 1);
  s.crossing.resize(s.crossing_begin[n_links]);
  for (Index a = 0; a < n_alive; ++a) {
    for (const topo::LinkId lid : net_->flow(s.alive[a]).path.links) {
      s.crossing[s.cursor[s.dense_of_link[static_cast<std::size_t>(lid)]]++] = a;
    }
  }

  // Slots: the links by count, descending (counting sort). layer_end[k] is
  // the number of links with count >= k; layer_end[max + 1] = 0 ends the
  // layer loop.
  const Index max_count = n_links == 0 ? 0 : *std::max_element(s.count.begin(), s.count.end());
  s.layer_end.assign(max_count + 2, 0);
  for (const Index c : s.count) ++s.layer_end[c];
  for (Index k = max_count; k-- > 1;) s.layer_end[k] += s.layer_end[k + 1];
  s.cursor.assign(s.layer_end.begin(), s.layer_end.end());
  s.slot_of.resize(n_links);
  s.dense_at.resize(n_links);
  s.res.resize(n_links);
  s.cnt.resize(n_links);
  s.quotient.resize(n_links);
  for (Index d = 0; d < n_links; ++d) {
    const Index slot = --s.cursor[s.count[d]];
    s.slot_of[d] = slot;
    s.dense_at[slot] = d;
    s.res[slot] = residual[static_cast<std::size_t>(s.links[d])];
    s.cnt[slot] = static_cast<double>(s.count[d]);
  }

  s.frozen_at.assign(n_alive, 0);
  s.shares.clear();
  for (Index live = n_links; live > 0; live = s.layer_end[1]) {
    // Bottleneck share: the smallest per-flow increment that saturates a
    // live link. The quotients are exact per element, so computing them
    // apart vectorises; min ignores order except between +0 and -0, where
    // the flow-major scan keeps the first link in first-touch order.
    for (Index i = 0; i < live; ++i) s.quotient[i] = s.res[i] / s.cnt[i];
    double share = min_of(s.quotient.data(), live);
    if (share == sim::kInfinity) break;
    if (share == 0.0) {
      Index first = FillScratch::kNone;
      for (Index i = 0; i < live; ++i) {
        if (s.quotient[i] == 0.0 && s.dense_at[i] < first) {
          first = s.dense_at[i];
          share = s.quotient[i];
        }
      }
    }
    share = std::max(share, 0.0);
    s.shares.push_back(share);

    // Layer k subtracts the share once from every link with >= k rising
    // flows, so each link gets exactly one subtraction per crossing, as in
    // the flow-major walk. Never fold them into cnt * share: repeated
    // subtraction rounds differently.
    double* const res = s.res.data();
    for (Index k = 1; s.layer_end[k] > 0; ++k) {
      for (Index i = 0, n = s.layer_end[k]; i < n; ++i) res[i] -= share;
    }

    // Freeze every rising flow that crosses a saturated link. If none is
    // saturated (numerical guard), this round's share still counts.
    s.saturated.clear();
    for (Index i = 0; i < live; ++i) {
      if (res[i] <= kEps) s.saturated.push_back(s.dense_at[i]);
    }
    if (s.saturated.empty()) break;
    const auto round = static_cast<Index>(s.shares.size());
    for (const Index d : s.saturated) {
      for (Index c = s.crossing_begin[d]; c < s.crossing_begin[d + 1]; ++c) {
        const Index a = s.crossing[c];
        if (s.frozen_at[a] != 0) continue;
        s.frozen_at[a] = round;
        for (const topo::LinkId lid : net_->flow(s.alive[a]).path.links) {
          drop_crossing(s.dense_of_link[static_cast<std::size_t>(lid)]);
        }
      }
    }
  }

  // Each flow's rate: its start rate plus the shares of the rounds it rose
  // in, added in round order. Flows starting at zero share one prefix sum.
  const auto rounds = static_cast<Index>(s.shares.size());
  s.prefix.resize(rounds + 1);
  s.prefix[0] = 0.0;
  for (Index r = 0; r < rounds; ++r) s.prefix[r + 1] = s.prefix[r] + s.shares[r];
  for (Index a = 0; a < n_alive; ++a) {
    const Index rose = s.frozen_at[a] != 0 ? s.frozen_at[a] : rounds;
    if (rose == 0) continue;
    const Flow& f = net_->flow(s.alive[a]);
    double rate = f.rate;
    if (rate == 0.0) {
      rate = s.prefix[rose];
    } else {
      for (Index r = 0; r < rose; ++r) rate += s.shares[r];
    }
    f.set_rate(rate);
  }

  for (Index slot = 0; slot < n_links; ++slot) {
    residual[static_cast<std::size_t>(s.links[s.dense_at[slot]])] = s.res[slot];
  }
  for (const topo::LinkId lid : s.links) {
    s.dense_of_link[static_cast<std::size_t>(lid)] = FillScratch::kNone;
  }
}

void BaseScheduler::drop_crossing(FillScratch::Index dense) {
  FillScratch& s = *fill_;
  const FillScratch::Index i = s.slot_of[dense];
  const auto c = static_cast<FillScratch::Index>(s.cnt[i]);
  const FillScratch::Index j = --s.layer_end[c];  // last slot with count >= c holds count c
  if (i != j) {
    std::swap(s.res[i], s.res[j]);
    std::swap(s.dense_at[i], s.dense_at[j]);
    s.slot_of[s.dense_at[i]] = i;
    s.slot_of[dense] = j;
  }
  s.cnt[j] -= 1.0;
}

void BaseScheduler::progressive_fill_weighted(const std::vector<FlowId>& flows,
                                              std::vector<double>& residual,
                                              const std::vector<double>& weights) {
  constexpr double kEps = 1e-9;

  std::vector<FlowId> alive;
  alive.reserve(flows.size());
  std::vector<topo::LinkId> used_links;
  for (const FlowId fid : flows) {
    const Flow& f = net_->flow(fid);
    if (f.finished() || f.remaining <= sim::kByteEpsilon) continue;
    if (weights[static_cast<std::size_t>(fid)] <= 0.0) continue;
    alive.push_back(fid);
    for (const topo::LinkId lid : f.path.links) {
      const auto i = static_cast<std::size_t>(lid);
      if (link_weight_[i] == 0.0) used_links.push_back(lid);
      link_weight_[i] += weights[static_cast<std::size_t>(fid)];
    }
  }

  while (!alive.empty()) {
    // Smallest per-unit-weight increment that saturates some link.
    double unit = sim::kInfinity;
    for (const topo::LinkId lid : used_links) {
      const auto i = static_cast<std::size_t>(lid);
      if (link_weight_[i] > 0.0) unit = std::min(unit, residual[i] / link_weight_[i]);
    }
    if (unit == sim::kInfinity) break;
    unit = std::max(unit, 0.0);

    for (const FlowId fid : alive) {
      const double inc = unit * weights[static_cast<std::size_t>(fid)];
      const Flow& f = net_->flow(fid);
      f.set_rate(f.rate + inc);
      for (const topo::LinkId lid : f.path.links) {
        residual[static_cast<std::size_t>(lid)] -= inc;
      }
    }
    std::vector<FlowId> still_alive;
    still_alive.reserve(alive.size());
    for (const FlowId fid : alive) {
      const Flow& f = net_->flow(fid);
      bool frozen = false;
      for (const topo::LinkId lid : f.path.links) {
        if (residual[static_cast<std::size_t>(lid)] <= kEps) {
          frozen = true;
          break;
        }
      }
      if (frozen) {
        for (const topo::LinkId lid : f.path.links) {
          link_weight_[static_cast<std::size_t>(lid)] -=
              weights[static_cast<std::size_t>(fid)];
        }
      } else {
        still_alive.push_back(fid);
      }
    }
    if (still_alive.size() == alive.size()) break;  // numerical guard
    alive = std::move(still_alive);
  }
  for (const FlowId fid : alive) {
    for (const topo::LinkId lid : net_->flow(fid).path.links) {
      link_weight_[static_cast<std::size_t>(lid)] -= weights[static_cast<std::size_t>(fid)];
    }
  }
  for (const topo::LinkId lid : used_links) {
    link_weight_[static_cast<std::size_t>(lid)] = 0.0;
  }
}

}  // namespace taps::sched
