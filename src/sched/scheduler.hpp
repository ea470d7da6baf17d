// Shared infrastructure for concrete schedulers: active-flow bookkeeping,
// flow-level ECMP path assignment, and max-min progressive filling (used by
// Fair Sharing, and for spare-capacity redistribution in D3/Varys).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace taps::sched {

/// Default cap on candidate paths considered per flow (fat-tree pairs can
/// have hundreds of equal-cost paths; see DESIGN.md).
inline constexpr std::size_t kDefaultMaxPaths = 16;

class ScheduleObserver;

// taps-threading: single-domain -- scheduler state advances under one simulation domain
class BaseScheduler : public sim::Scheduler {
 public:
  void bind(net::Network& net) override;

  void on_flow_finished(net::FlowId id, double now) override;

  /// Attach a decision observer (see sched/schedule_observer.hpp), e.g.
  /// sim::TimelineRecorder. Survives bind(), so it can be set once before a
  /// run. Pure observation: decisions are bit-identical with or without one
  /// attached. Pass nullptr to detach.
  void set_schedule_observer(ScheduleObserver* observer) { schedule_observer_ = observer; }
  [[nodiscard]] ScheduleObserver* schedule_observer() const { return schedule_observer_; }

 protected:
  /// Admit the task's currently-arriving flows (those still kPending with
  /// arrival <= now): route each with ECMP and mark it active. Later waves
  /// of the same task are admitted when their arrival event fires. Waves of
  /// a task that was rejected as a whole are declined outright.
  void admit_all_ecmp(net::TaskId id, double now);

  /// The task's flows that are arriving at `now` and not yet handled.
  [[nodiscard]] std::vector<net::FlowId> pending_wave(net::TaskId id, double now) const;

  /// Assign a deterministic hash-based ECMP path to one flow.
  void route_ecmp(net::Flow& f);

  /// Flows currently admitted and unfinished (pruned on demand).
  [[nodiscard]] std::vector<net::FlowId>& active_flows();

  /// Max-min fair ("progressive filling") allocation of `residual` link
  /// capacity among `flows` (no duplicate ids), *added* to each flow's
  /// current rate. `residual` is indexed by LinkId and is consumed in place.
  /// Runs link by link (see DESIGN.md "Rate assignment"); rates, residuals
  /// and the arena's dirty set are bit-identical to the flow-major
  /// oracle::progressive_fill_reference.
  void progressive_fill(const std::vector<net::FlowId>& flows, std::vector<double>& residual);

  /// Weighted variant: each unfrozen flow's rate grows proportionally to
  /// `weights[flow]` (indexed by FlowId) until a link saturates. With all
  /// weights equal it reduces to progressive_fill. Used by D2TCP's
  /// deadline-urgency-weighted sharing.
  void progressive_fill_weighted(const std::vector<net::FlowId>& flows,
                                 std::vector<double>& residual,
                                 const std::vector<double>& weights);

  std::vector<net::FlowId> active_;
  // Scratch buffers reused across assign_rates calls (sized to link count).
  std::vector<double> residual_;
  std::vector<double> link_weight_;

 private:
  // progressive_fill's scratch, owned here and reused across calls, so a
  // warm fill allocates nothing. Created by the first fill after bind():
  // schedulers that never fill (TAPS, PDQ, Baraat) carry none of it. "Dense" indices number the links the alive
  // flows use in first-touch order; "slots" order the links by how many
  // rising flows cross them, descending, so the links with at least k
  // crossings are always the prefix [0, layer_end[k]).
  // taps-threading: thread-compatible
  struct FillScratch {
    using Index = std::uint32_t;  // half the bytes of size_t: the scratch stays in cache
    static constexpr Index kNone = ~Index{0};

    std::vector<Index> dense_of_link;   // LinkId -> dense index, kNone between calls
    std::vector<topo::LinkId> links;    // dense -> LinkId
    std::vector<Index> count;           // dense -> alive flows crossing it
    std::vector<net::FlowId> alive;     // flows with bytes left, in input order
    std::vector<Index> crossing_begin;  // dense -> its first entry in `crossing`
    std::vector<Index> crossing;        // alive flows crossing each link (CSR)
    std::vector<Index> cursor;          // fill positions while building the above
    std::vector<Index> slot_of;         // dense -> slot
    std::vector<Index> dense_at;        // slot -> dense
    std::vector<double> res;            // slot -> residual capacity
    std::vector<double> cnt;            // slot -> rising flows crossing it
    std::vector<double> quotient;       // slot -> res / cnt this round
    std::vector<Index> layer_end;       // k -> slots with cnt >= k
    std::vector<Index> saturated;       // dense links at or below kEps this round
    std::vector<Index> frozen_at;       // alive flow -> round it froze in, 0 if rising
    std::vector<double> shares;         // share of each round
    std::vector<double> prefix;         // 0.0 + shares[0] + ... in round order
  };

  /// One rising flow stops crossing dense link `dense`: swap the link to the
  /// end of its count's bucket, which then becomes the next bucket's head
  /// (k-core peeling), so the slots stay sorted in O(1).
  void drop_crossing(FillScratch::Index dense);

  std::unique_ptr<FillScratch> fill_;
  std::size_t max_paths_ = kDefaultMaxPaths;
  ScheduleObserver* schedule_observer_ = nullptr;
};

}  // namespace taps::sched
