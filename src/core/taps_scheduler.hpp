// The TAPS scheduler (Algorithm 1): task-level, deadline-aware, preemptive.
//
// On every task arrival the controller re-plans globally: it takes all
// unfinished flows of admitted tasks plus the new task's flows, sorts them
// EDF+SJF, runs PathCalculation/TimeAllocation (Algorithms 2/3) to produce a
// trial schedule, and applies the reject rule. Accepted flows receive
// pre-allocated transmission time slices; each link carries at most one flow
// at any instant and flows transmit at full link rate inside their slices.
//
// Each arrival runs Algorithm 1's cascade once, as a journaled session over
// the live committed occupancy (see "admission sessions" below). The
// from-scratch replan it is pinned against is oracle::FullReplanTaps.
//
// In this simulation model all flows of a task arrive together (as in the
// paper's evaluation), which corresponds to Algorithm 1's gather window T
// collapsing to the task batch.
#pragma once

#include <cstdint>
#include <queue>

#include "core/reject_rule.hpp"
#include "sched/scheduler.hpp"

namespace taps::core {

// taps-threading: thread-compatible
struct TapsConfig {
  /// Candidate-path budget per flow for Algorithm 2.
  std::size_t max_paths = 16;
  /// Reject-rule preemption reading (see PreemptPolicy). Default is the
  /// paper's literal progress-based comparison.
  PreemptPolicy preempt_policy = PreemptPolicy::kProgress;
  /// Ablation: pin each flow to an ECMP-hashed path instead of centralized
  /// earliest-completion path selection (see PlanConfig::ecmp_routing).
  bool ecmp_routing = false;
  /// Deadline slack budgeted for data-plane pipeline latency (see
  /// PlanConfig::guard_band). Keep 0 for the paper's fluid evaluation; set
  /// to ~a few packet times x path length on packet networks.
  double guard_band = 0.0;
  /// Test-only seeded mutation (see PlanConfig::fault_skip_occupy): the
  /// invariant oracle's negative test proves it catches the resulting
  /// exclusivity breach. Never set outside tests.
  net::FlowId fault_skip_occupy = net::kInvalidFlow;
  /// Trim committed occupancy and per-flow slices below `now` every this
  /// many task arrivals (0 disables). Bounds memory on long runs; planning
  /// only reads occupancy at or after `now`, so trimming never changes a
  /// schedule.
  std::size_t trim_interval = 64;
};

// taps-threading: thread-compatible
struct TapsCounters {
  std::size_t tasks_accepted = 0;
  std::size_t tasks_rejected = 0;
  std::size_t tasks_preempted = 0;
  std::size_t replans = 0;
  /// Compacting re-plans abandoned because the greedy allocator would have
  /// stranded an already-admitted flow (the prior plan was kept instead).
  std::size_t replan_reverts = 0;
  /// Replans where the incumbents were still in EDF+SJF order from the last
  /// commit, so only the arriving wave was sorted and merged in (vs
  /// full_sorts, where remaining-size drift forced a full re-sort).
  std::size_t incremental_sorts = 0;
  std::size_t full_sorts = 0;
  /// Flow positions actually planned by running Algorithms 2/3
  /// (plan_one_flow calls). The planner-effort denominator for the two
  /// reuse counters below.
  std::size_t flows_planned = 0;
  /// Flow positions satisfied by adopting the committed plan's still-valid
  /// leading prefix at session open instead of replanning them
  /// (cross-arrival prefix reuse).
  std::size_t cross_arrival_reuse_flows = 0;
  /// Flow positions kept from an earlier plan of the same arrival when the
  /// preemption-validation or compacting replan resumed from a prefix
  /// checkpoint (within-arrival reuse).
  std::size_t checkpoint_reuse_flows = 0;
  /// Sessions abandoned mid-arrival because a later replan of the same
  /// arrival diverged inside the adopted prefix (e.g. the preemption victim
  /// owned one of the adopted flows), forcing a rollback to the committed
  /// state and a fresh session open.
  std::size_t session_restarts = 0;
  /// Periodic occupancy/slice trims (TapsConfig::trim_interval).
  std::size_t occupancy_trims = 0;
  /// Plans committed (arrivals that changed the schedule: admissions plus
  /// successful compacting replans).
  std::size_t plan_commits = 0;
  /// Per-flow (re)grants: committed entries whose path or slices changed
  /// relative to the previous commit. Exactly the grant events a
  /// sim::TimelineRecorder would record (docs/TIMELINE.md), counted whether
  /// or not one is attached — so sweep CSVs stay byte-identical either way.
  std::size_t slice_grants = 0;
  /// Always 0: nothing increments it. perfbench/harness/common.hpp still reads it.
  std::size_t pod_fast_rejects = 0;
};

// taps-threading: single-domain -- scheduler state advances under one simulation domain
class TapsScheduler : public sched::BaseScheduler {
 public:
  explicit TapsScheduler(const TapsConfig& config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "TAPS"; }

  void bind(net::Network& net) override;
  void on_task_arrival(net::TaskId id, double now) override;
  void on_flow_finished(net::FlowId id, double now) override;
  /// Event-driven rate maintenance: refreshes only the flows whose slice-
  /// boundary heap entry expired plus the flows whose committed slices
  /// changed since the last call, instead of rescanning every active flow.
  /// A flow's rate is a pure step function of its committed slices, so rates
  /// and the returned next boundary are bit-identical to the rescan (pinned
  /// by tests/sim/sim_engine_equiv_prop_test.cpp against
  /// oracle::RescanRatesTaps). If a flow ever needs makeup transmission
  /// (impossible under the fluid engine, common in hand-built unit tests),
  /// the scheduler permanently falls back to the rescan, which implements it.
  double assign_rates(double now) override;

  /// Pre-allocated slices of a flow (for tests / the SDN controller).
  [[nodiscard]] const util::IntervalSet& slices(net::FlowId id) const {
    return slices_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const OccupancyMap& occupancy() const { return occ_; }
  [[nodiscard]] const TapsCounters& counters() const { return counters_; }

  /// Move the committed scheduler state onto `fresh`, a re-registration of
  /// the current network's unfinished tasks (same flow states/remaining
  /// bitwise, same relative order). `flow_map[old_id]` gives each old flow's
  /// id in `fresh`, or net::kInvalidFlow for flows that were dropped
  /// (finished tasks). Counters, the committed occupancy and the
  /// cross-arrival validity token carry over, so subsequent decisions are
  /// bit-identical to never having migrated: kept ids preserve relative
  /// order (every EDF+SJF tie-break compares the same way), dropped flows
  /// can only own past occupancy, which planning (always querying at or
  /// after `now`) never reads and trimming eventually drops, and the
  /// candidate-path cache is rebuilt lazily from immutable (src, dst) pairs.
  /// This is how the long-lived controller service (svc::Shard) bounds the
  /// task/flow registry on unbounded arrival streams. Must be called
  /// between arrivals (no open session); active_ is rebuilt in flow-id
  /// order, so assign_rates() makeup tie-breaks may differ afterwards — the
  /// service never calls assign_rates.
  void migrate(net::Network& fresh, const std::vector<net::FlowId>& flow_map);

 protected:
  /// The full rescan: every active flow's rate from its slices at `now`,
  /// plus makeup transmission (its only implementation). assign_rates
  /// falls back to it; oracle::RescanRatesTaps runs it on every event.
  double assign_rates_reference(double now);

 private:
  void admit(net::TaskId id, const std::vector<net::FlowId>& wave, double now);

  /// Sort `order` EDF+SJF. The first `sorted_prefix` entries are known to be
  /// in committed order (modulo remaining-size drift on deadline ties, which
  /// is re-checked): when the check holds, only the tail is sorted and
  /// merged in. The comparator is a strict total order, so either route
  /// yields the identical unique ordering.
  void sort_order(std::vector<net::FlowId>& order, std::size_t sorted_prefix);

  // ---- admission sessions ----
  //
  // One arrival runs as a *session* that mutates the committed map occ_ in
  // place under journal_: the committed plan's still-valid leading prefix is
  // adopted untouched (zero cost), everything after it is vacated, and the
  // tail is replanned with every mutation logged. Later replans of the same
  // arrival (preemption validation, compacting) roll back to the checkpoint
  // of the longest shared prefix and replan only from there. Reverting the
  // whole arrival is a rollback to the session start. See DESIGN.md
  // ("Admission pipeline") for why schedules stay bit-identical to the
  // from-scratch replan.
  /// Start a session against `target` (requires an empty journal): walk the
  /// committed order, vacating spent/broken entries and adopting the leading
  /// prefix a from-scratch replan provably reproduces. Adoption is off
  /// while cross_arrival_valid_ is false or a fault flow is configured.
  void open_session(const std::vector<net::FlowId>& target, double now);
  /// Re-aim the current session at a new target order: roll back to the
  /// checkpoint of the longest shared prefix (or restart the session when
  /// the divergence lies inside the adopted prefix) and replan the tail.
  void resume_session(const std::vector<net::FlowId>& target, double now);
  void plan_tail(const std::vector<net::FlowId>& target, double now);
  /// Remove a committed flow's slices from occ_ (logged). The fault flow
  /// never occupied anything, so it is never vacated either.
  void vacate(const net::Flow& f, const util::IntervalSet& slices);
  /// Install the session as the committed plan: move planned paths/slices
  /// into the network, refresh the cross-arrival validity tokens, drop the
  /// journal (occ_ already holds the planned occupancy).
  void commit_session(double now);
  /// Roll occ_ back to the session start, restoring the committed state
  /// bitwise.
  void abandon_session();
  /// Deterministic trim cadence.
  void maybe_trim(double now);

  // ---- event-driven rate maintenance ----
  //
  // assign_rates keeps a min-heap of per-flow next-boundary times. A heap
  // entry stays valid while the flow's committed slices are untouched
  // (per-flow generation counter, bumped by touch_slices at every commit
  // that re-granted the flow); expired or superseded entries are refreshed
  // or dropped lazily. Trimming needs no touch: it only removes boundaries
  // at or before `now`, which next_boundary/contains queries never return.
  /// Record that `fid`'s committed slices changed: invalidates its heap
  /// entry and queues a refresh at the next assign_rates call.
  void touch_slices(net::FlowId fid);
  /// Recompute `fid`'s rate from its slices at `now` (the reference loop's
  /// per-flow block verbatim) and push its next boundary. Returns false when
  /// the flow needs makeup transmission — the caller then falls back to
  /// assign_rates_reference permanently.
  bool refresh_rate(net::FlowId fid, double now);

  /// Unfinished flows of all currently admitted tasks, in last-committed
  /// EDF+SJF order (the usually-still-sorted prefix sort_order exploits).
  [[nodiscard]] std::vector<net::FlowId> unfinished_admitted() const;

  TapsConfig config_;
  OccupancyMap occ_{0};
  std::vector<util::IntervalSet> slices_;  // indexed by FlowId
  std::vector<char> makeup_busy_;          // per-link claims within one assign_rates
  std::vector<net::FlowId> committed_order_;  // EDF+SJF order of the last commit
  PlanScratch plan_scratch_;               // per-flow candidate-path cache
  TapsCounters counters_;

  // Session state (meaningful only within one arrival, reset by the
  // arrival and open_session, except committed_remaining_ /
  // cross_arrival_valid_ which persist across arrivals as the reuse-validity
  // tokens).
  OccupancyJournal journal_;
  std::vector<net::FlowId> session_order_;     // plan order built so far
  std::vector<FlowPlan> session_plans_;        // adopted entries hold light plans
  std::vector<OccupancyCheckpoint> session_marks_;  // journal state BEFORE each entry
  std::vector<net::FlowId> session_retired_;   // spent flows whose slices clear on commit
  std::size_t session_adopted_ = 0;            // leading adopted-entry count
  std::size_t session_infeasible_ = 0;
  /// Per-flow remaining bytes at last commit: a committed prefix entry is
  /// reusable only while its remaining is bitwise unchanged (no transmission
  /// since the plan was computed) — one of the cheap validity tokens.
  std::vector<double> committed_remaining_;
  /// False until the first commit and after any event that edits scheduler
  /// state outside a commit (missed-deadline sibling invalidation): the next
  /// session then opens with adoption off, and its commit re-establishes
  /// validity.
  bool cross_arrival_valid_ = false;
  std::size_t arrivals_since_trim_ = 0;

  // Event-driven rate state (see touch_slices/refresh_rate above).
  struct RateBoundary {
    double time = 0.0;
    net::FlowId fid = net::kInvalidFlow;
    std::uint64_t gen = 0;
  };
  struct RateBoundaryAfter {
    bool operator()(const RateBoundary& a, const RateBoundary& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.fid != b.fid) return a.fid > b.fid;
      return a.gen > b.gen;
    }
  };
  using RateHeap = std::priority_queue<RateBoundary, std::vector<RateBoundary>, RateBoundaryAfter>;
  RateHeap rate_heap_;
  std::vector<std::uint64_t> slice_gen_;  // per flow; bumped by touch_slices
  std::vector<char> rate_touched_mark_;   // per flow: pending refresh queued
  std::vector<net::FlowId> rate_touched_;
  bool rate_fallback_ = false;  // makeup transmission seen: rescan from now on
};

}  // namespace taps::core
