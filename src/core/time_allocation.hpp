// Algorithm 3 of the paper: TimeAllocation(p, f).
//
// Given a candidate path p and a flow needing E seconds of transmission, the
// controller computes the union T_ocp of the occupied-time sets of p's links
// and allocates the first E seconds of idle time in its complement, starting
// from `now`. The flow's completion time on p is the end of the last
// allocated slice.
//
// allocate_time materializes T_ocp restricted to the window that can
// matter — each link's range starts at its earliest-free hint and stops at
// min(completion_bound, horizon) — as a stack of prefix unions shared across
// a candidate race, then scans it with a branch-and-bound abort. The
// textbook two-step (path_union, then IntervalSet::allocate_earliest) lives
// in taps_oracle as oracle::allocate_time_reference; the equivalence
// property test drives both on random instances.
#pragma once

#include <limits>

#include "core/occupancy.hpp"

namespace taps::core {

// taps-threading: thread-compatible -- value result, owned by its caller.
struct TimeAllocation {
  util::IntervalSet slices;  // empty when infeasible before `horizon`
  double completion = 0.0;   // end of last slice; meaningless when infeasible

  [[nodiscard]] bool feasible() const { return !slices.empty(); }
};

/// Caller-owned prefix-union stack for allocate_time_into. Each call folds
/// its path's links outside-in (first, last, second, second-to-last, ...);
/// level k holds the union of the first k + 1 folded links' restricted
/// ranges. Algorithm 2's candidates share their outer links (on a fat-tree
/// all share both host links, and each aggregation group its two agg-level
/// links), so the next call reuses the longest common prefix of levels and
/// merges only its own links.
///
/// Levels stay valid while the occupancy map and `now` are unchanged and
/// min(completion_bound, horizon) does not grow — exactly one
/// plan_one_flow candidate race. Call invalidate() to start each race;
/// plan_one_flow does so on entry.
// taps-threading: single-domain -- scratch owned by one planning domain.
struct TimeAllocScratch {
  struct Level {
    topo::LinkId link = topo::kInvalidLink;  // link folded in at this level
    // The prefix union: a view into `buf`, a lower level's buf, or the
    // occupancy map itself (a single non-empty range needs no copy).
    const util::Interval* first = nullptr;
    const util::Interval* last = nullptr;
    std::vector<util::Interval> buf;
  };

  std::vector<Level> levels;
  std::size_t depth = 0;  // levels[0, depth) hold a valid prefix
  double now = 0.0;       // the race's `now` and latest stop (debug checks)
  double stop = 0.0;

  void invalidate() { depth = 0; }
};

/// Allocate `duration` seconds on `path` starting at `now`, finishing no
/// later than `horizon` (the flow's deadline). Returns an infeasible result
/// when the path lacks enough idle time before the horizon.
///
/// `completion_bound` is a branch-and-bound cutoff for candidate-path races
/// (Algorithm 2 keeps only strictly-earlier completions): the scan aborts —
/// returning infeasible — as soon as the completion provably cannot be
/// < `completion_bound` (the remaining demand must land at or after the
/// sweep cursor, so completion >= cursor + remaining). A returned feasible
/// allocation is always the true earliest one and has
/// completion < completion_bound.
[[nodiscard]] TimeAllocation allocate_time(
    const OccupancyMap& occupancy, const topo::Path& path, double now, double duration,
    double horizon, double completion_bound = std::numeric_limits<double>::infinity());

/// Allocation core writing into a caller-owned `slices` set (cleared first,
/// so its capacity is reused across calls — the candidate-path race calls
/// this 16x per flow and discards most results). Returns feasibility;
/// `completion` is set only when feasible, and `slices` is left empty on
/// infeasibility/abort. Same semantics as allocate_time otherwise.
/// `scratch` (optional) carries the prefix unions from call to call under
/// TimeAllocScratch's validity rule; passing none folds into a fresh local
/// stack, which only the oracle/test paths do.
[[nodiscard]] bool allocate_time_into(const OccupancyMap& occupancy, const topo::Path& path,
                                      double now, double duration, double horizon,
                                      double completion_bound, util::IntervalSet& slices,
                                      double& completion, TimeAllocScratch* scratch = nullptr);

}  // namespace taps::core
