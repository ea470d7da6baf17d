#include "core/time_allocation.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace taps::core {

namespace {

/// Two-pointer union merge with IntervalSet::unite's exact coalescing rule
/// (iv.lo <= back.hi extends the back interval), writing into a reused
/// buffer. A lazy k-way cursor would save little here: on Fig. 7 TAPS a
/// call reads 28 per-link intervals on average to build a union of about
/// 2, and the scan visits 98% of that union, so stopping the merge early
/// skips almost nothing. The saving is in not re-merging the links that
/// candidates share (see TimeAllocScratch).
void merge_union(const util::Interval* a, const util::Interval* ae, const util::Interval* b,
                 const util::Interval* be, std::vector<util::Interval>& out) {
  out.clear();
  const auto push = [&out](util::Interval iv) {
    if (!out.empty() && iv.lo <= out.back().hi) {
      if (iv.hi > out.back().hi) out.back().hi = iv.hi;
    } else {
      out.push_back(iv);
    }
  };
  while (a != ae || b != be) {
    if (b == be || (a != ae && a->lo <= b->lo)) {
      push(*a++);
    } else {
      push(*b++);
    }
  }
}

/// Outside-in fold position `k` of an `n`-link path: first, last, second,
/// second-to-last, ...
std::size_t fold_index(std::size_t k, std::size_t n) { return k % 2 == 0 ? k / 2 : n - 1 - k / 2; }

}  // namespace

// Fused TimeAllocation: materialize T_ocp restricted to the only window
// that can matter — [now, min(completion_bound, horizon)) — as prefix
// unions in scratch, then run IntervalSet::allocate_earliest's exact scan
// over it with a branch-and-bound abort. Identical output to the reference:
//
//  - Each link's range starts at its earliest-free hint (first interval
//    with hi > now); a dropped earlier interval can only retreat a merged
//    interval's lo, and allocate_earliest never reads structure at or below
//    `now` (the first surviving interval's lo is always <= now when it was
//    merged with a dropped one).
//  - Intervals with lo >= stop are dropped: before the scan can consult
//    them its cursor satisfies cursor + need >= lo >= stop, which is either
//    a bound abort (stop == completion_bound) or horizon infeasibility
//    (stop == horizon) — decided identically without them.
//  - A reused level was restricted at an earlier stop' >= stop, so it holds
//    a superset: extra intervals with lo >= stop, which the previous point
//    covers, and at most one extended hi. Such an extension starts at some
//    lo >= stop, so it only lengthens an interval whose hi >= stop already,
//    which leaves the cursor at or past stop either way. Within one race
//    the horizon is fixed and the bound only shrinks, so stop' > stop means
//    stop == completion_bound < horizon, and the abort follows either way.
//  - Union order is irrelevant (canonical interval-set form is unique), so
//    the outside-in fold matches path_union's link-order fold.
//
// The restriction skips the far tail a deep occupancy accumulates past the
// incumbent completion, the shared prefixes skip re-merging the links a
// race's candidates have in common, and the abort stops losing candidates
// early.
bool allocate_time_into(const OccupancyMap& occupancy, const topo::Path& path, double now,
                        double duration, double horizon, double completion_bound,
                        util::IntervalSet& slices, double& completion,
                        TimeAllocScratch* scratch) {
  slices.clear();
  if (duration <= 0.0 || horizon <= now) return false;
  const double stop = std::min(completion_bound, horizon);

  // Hot callers (the planner) pass persistent scratch, so the level buffers
  // are allocation-free in steady state and shared prefixes carry over;
  // scratch-less calls fold into a local stack.
  TimeAllocScratch local_scratch;
  TimeAllocScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  assert(sc.depth == 0 || (sc.now == now && stop <= sc.stop));
  sc.now = now;
  sc.stop = stop;

  const std::size_t n = path.links.size();
  if (sc.levels.size() < n) sc.levels.resize(n);
  std::size_t k = 0;
  while (k < sc.depth && k < n && sc.levels[k].link == path.links[fold_index(k, n)]) ++k;
  for (; k < n; ++k) {
    TimeAllocScratch::Level& level = sc.levels[k];
    level.link = path.links[fold_index(k, n)];
    const auto& ivs = occupancy.link(level.link).intervals();
    const util::Interval* first = ivs.data() + occupancy.first_index_after(level.link, now);
    const util::Interval* last =
        std::lower_bound(first, ivs.data() + ivs.size(), stop,
                         [](const util::Interval& iv, double v) { return iv.lo < v; });
    const util::Interval* below = k == 0 ? nullptr : sc.levels[k - 1].first;
    const util::Interval* below_end = k == 0 ? nullptr : sc.levels[k - 1].last;
    if (first == last) {
      level.first = below;
      level.last = below_end;
    } else if (below == below_end) {
      level.first = first;
      level.last = last;
    } else {
      merge_union(below, below_end, first, last, level.buf);
      level.first = level.buf.data();
      level.last = level.first + level.buf.size();
    }
  }
  sc.depth = n;
  const util::Interval* u = n == 0 ? nullptr : sc.levels[n - 1].first;
  const util::Interval* ue = n == 0 ? nullptr : sc.levels[n - 1].last;

  // allocate_earliest's scan, verbatim arithmetic, plus the bound abort: a
  // take only happens after cursor + need < completion_bound held, so any
  // returned completion is strictly under the bound.
  double need = duration;
  double cursor = now;
  for (; u != ue; ++u) {
    if (cursor + need >= completion_bound) {
      slices.clear();
      return false;
    }
    const double idle_hi = std::min(u->lo, horizon);
    if (idle_hi > cursor) {
      const double take = std::min(need, idle_hi - cursor);
      // cursor + (idle_hi - cursor) can round one ulp past idle_hi, into
      // the busy interval that starts there.
      slices.push_back_disjoint(cursor, std::min(cursor + take, idle_hi));
      need -= take;
      if (need <= 0.0) {
        completion = slices.back_end();
        return true;
      }
    }
    cursor = std::max(cursor, u->hi);
    if (cursor >= horizon) break;
  }
  if (cursor + need >= completion_bound) {
    slices.clear();
    return false;
  }
  if (need > 0.0 && cursor < horizon) {
    const double take = std::min(need, horizon - cursor);
    slices.push_back_disjoint(cursor, std::min(cursor + take, horizon));
    need -= take;
  }
  if (need > 1e-12) {  // insufficient idle time before horizon
    slices.clear();
    return false;
  }
  completion = slices.back_end();
  return true;
}

TimeAllocation allocate_time(const OccupancyMap& occupancy, const topo::Path& path,
                             double now, double duration, double horizon,
                             double completion_bound) {
  TimeAllocation out;
  double completion = 0.0;
  if (allocate_time_into(occupancy, path, now, duration, horizon, completion_bound,
                         out.slices, completion)) {
    out.completion = completion;
  }
  return out;
}

}  // namespace taps::core
