// Property: the hinted OccupancyMap fast paths agree exactly with the
// unoptimized reference scans on random mutate/query sequences.
//
// The replan optimization added three query shortcuts (per-link earliest-free
// hints, path_union_from, the fused allocate_time) while keeping the plain
// scans (path_union + IntervalSet search, oracle::allocate_time_reference)
// in-tree as references. These properties pin the equivalence on random instances —
// including interleaved mutations, which are exactly what invalidates hints
// and the prefix unions a candidate race shares through TimeAllocScratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/prop.hpp"
#include "core/occupancy.hpp"
#include "core/time_allocation.hpp"
#include "oracle/full_replan.hpp"
#include "util/interval_set.hpp"
#include "util/rng.hpp"

namespace taps::core {
namespace {

constexpr std::size_t kLinks = 6;

struct Op {
  enum Kind : int {
    kOccupy,         // add a random busy window on a random link
    kTrim,           // trim_before a random time on the whole map
    kClear,          // clear the whole map
    kQueryIndex,     // first_index_after: hinted vs IntervalSet binary search
    kQueryUnion,     // path_union_from vs filtered path_union
    kQueryAllocate,  // fused allocate_time vs allocate_time_reference
    kQueryCollides,  // collides on a random probe set
    kQueryRace,      // Algorithm 2's candidate race through one reused scratch
    kOccupyUlp,      // a busy window starting one ulp past a busy boundary
  };
  Kind kind = kOccupy;
  int link = 0;
  double a = 0.0;
  double b = 0.0;
  std::vector<topo::Path> race;  // kQueryRace's candidates, in race order

  friend std::ostream& operator<<(std::ostream& os, const Op& op) {
    static const char* names[] = {"occupy",      "trim",        "clear", "query_index",
                                  "query_union", "query_alloc", "collides", "race",
                                  "occupy_ulp"};
    os << names[op.kind] << "(link=" << op.link << ", a=" << op.a << ", b=" << op.b;
    for (const topo::Path& p : op.race) {
      os << (&p == op.race.data() ? ", paths=[" : " ");
      for (std::size_t j = 0; j < p.links.size(); ++j) os << (j == 0 ? "" : "-") << p.links[j];
    }
    return os << (op.race.empty() ? ")" : "])");
  }
};

/// 2-8 candidate paths that share their first and last links (as a flow's
/// fat-tree candidates share both host links), with 0-4 distinct middle
/// links each. Half the candidates keep the previous one's middle order, so
/// the race reuses prefixes of several depths.
std::vector<topo::Path> generate_race(util::Rng& rng) {
  const auto first = static_cast<topo::LinkId>(rng.uniform_int(0, kLinks - 1));
  const auto last =
      static_cast<topo::LinkId>((first + rng.uniform_int(1, kLinks - 1)) % kLinks);
  std::vector<topo::LinkId> middle;
  for (std::size_t l = 0; l < kLinks; ++l) {
    const auto lid = static_cast<topo::LinkId>(l);
    if (lid != first && lid != last) middle.push_back(lid);
  }
  std::vector<topo::Path> race(static_cast<std::size_t>(rng.uniform_int(2, 8)));
  for (topo::Path& p : race) {
    if (rng.bernoulli(0.5)) std::shuffle(middle.begin(), middle.end(), rng.engine());
    const auto hops = rng.uniform_int(0, static_cast<std::int64_t>(middle.size()));
    p.links.push_back(first);
    p.links.insert(p.links.end(), middle.begin(), middle.begin() + hops);
    p.links.push_back(last);
  }
  return race;
}

std::vector<Op> generate_ops(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    // Mutations and queries interleave ~1:2 so hints get exercised both
    // warm (repeated queries) and freshly invalidated (query after occupy).
    const auto roll = rng.uniform_int(0, 11);
    if (roll < 2) {
      op.kind = Op::kOccupy;
    } else if (roll == 11) {
      op.kind = Op::kOccupyUlp;
    } else if (roll == 2) {
      op.kind = Op::kTrim;
    } else if (roll == 3) {
      op.kind = Op::kClear;
    } else if (roll == 10) {
      op.kind = Op::kQueryRace;
      op.race = generate_race(rng);
    } else {
      op.kind = static_cast<Op::Kind>(Op::kQueryIndex + (roll - 4) % 4);
    }
    op.link = static_cast<int>(rng.uniform_int(0, kLinks - 1));
    op.a = rng.uniform_real(0.0, 40.0);
    op.b = op.a + rng.uniform_real(0.05, 6.0);
    ops.push_back(op);
  }
  return ops;
}

/// A path over a prefix of the links, seeded off the op so different ops
/// exercise different subsets (including the single-link case).
topo::Path path_for(const Op& op) {
  topo::Path p;
  const int hops = 1 + op.link % static_cast<int>(kLinks);
  for (int l = 0; l < hops; ++l) p.links.push_back(static_cast<topo::LinkId>(l));
  return p;
}

// Deterministic per-op horizon spread in [1, 9]: tight horizons exercise the
// infeasible path, loose ones the early-exit path. Derived from the op so
// shrinking keeps cases reproducible.
double horizon_spread(const Op& op) {
  return 1.0 + 8.0 * (op.a - static_cast<double>(static_cast<int>(op.a)));
}

/// The fused allocate_time equals the reference allocator bit for bit, and
/// every slice it returns is idle on the whole path, to the last ulp, and
/// ends by the horizon.
std::optional<std::string> check_allocate(const OccupancyMap& occ, const topo::Path& p,
                                          double from, double duration, double horizon) {
  const TimeAllocation fast = allocate_time(occ, p, from, duration, horizon);
  const TimeAllocation ref = oracle::allocate_time_reference(occ, p, from, duration, horizon);
  std::ostringstream os;
  os << std::setprecision(17) << "allocate_time(from=" << from << ", dur=" << duration
     << ", horizon=" << horizon << "): ";
  if (fast.feasible() != ref.feasible() || !(fast.slices == ref.slices) ||
      fast.completion != ref.completion) {
    os << "fused {" << fast.slices << ", completion=" << fast.completion << "} != reference {"
       << ref.slices << ", completion=" << ref.completion << "}";
    return os.str();
  }
  if (!fast.feasible()) return std::nullopt;
  if (!fast.slices.check_invariants()) return os.str() + "broke canonical form";
  if (occ.collides(p, fast.slices)) {
    os << "returned busy time " << fast.slices;
    return os.str();
  }
  if (fast.completion > horizon) return os.str() + "completed past the horizon";
  return std::nullopt;
}

std::optional<std::string> check(const std::vector<Op>& ops) {
  OccupancyMap occ(kLinks);
  // One scratch for the whole sequence, as a planning domain keeps it: each
  // race starts by invalidating it, so the mutations between races must
  // never leak a stale prefix union into a result.
  TimeAllocScratch scratch;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kOccupy: {
        // occupy() asserts slices don't collide: pre-filter with collides()
        // (itself cross-checked below) and skip colliding windows.
        topo::Path one;
        one.links.push_back(static_cast<topo::LinkId>(op.link));
        util::IntervalSet slices;
        slices.insert(op.a, op.b);
        if (!occ.collides(one, slices)) occ.occupy(one, slices);
        break;
      }
      case Op::kOccupyUlp: {
        // A gap [c, b) from a cursor c far below b, with b stepped up by ulps
        // until c + (b - c) rounds one ulp past it; a slice filling the gap
        // must still end at b.
        const double c = op.a / 64.0;
        double b = op.b;
        for (int i = 0; i < 4096 && !(c + (b - c) > b); ++i) {
          b = std::nextafter(b, std::numeric_limits<double>::infinity());
        }
        topo::Path one;
        one.links.push_back(static_cast<topo::LinkId>(op.link));
        util::IntervalSet slices;
        slices.insert(b, b + 1.0);
        if (!occ.collides(one, slices)) occ.occupy(one, slices);
        if (auto failure = check_allocate(occ, one, c, (b - c) + (op.b - op.a), 1e12)) {
          return failure;
        }
        break;
      }
      case Op::kTrim:
        occ.trim_before(op.a);
        break;
      case Op::kClear:
        occ.clear();
        break;

      case Op::kQueryIndex: {
        const auto lid = static_cast<topo::LinkId>(op.link);
        const std::size_t hinted = occ.first_index_after(lid, op.a);
        const std::size_t plain = occ.link(lid).first_index_after(op.a);
        if (hinted != plain) {
          std::ostringstream os;
          os << "first_index_after(link=" << op.link << ", from=" << op.a << "): hinted "
             << hinted << " != reference " << plain;
          return os.str();
        }
        // Ask again at an earlier time: forces the hint-miss path.
        const double earlier = op.a / 2.0;
        if (occ.first_index_after(lid, earlier) != occ.link(lid).first_index_after(earlier)) {
          return "first_index_after mismatch on backward re-query";
        }
        break;
      }

      case Op::kQueryUnion: {
        const topo::Path p = path_for(op);
        const util::IntervalSet fast = occ.path_union_from(p, op.a);
        // Contract: identical to the full union from `a` onward (below `a`
        // the two may differ — see the path_union_from header comment).
        util::IntervalSet window;
        window.insert(op.a, 1e9);
        const util::IntervalSet got = fast.intersect(window);
        const util::IntervalSet expect = occ.path_union(p).intersect(window);
        if (!(got == expect)) {
          std::ostringstream os;
          os << "path_union_from(from=" << op.a << "): " << got << " != " << expect
             << " on [from, inf)";
          return os.str();
        }
        if (!fast.check_invariants()) return "path_union_from broke canonical form";
        break;
      }

      case Op::kQueryAllocate: {
        const topo::Path p = path_for(op);
        const double duration = op.b - op.a;
        const double horizon = op.a + duration * horizon_spread(op);
        if (auto failure = check_allocate(occ, p, op.a, duration, horizon)) return failure;
        const TimeAllocation ref = oracle::allocate_time_reference(occ, p, op.a, duration, horizon);
        if (ref.feasible()) {
          // Branch-and-bound contract: a bound above the true completion
          // must not change the result; a bound at (or below) it must abort.
          const TimeAllocation loose =
              allocate_time(occ, p, op.a, duration, horizon, ref.completion + 1.0);
          if (!(loose.slices == ref.slices)) {
            return "bounded allocate_time diverged under a loose bound";
          }
          const TimeAllocation tight =
              allocate_time(occ, p, op.a, duration, horizon, ref.completion);
          if (tight.feasible()) {
            return "bounded allocate_time returned a completion at/past its bound";
          }
          // single_link_completion is a lower bound on any path through the
          // link (tolerance: its prefix-summation rounding, well under the
          // kLbSlack plan_one_flow prunes with).
          for (const topo::LinkId lid : p.links) {
            const double lb = occ.single_link_completion(lid, op.a, duration);
            if (lb > ref.completion + 1e-9) {
              std::ostringstream os;
              os << "single_link_completion(link=" << lid << ") = " << lb
                 << " exceeds the path completion " << ref.completion;
              return os.str();
            }
          }
        }
        // On a single-link path with no horizon pressure, the lower bound is
        // the exact completion (same math as the reference, summed prefix-
        // style) — pin it against the reference allocator.
        topo::Path one;
        one.links.push_back(static_cast<topo::LinkId>(op.link));
        const double lb1 = occ.single_link_completion(
            static_cast<topo::LinkId>(op.link), op.a, duration);
        const TimeAllocation ref1 = oracle::allocate_time_reference(occ, one, op.a, duration, 1e12);
        if (!ref1.feasible() || lb1 < ref1.completion - 1e-9 || lb1 > ref1.completion + 1e-9) {
          std::ostringstream os;
          os << "single_link_completion(link=" << op.link << ", from=" << op.a
             << ", need=" << duration << ") = " << lb1 << " != single-link reference "
             << ref1.completion;
          return os.str();
        }
        break;
      }

      case Op::kQueryCollides: {
        const topo::Path p = path_for(op);
        util::IntervalSet probe;
        probe.insert(op.a, op.b);
        probe.insert(op.b + 1.0, op.b + 1.5);
        bool expect = false;
        for (const topo::LinkId lid : p.links) {
          for (const auto& iv : probe.intervals()) {
            if (occ.link(lid).intersects(iv.lo, iv.hi)) expect = true;
          }
        }
        if (occ.collides(p, probe) != expect) return "collides mismatch";
        break;
      }

      case Op::kQueryRace: {
        // plan_one_flow's race: each candidate runs under the best completion
        // so far as its bound, so the shared levels were restricted at an
        // earlier, larger stop. Every result must be the reference's, kept
        // only when strictly earlier than the bound.
        const double duration = op.b - op.a;
        const double horizon = op.a + duration * horizon_spread(op);
        double best = std::numeric_limits<double>::infinity();
        util::IntervalSet trial;
        scratch.invalidate();
        for (std::size_t i = 0; i < op.race.size(); ++i) {
          const topo::Path& p = op.race[i];
          double completion = 0.0;
          const bool won = allocate_time_into(occ, p, op.a, duration, horizon, best, trial,
                                              completion, &scratch);
          const TimeAllocation ref =
              oracle::allocate_time_reference(occ, p, op.a, duration, horizon);
          const bool expect_won = ref.feasible() && ref.completion < best;
          if (won != expect_won || !(trial == (won ? ref.slices : util::IntervalSet{})) ||
              (won && completion != ref.completion)) {
            std::ostringstream os;
            os << "race candidate " << i << " (from=" << op.a << ", dur=" << duration
               << ", horizon=" << horizon << ", bound=" << best << "): fused {won=" << won
               << ", " << trial << ", completion=" << (won ? completion : 0.0)
               << "} != reference {feasible=" << ref.feasible() << ", " << ref.slices
               << ", completion=" << ref.completion << "}";
            return os.str();
          }
          if (won && occ.collides(p, trial)) return "race candidate won busy time";
          if (won) best = completion;
        }
        break;
      }
    }
  }
  return std::nullopt;
}

TAPS_PROP(OccupancyEquivProp, HintedQueriesMatchReferenceScans, 400) {
  prop.for_all(generate_ops, check);
}

}  // namespace
}  // namespace taps::core
