// Carried priority orders: CarriedOrder::repair must return exactly what a
// fresh std::sort of the same keys returns, after every step of a random
// run — arrivals, finishes (pruned from the active list or left lingering
// in it), remaining-size decreases, extended waves whose flow ids jump past
// the membership flags, and scrambles that reverse or heavily perturb the
// order so the move-budget fallback sorts. Both baselines' real keys (PDQ's
// EDF+SJF and Baraat's task FIFO+SJF) are repaired side by side over the
// same run. Counterexamples shrink to a minimal step list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/prop.hpp"
#include "sched/baraat.hpp"
#include "sched/pdq.hpp"
#include "sched/priority_order.hpp"

namespace taps::sched {
namespace {

using net::FlowId;

/// What the keys are built from: a flow of the model run.
struct ModelFlow {
  net::TaskId task = 0;
  double task_arrival = 0.0;
  double deadline = 0.0;
  double remaining = 0.0;
  bool finished = false;
};

struct Step {
  enum Kind : std::uint8_t {
    kArrive,    // a new task with `count` flows
    kExtend,    // a later wave of an existing task, at a jumped flow id
    kFinish,    // the flow at `pick` (mod the active list) finishes
    kPrune,     // drop the finished flows from the active list
    kTransmit,  // the `count` highest-priority flows shrink by `amount`
    kScramble,  // `amount` < 0.5: reverse SJF inside each deadline; else shuffle
  };
  Kind kind = kArrive;
  std::size_t count = 1;
  std::size_t pick = 0;
  double amount = 0.0;
  std::uint64_t salt = 0;

  friend std::ostream& operator<<(std::ostream& os, const Step& s) {
    static const char* names[] = {"arrive", "extend", "finish", "prune", "transmit", "scramble"};
    return os << names[s.kind] << "(count=" << s.count << ", pick=" << s.pick
              << ", amount=" << s.amount << ", salt=" << s.salt << ")";
  }
};

std::vector<Step> generate_steps(util::Rng& rng) {
  std::vector<Step> steps(static_cast<std::size_t>(rng.uniform_int(1, 80)));
  for (Step& s : steps) {
    const auto roll = rng.uniform_int(0, 19);
    s.kind = roll < 6    ? Step::kArrive
             : roll < 8  ? Step::kExtend
             : roll < 12 ? Step::kFinish
             : roll < 14 ? Step::kPrune
             : roll < 19 ? Step::kTransmit
                         : Step::kScramble;
    s.count = static_cast<std::size_t>(rng.uniform_int(1, 12));
    s.pick = static_cast<std::size_t>(rng.uniform_int(0, 1'000'000));
    s.amount = rng.uniform_real(0.0, 1.0);
    s.salt = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000));
  }
  return steps;
}

Pdq::Key pdq_key(const std::vector<ModelFlow>& flows, FlowId id) {
  const ModelFlow& f = flows[static_cast<std::size_t>(id)];
  return Pdq::Key{.deadline = f.deadline, .remaining = f.remaining, .id = id};
}

Baraat::Key baraat_key(const std::vector<ModelFlow>& flows, FlowId id) {
  const ModelFlow& f = flows[static_cast<std::size_t>(id)];
  return Baraat::Key{
      .task_arrival = f.task_arrival, .remaining = f.remaining, .task = f.task, .id = id};
}

/// The repaired order against a fresh sort of the unfinished active flows.
template <typename Key, typename KeyOf>
std::optional<std::string> compare(CarriedOrder<Key>& order, const std::vector<FlowId>& active,
                                   const std::vector<ModelFlow>& flows, KeyOf key_of,
                                   const char* which, std::size_t step) {
  const auto finished = [&](FlowId id) { return flows[static_cast<std::size_t>(id)].finished; };
  const auto build = [&](FlowId id) { return key_of(flows, id); };
  const std::span<const Key> got = order.repair(active, finished, build);
  std::vector<Key> fresh;
  for (const FlowId id : active) {
    if (!finished(id)) fresh.push_back(build(id));
  }
  std::sort(fresh.begin(), fresh.end());
  const auto equivalent = [](const Key& a, const Key& b) { return !(a < b) && !(b < a); };
  const bool same = got.size() == fresh.size() &&
                    std::equal(got.begin(), got.end(), fresh.begin(), equivalent);
  if (same) return std::nullopt;
  std::ostringstream os;
  os << which << " order after step " << step << " (id:remaining): repaired [";
  for (const Key& k : got) os << " " << k.id << ":" << k.remaining;
  os << " ] != fresh sort [";
  for (const Key& k : fresh) os << " " << k.id << ":" << k.remaining;
  os << " ]";
  return os.str();
}

/// Runs `steps`, checking both carried orders after each one; adds the
/// number of budget fallbacks to `full_sorts`.
std::optional<std::string> run_steps(const std::vector<Step>& steps, std::size_t& full_sorts) {
  std::vector<ModelFlow> flows;  // indexed by FlowId
  std::vector<FlowId> active;    // admission order; finished flows linger until a prune
  CarriedOrder<Pdq::Key> pdq;
  CarriedOrder<Baraat::Key> baraat;
  net::TaskId tasks = 0;
  double now = 0.0;

  const auto add_flow = [&](net::TaskId task, double task_arrival, double deadline,
                            double size) {
    const auto id = static_cast<FlowId>(flows.size());
    flows.push_back(ModelFlow{.task = task,
                              .task_arrival = task_arrival,
                              .deadline = deadline,
                              .remaining = size,
                              .finished = false});
    active.push_back(id);
  };

  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    util::Rng rng(s.salt);
    switch (s.kind) {
      case Step::kArrive: {
        now += s.amount;
        // Few distinct deadlines and sizes, so the id tie-breaks matter.
        const double deadline = now + static_cast<double>(s.pick % 3);
        for (std::size_t k = 0; k < s.count; ++k) {
          add_flow(tasks, now, deadline, static_cast<double>(1 + rng.uniform_int(0, 4)));
        }
        ++tasks;
        break;
      }
      case Step::kExtend: {
        if (tasks == 0) break;
        const auto task = static_cast<net::TaskId>(s.pick % static_cast<std::size_t>(tasks));
        double task_arrival = 0.0;
        double deadline = 0.0;
        for (const ModelFlow& f : flows) {
          if (f.task == task) {
            task_arrival = f.task_arrival;
            deadline = f.deadline;
            break;
          }
        }
        // Flows that never became active push the wave's ids past the
        // membership flags, as Network::extend_task's fresh ids do.
        const std::size_t skipped = s.pick % 200;
        for (std::size_t k = 0; k < skipped; ++k) {
          flows.push_back(ModelFlow{.task = task, .finished = true});
        }
        for (std::size_t k = 0; k < s.count; ++k) {
          add_flow(task, task_arrival, deadline, 1.0 + s.amount);
        }
        break;
      }
      case Step::kFinish:
        if (!active.empty()) {
          flows[static_cast<std::size_t>(active[s.pick % active.size()])].finished = true;
        }
        break;
      case Step::kPrune:
        std::erase_if(active,
                      [&](FlowId id) { return flows[static_cast<std::size_t>(id)].finished; });
        break;
      case Step::kTransmit: {
        // The flows at the head of the order transmit; a shrinking flow
        // climbs past its same-deadline (PDQ) or same-task (Baraat) peers.
        std::vector<Pdq::Key> head;
        for (const FlowId id : active) {
          if (!flows[static_cast<std::size_t>(id)].finished) head.push_back(pdq_key(flows, id));
        }
        std::sort(head.begin(), head.end());
        for (std::size_t k = 0; k < std::min(s.count, head.size()); ++k) {
          double& r = flows[static_cast<std::size_t>(head[k].id)].remaining;
          r *= s.amount;
        }
        break;
      }
      case Step::kScramble:
        for (const FlowId id : active) {
          ModelFlow& f = flows[static_cast<std::size_t>(id)];
          f.remaining = s.amount < 0.5 ? 1e6 - f.remaining * 1e3 - static_cast<double>(id)
                                       : rng.uniform_real(0.0, 10.0);
          if (s.amount < 0.5) f.deadline = 1.0;
        }
        break;
    }
    if (auto f = compare(pdq, active, flows, pdq_key, "PDQ", i)) return f;
    if (auto f = compare(baraat, active, flows, baraat_key, "Baraat", i)) return f;
  }
  full_sorts += pdq.full_sorts() + baraat.full_sorts();
  return std::nullopt;
}

TAPS_PROP(PriorityOrderProp, RepairedOrderEqualsFreshSort, 400) {
  std::size_t full_sorts = 0;
  prop.for_all(generate_steps, [&](const std::vector<Step>& steps) {
    return run_steps(steps, full_sorts);
  });
  EXPECT_GT(full_sorts, 0u) << "no case exceeded the move budget";
}

TEST(PriorityOrder, NearlySortedOrderIsRepairedWithoutASort) {
  std::vector<Pdq::Key> keys;
  for (FlowId id = 0; id < 100; ++id) {
    keys.push_back(Pdq::Key{.deadline = 1.0, .remaining = static_cast<double>(id), .id = id});
  }
  std::vector<FlowId> active;
  for (const Pdq::Key& k : keys) active.push_back(k.id);
  const auto finished = [](FlowId) { return false; };
  const auto key_of = [&](FlowId id) { return keys[static_cast<std::size_t>(id)]; };
  CarriedOrder<Pdq::Key> order;
  (void)order.repair(active, finished, key_of);  // first call: already sorted

  keys[70].remaining = -1.0;  // flow 70 jumps to the head
  const std::span<const Pdq::Key> got = order.repair(active, finished, key_of);
  EXPECT_EQ(order.full_sorts(), 0u);
  ASSERT_EQ(got.size(), 100u);
  EXPECT_EQ(got[0].id, 70);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(PriorityOrder, ReversedOrderFallsBackToASort) {
  std::vector<Pdq::Key> keys;
  for (FlowId id = 0; id < 100; ++id) {
    keys.push_back(Pdq::Key{.deadline = 1.0, .remaining = static_cast<double>(id), .id = id});
  }
  std::vector<FlowId> active;
  for (const Pdq::Key& k : keys) active.push_back(k.id);
  const auto finished = [](FlowId) { return false; };
  const auto key_of = [&](FlowId id) { return keys[static_cast<std::size_t>(id)]; };
  CarriedOrder<Pdq::Key> order;
  (void)order.repair(active, finished, key_of);

  for (Pdq::Key& k : keys) k.remaining = -k.remaining;  // reverses the order
  const std::span<const Pdq::Key> got = order.repair(active, finished, key_of);
  EXPECT_EQ(order.full_sorts(), 1u);
  ASSERT_EQ(got.size(), 100u);
  EXPECT_EQ(got.front().id, 99);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

}  // namespace
}  // namespace taps::sched
