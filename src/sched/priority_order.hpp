// A flow priority order carried from one assign_rates call to the next.
//
// PDQ and Baraat rank every active flow on every rate assignment, and the
// ranking barely changes between two calls: a few flows finish, a few are
// admitted, and the flows that transmitted shrink and climb past their
// same-deadline (PDQ) or same-task (Baraat) peers. So instead of sorting
// from scratch, the scheduler keeps last call's order and repairs it: drop
// the finished flows, append the newly admitted ones, refresh every key and
// restore the order by insertion. An order that is too far gone falls back
// to std::sort.
//
// Keys are packed records (the flow id plus copies of the ranking fields),
// so a comparison touches no Network lookup. `Key` must provide a FlowId
// `id` and an `operator<` that is a strict total order with the flow id as
// its last tie-break: then every correct sort yields the same order, and a
// repaired order equals a fresh sort bit for bit (see DESIGN.md "Rate
// assignment").
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "net/flow_arena.hpp"

namespace taps::sched {

template <typename Key>
// taps-threading: single-domain -- scheduler state advances under one simulation domain
class CarriedOrder {
 public:
  /// Insertion moves allowed per flow before the repair gives up and sorts.
  static constexpr std::size_t kMovesPerFlow = 4;

  /// Forget the carried order (a scheduler calls this from bind()).
  void clear() {
    keys_.clear();
    member_.clear();
    full_sorts_ = 0;
  }

  /// Repairs since clear() that exceeded the move budget and sorted.
  [[nodiscard]] std::size_t full_sorts() const { return full_sorts_; }

  /// Bring the order up to date and return it, highest priority first.
  /// `active` lists the admitted flows (finished ones may linger in it);
  /// `finished(id)` says a flow left the active set; `key_of(id)` builds a
  /// flow's current key. The result holds exactly the unfinished flows of
  /// `active` and equals std::sort of their keys.
  template <typename Finished, typename KeyOf>
  std::span<const Key> repair(std::span<const net::FlowId> active, Finished&& finished,
                              KeyOf&& key_of) {
    // Drop the finished flows and refresh the survivors' keys in place.
    std::size_t kept = 0;
    for (const Key& k : keys_) {
      const net::FlowId id = k.id;
      if (finished(id)) {
        member_[static_cast<std::size_t>(id)] = 0;
      } else {
        keys_[kept++] = key_of(id);
      }
    }
    keys_.resize(kept);

    // Append the flows admitted since the last call. The flag grows with
    // the flow ids: Network::extend_task adds flows mid-run.
    for (const net::FlowId id : active) {
      const auto slot = static_cast<std::size_t>(id);
      if (slot >= member_.size()) member_.resize(slot + 1, 0);
      if (member_[slot] != 0 || finished(id)) continue;
      member_[slot] = 1;
      keys_.push_back(key_of(id));
    }

    // Insertion sort: each out-of-place key is binary-searched into the
    // sorted prefix. Past the move budget the order is too scrambled for
    // insertion to pay, so it is sorted from scratch.
    const std::size_t budget = kMovesPerFlow * keys_.size();
    std::size_t moves = 0;
    for (auto it = keys_.begin(); it != keys_.end(); ++it) {
      if (it == keys_.begin() || !(*it < *(it - 1))) continue;
      const Key k = *it;
      const auto to = std::upper_bound(keys_.begin(), it, k);
      std::move_backward(to, it, it + 1);
      *to = k;
      moves += static_cast<std::size_t>(it - to);
      if (moves > budget) {
        std::sort(keys_.begin(), keys_.end());
        ++full_sorts_;
        break;
      }
    }
    return keys_;
  }

 private:
  std::vector<Key> keys_;     // the carried order, highest priority first
  std::vector<char> member_;  // FlowId -> 1 while the flow is in keys_
  std::size_t full_sorts_ = 0;
};

}  // namespace taps::sched
