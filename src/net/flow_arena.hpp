// FlowStateArena: structure-of-arrays storage for the mutable per-flow
// simulation state (remaining / rate / bytes_sent / completion_time / state).
// `net::Flow` is a view over one arena slot (slot index == FlowId), so the
// rest of the tree keeps its object-per-flow API while the simulator's hot
// loops get flat, cache-friendly arrays.
//
// Storage is chunked: slots never move once allocated, so the references a
// Flow view hands out stay valid across arena growth.
//
// Rate writes go through set_rate(), which is compare-on-write and feeds a
// deduplicated dirty list — the indexed simulation engine drains it after
// every assign_rates() call to learn which flows actually changed speed
// instead of assuming all of them did (see DESIGN.md "Simulation engine").
//
// Threading contract (the piece the parallel per-pod advancement plan
// leans on): all MUTATION — push(), set_rate(), drain_dirty(), writes
// through the non-const accessors — is confined to the owning domain, but
// the chunk TABLE is published with release/acquire semantics so threads in
// other domains may concurrently READ any slot they learned about through a
// synchronizing size() acquire (or any external happens-before edge), even
// while the owning domain keeps growing the arena. Growth never moves a
// chunk and never frees a superseded pointer table (retired tables are
// retained until destruction, a few kB each), so a stale table remains
// valid for every slot that existed when it was current. The grow-while-
// read TSan stress (tests/net/flow_arena_stress_test.cpp) pins exactly
// this: one grower, many readers, zero races.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/sync.hpp"

namespace taps::net {

using FlowId = std::int32_t;
using TaskId = std::int32_t;

inline constexpr FlowId kInvalidFlow = -1;
inline constexpr TaskId kInvalidTask = -1;

enum class FlowState : std::uint8_t {
  kPending,    // not yet arrived or not yet admitted
  kActive,     // admitted, transmitting (or waiting for its time slices)
  kCompleted,  // all bytes delivered before the deadline
  kMissed,     // deadline passed with bytes remaining
  kRejected,   // never admitted (its task was rejected/preempted)
};

[[nodiscard]] const char* to_string(FlowState s);

// taps-threading: single-domain -- mutation is domain-confined; the
// atomically published chunk table additionally allows cross-domain readers
// of already-allocated slots during growth (see header comment).
class FlowStateArena {
 public:
  static constexpr std::size_t kChunkShift = 12;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;  // slots per chunk

  FlowStateArena() = default;
  FlowStateArena(const FlowStateArena&) = delete;
  FlowStateArena& operator=(const FlowStateArena&) = delete;

  /// Append one slot initialized for an unstarted flow of `size` bytes;
  /// returns its index (== the FlowId the Network will assign). Owning
  /// domain only (single writer).
  std::size_t push(double size) {
    const std::size_t i = size_.load(std::memory_order_relaxed);  // single writer
    if ((i >> kChunkShift) == chunks_.size()) grow_one_chunk();
    Chunk& c = *writer_table_[i >> kChunkShift];
    const std::size_t s = i & (kChunkSize - 1);
    c.remaining[s] = size;
    c.rate[s] = 0.0;
    c.bytes_sent[s] = 0.0;
    c.completion_time[s] = -1.0;
    c.state[s] = FlowState::kPending;
    c.rate_dirty[s] = 0;
    // Publish: readers that observe size() > i are guaranteed to see the
    // slot's initialization (and, transitively, the table slot written in
    // grow_one_chunk before this store).
    size_.store(i + 1, std::memory_order_release);
    return i;
  }

  /// Slot count. An acquire read: a slot index below the returned value is
  /// safe to read from any thread (its initialization happened-before).
  [[nodiscard]] std::size_t size() const { return size_.load(std::memory_order_acquire); }

  [[nodiscard]] double& remaining(std::size_t i) { return chunk(i).remaining[slot(i)]; }
  [[nodiscard]] double& bytes_sent(std::size_t i) { return chunk(i).bytes_sent[slot(i)]; }
  [[nodiscard]] double& completion_time(std::size_t i) { return chunk(i).completion_time[slot(i)]; }
  [[nodiscard]] FlowState& state(std::size_t i) { return chunk(i).state[slot(i)]; }
  // Const reads, usable from non-owning domains on slots covered by a size()
  // acquire (and not concurrently written by the owner).
  [[nodiscard]] double remaining(std::size_t i) const { return chunk(i).remaining[slot(i)]; }
  [[nodiscard]] double bytes_sent(std::size_t i) const { return chunk(i).bytes_sent[slot(i)]; }
  [[nodiscard]] double completion_time(std::size_t i) const {
    return chunk(i).completion_time[slot(i)];
  }
  [[nodiscard]] FlowState state(std::size_t i) const { return chunk(i).state[slot(i)]; }
  /// Read-only: all rate writes must go through set_rate() for dirty tracking.
  [[nodiscard]] const double& rate(std::size_t i) const { return chunk(i).rate[slot(i)]; }

  /// Compare-on-write rate update. A changed flow enters the dirty list at
  /// most once between drains (per-slot flag), so schedulers that build rates
  /// incrementally (progressive_fill's repeated `rate += share` rounds) cost
  /// one list entry per flow, not one per round. Owning domain only.
  void set_rate(std::size_t i, double r) {
    Chunk& c = chunk(i);
    const std::size_t s = slot(i);
    if (c.rate[s] == r) return;
    c.rate[s] = r;
    if (c.rate_dirty[s] == 0) {
      c.rate_dirty[s] = 1;
      dirty_.push_back(static_cast<FlowId>(i));
    }
  }

  /// Move the dirty list (flows whose rate changed since the last drain, in
  /// first-change order) into `out` and reset the per-slot flags. The
  /// reference event loop (oracle::ReferenceSimulator) never drains; the
  /// flags then bound the list at one entry per flow, so memory stays
  /// O(flows) either way. Owning domain only.
  void drain_dirty(std::vector<FlowId>& out) {
    out.clear();
    out.swap(dirty_);
    for (const FlowId fid : out) {
      const auto i = static_cast<std::size_t>(fid);
      chunk(i).rate_dirty[slot(i)] = 0;
    }
  }

 private:
  struct Chunk {
    std::array<double, kChunkSize> remaining{};
    std::array<double, kChunkSize> rate{};
    std::array<double, kChunkSize> bytes_sent{};
    std::array<double, kChunkSize> completion_time{};
    std::array<FlowState, kChunkSize> state{};
    std::array<std::uint8_t, kChunkSize> rate_dirty{};
  };

  /// Allocate the chunk for the next slot and make it addressable through
  /// the published table. When the pointer table itself is full, a doubled
  /// copy is built and atomically swapped in; the old table is retired (kept
  /// alive), so concurrent readers holding it still resolve every slot that
  /// existed before the swap.
  void grow_one_chunk() {
    chunks_.push_back(std::make_unique<Chunk>());
    const std::size_t n = chunks_.size();
    if (n > table_capacity_) {
      const std::size_t cap = table_capacity_ == 0 ? 8 : table_capacity_ * 2;
      auto table = std::make_unique<Chunk*[]>(cap);
      for (std::size_t k = 0; k < n; ++k) table[k] = chunks_[k].get();
      writer_table_ = table.get();
      table_capacity_ = cap;
      tables_.push_back(std::move(table));
      table_.store(writer_table_, std::memory_order_release);
    } else {
      // Same array: the slot write is published by push()'s release store of
      // size_ (no reader indexes chunk n-1 before observing a size inside it).
      writer_table_[n - 1] = chunks_.back().get();
    }
  }

  [[nodiscard]] Chunk& chunk(std::size_t i) const {
    assert(i < size_.load(std::memory_order_relaxed));
    Chunk* const* table = table_.load(std::memory_order_acquire);
    return *table[i >> kChunkShift];
  }
  [[nodiscard]] static std::size_t slot(std::size_t i) { return i & (kChunkSize - 1); }

  std::vector<std::unique_ptr<Chunk>> chunks_;        // chunk ownership (writer only)
  std::vector<std::unique_ptr<Chunk*[]>> tables_;     // current + retired tables (writer only)
  Chunk** writer_table_ = nullptr;                    // writer's view of tables_.back()
  std::size_t table_capacity_ = 0;                    // writer only
  util::Atomic<Chunk* const*> table_{nullptr};        // published for cross-domain readers
  util::Atomic<std::size_t> size_{0};                 // release on push, acquire on size()
  std::vector<FlowId> dirty_;                         // writer only
};

}  // namespace taps::net
