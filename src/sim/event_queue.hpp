#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/types.hpp"

namespace sf::sim {

/// Deterministic cancellable event queue.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO by
/// monotonically increasing EventId), which makes every simulation run
/// bit-reproducible.
///
/// Implementation: a binary min-heap of {time, id} entries, ordered by time
/// and then id, over a vector of {id, callback} slots recycled through a
/// free list. Measured schedules almost always open a new instant (95-99 %
/// of them in the perfbench workloads), so ordering events directly is the
/// right structure; DESIGN §5 item 1 has the numbers.
///
/// cancel() destroys the callback and frees the slot at once, leaving the
/// heap entry behind as a tombstone: an entry is dead when its slot no
/// longer holds its id, so slot reuse is safe. Dead entries are popped off
/// the top after every cancel() and pop(), so next_time() is O(1) and
/// always names a live event, and the heap is rebuilt without tombstones
/// once they outnumber the live events by more than kRebuildSlack.
///
/// An EventId encodes (sequence << 24) | slot. The sequence number strictly
/// increases with every schedule() call, so ids remain monotonic even when
/// slots are reused; the low bits give O(1) cancellation without a hash
/// lookup. The split supports ~1.1e12 lifetime events and 16M concurrent
/// events, both far beyond any simulated scenario.
class EventQueue {
 public:
  using Callback = InlineFunction;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `t`. Returns a handle usable with
  /// cancel(). `t` may equal the current top time; ordering stays FIFO.
  EventId schedule(SimTime t, Callback fn);

  /// Cancels a pending event. Returns true iff the event was still pending.
  bool cancel(EventId id);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, not yet fired) events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.front().time;
  }

  /// Removes and returns the earliest live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    EventId id;
    Callback fn;
  };
  Fired pop();

  /// Total events ever scheduled (statistics / debugging). Counts every
  /// schedule() call, including events later cancelled or already fired.
  [[nodiscard]] std::uint64_t total_scheduled() const {
    return total_scheduled_;
  }

 private:
  /// Low bits of an EventId addressing the callback slot.
  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;
  /// Tombstones tolerated beyond the live count before a rebuild.
  static constexpr std::size_t kRebuildSlack = 64;

  struct Entry {
    SimTime time;
    EventId id;
  };

  /// One pending event's callback; `id` is kNoEvent while the slot is free.
  struct Slot {
    EventId id = kNoEvent;
    Callback fn;
  };

  /// Heap order: `a` fires after `b` (std heap algorithms keep the
  /// "largest" on top, so this makes a min-heap on (time, id)). A lambda,
  /// not a function, so the heap algorithms inline the comparison.
  static constexpr auto fires_after = [](const Entry& a, const Entry& b) {
    return a.time > b.time || (a.time == b.time && a.id > b.id);
  };
  [[nodiscard]] bool dead(const Entry& e) const {
    return slots_[e.id & kSlotMask].id != e.id;
  }
  /// Pops tombstones off the top so the top entry, if any, is live.
  void drop_dead_top();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  std::uint64_t total_scheduled_ = 0;
};

}  // namespace sf::sim
