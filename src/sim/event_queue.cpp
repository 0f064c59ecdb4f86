#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sf::sim {

EventId EventQueue::schedule(SimTime t, Callback fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    assert(slot <= kSlotMask && "EventQueue: too many live events");
    slots_.emplace_back();
  }
  const EventId id = (++total_scheduled_ << kSlotBits) | slot;
  slots_[slot].id = id;
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Entry{t, id});
  std::push_heap(heap_.begin(), heap_.end(), fires_after);
  ++live_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (id == kNoEvent || slot >= slots_.size() || slots_[slot].id != id) {
    return false;
  }
  slots_[slot] = Slot{};  // destroys the callback eagerly
  free_slots_.push_back(slot);
  --live_;
  if (heap_.size() > 2 * live_ + kRebuildSlack) {
    std::erase_if(heap_, [this](const Entry& e) { return dead(e); });
    std::make_heap(heap_.begin(), heap_.end(), fires_after);
  } else {
    drop_dead_top();
  }
  return true;
}

EventQueue::Fired EventQueue::pop() {
  assert(live_ > 0 && "pop() on empty EventQueue");
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), fires_after);
  heap_.pop_back();
  const auto slot = static_cast<std::uint32_t>(top.id & kSlotMask);
  Fired fired{top.time, top.id, std::move(slots_[slot].fn)};
  slots_[slot].id = kNoEvent;
  free_slots_.push_back(slot);
  --live_;
  drop_dead_top();
  return fired;
}

void EventQueue::drop_dead_top() {
  while (!heap_.empty() && dead(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), fires_after);
    heap_.pop_back();
  }
}

}  // namespace sf::sim
