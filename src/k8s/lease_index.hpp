#pragma once

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sf::k8s {

/// Calendarized node-lease deadline index.
///
/// Heartbeats are cohort-shaped: every node renewed by the same wheel tick
/// shares one lease timestamp, so the priority structure orders
/// *timestamps*, not nodes. One bucket per distinct lease time holds an
/// intrusive doubly-linked list of node slots; a binary min-heap (with back-pointers
/// for O(log n) removal of arbitrary buckets) orders bucket times; a hash
/// keyed by the timestamp's bit pattern finds the bucket a renewal moves
/// into. Renewing a cohort of 10k nodes into the current tick's bucket is
/// 10k O(1) list moves plus one bucket allocation; a lifecycle sweep pops
/// only buckets whose time has actually expired — zero per-node work when
/// every lease is fresh.
///
/// Only *ready* nodes are tracked (the lifecycle controller's expiry
/// predicate `ready && age > duration` becomes plain membership); the
/// caller maintains that invariant via its set_node_ready hooks.
class LeaseIndex {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  [[nodiscard]] bool tracked(std::uint32_t slot) const {
    return slot < bucket_of_.size() && bucket_of_[slot] != kNil;
  }
  [[nodiscard]] std::size_t size() const { return tracked_; }

  /// Starts tracking `slot` with lease timestamp `time`. No-op when
  /// already tracked (use renew for that).
  void track(std::uint32_t slot, double time) {
    if (slot >= bucket_of_.size()) {
      bucket_of_.resize(slot + 1, kNil);
      prev_.resize(slot + 1, kNil);
      next_.resize(slot + 1, kNil);
    }
    if (bucket_of_[slot] != kNil) return;
    append_to_bucket(slot, bucket_for(time));
    ++tracked_;
  }

  /// Stops tracking `slot`. Idempotent.
  void untrack(std::uint32_t slot) {
    if (!tracked(slot)) return;
    unlink(slot);
    --tracked_;
  }

  /// Moves a tracked slot to lease timestamp `time`; tracks it when it is
  /// not. Renewals within one cohort share `time`, so all but the first
  /// hit the cached target bucket.
  void renew(std::uint32_t slot, double time) {
    if (!tracked(slot)) {
      track(slot, time);
      return;
    }
    const std::uint32_t target = bucket_for(time);
    if (bucket_of_[slot] == target) return;
    unlink(slot);
    append_to_bucket(slot, target);
  }

  /// Pops every slot whose lease satisfies `now - lease > duration` — the
  /// exact float predicate the old per-node rescan applied, evaluated once
  /// per bucket (all members share the timestamp). Oldest bucket first;
  /// calls fn(slot) for each popped slot. Popped slots become untracked.
  template <typename F>
  void pop_expired(double now, double duration, F&& fn) {
    while (!heap_.empty() && now - heap_.front().time > duration) {
      const std::uint32_t b = heap_.front().bucket;
      std::uint32_t s = buckets_[b].head;
      while (s != kNil) {
        const std::uint32_t nxt = next_[s];
        bucket_of_[s] = kNil;
        --tracked_;
        fn(s);
        s = nxt;
      }
      buckets_[b].head = buckets_[b].tail = kNil;
      retire_bucket(b);
    }
  }

 private:
  struct Bucket {
    double time = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t heap_pos = 0;
  };
  struct HeapEntry {
    double time;
    std::uint32_t bucket;
  };

  /// -0.0 folds into +0.0 so both land in the same bucket.
  static std::uint64_t time_key(double t) {
    return std::bit_cast<std::uint64_t>(t == 0.0 ? 0.0 : t);
  }

  std::uint32_t bucket_for(double time) {
    if (cached_bucket_ != kNil && buckets_[cached_bucket_].time == time) {
      return cached_bucket_;
    }
    auto [it, inserted] = by_time_.try_emplace(time_key(time), 0);
    if (!inserted) {
      cached_bucket_ = it->second;
      return it->second;
    }
    std::uint32_t b;
    if (!free_buckets_.empty()) {
      b = free_buckets_.back();
      free_buckets_.pop_back();
      buckets_[b] = Bucket{};
    } else {
      b = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    }
    buckets_[b].time = time;
    it->second = b;
    sift_up(heap_.size(), HeapEntry{time, b});
    cached_bucket_ = b;
    return b;
  }

  void append_to_bucket(std::uint32_t slot, std::uint32_t b) {
    Bucket& bk = buckets_[b];
    prev_[slot] = bk.tail;
    next_[slot] = kNil;
    if (bk.tail == kNil) {
      bk.head = slot;
    } else {
      next_[bk.tail] = slot;
    }
    bk.tail = slot;
    bucket_of_[slot] = b;
  }

  void unlink(std::uint32_t slot) {
    const std::uint32_t b = bucket_of_[slot];
    Bucket& bk = buckets_[b];
    if (prev_[slot] == kNil) {
      bk.head = next_[slot];
    } else {
      next_[prev_[slot]] = next_[slot];
    }
    if (next_[slot] == kNil) {
      bk.tail = prev_[slot];
    } else {
      prev_[next_[slot]] = prev_[slot];
    }
    bucket_of_[slot] = kNil;
    if (bk.head == kNil) retire_bucket(b);
  }

  void retire_bucket(std::uint32_t b) {
    by_time_.erase(time_key(buckets_[b].time));
    remove_heap_at(buckets_[b].heap_pos);
    free_buckets_.push_back(b);
    if (cached_bucket_ == b) cached_bucket_ = kNil;
  }

  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    buckets_[e.bucket].heap_pos = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i, HeapEntry moving) {
    if (i == heap_.size()) heap_.emplace_back();
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent].time <= moving.time) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, moving);
  }

  void sift_down(std::size_t i, HeapEntry moving) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].time < heap_[child].time) {
        ++child;
      }
      if (heap_[child].time >= moving.time) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, moving);
  }

  void remove_heap_at(std::size_t pos) {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;
    if (pos > 0 && last.time < heap_[(pos - 1) / 2].time) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }

  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::vector<HeapEntry> heap_;  ///< one entry per distinct lease time
  std::unordered_map<std::uint64_t, std::uint32_t> by_time_;
  std::uint32_t cached_bucket_ = kNil;  ///< last bucket_for() result
  // Per node slot: owning bucket + intrusive list links.
  std::vector<std::uint32_t> bucket_of_;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> next_;
  std::size_t tracked_ = 0;
};

}  // namespace sf::k8s
