#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/slab.hpp"
#include "common/units.hpp"

namespace smiless::sim {

using EventId = std::uint64_t;

/// Internal tallies of the calendar structure itself (resizes, fallback
/// searches). Bench-facing diagnostics; never part of the determinism
/// contract and never serialized into comparable artifacts.
struct CalendarStats {
  std::uint64_t resizes = 0;          ///< bucket-array rebuilds (grow + shrink)
  std::uint64_t direct_searches = 0;  ///< full-scan fallbacks after an empty year
  std::size_t buckets = 0;            ///< current bucket count
  std::size_t peak_live = 0;          ///< high-water mark of live events
};

/// Calendar queue (Brown 1988) for the DES hot path: the event set is
/// hashed into `buckets` by virtual bucket number vb = floor(t / width), so
/// with the width tuned to the local inter-event gap, schedule and pop are
/// O(1) amortized instead of the O(log n) of a binary heap — and, unlike
/// the heap+map pair it replaces, one structure holds everything: each
/// bucket node carries its timestamp, its EventId and its callback inline,
/// allocated from a slab (one freelist hit per event, no per-event
/// `std::map` node).
///
/// Ordering contract: events pop in strictly non-decreasing (time, id)
/// order. Equal timestamps share a virtual bucket by construction and each
/// bucket list is kept sorted by (time, id), so FIFO-among-simultaneous
/// falls out of the monotonic EventId — exactly the Engine's contract.
///
/// Cancellation: cancel(id) resolves the node through a flat open-addressed
/// id map and tombstones it in place (the callback is released immediately;
/// the node is reclaimed when it surfaces at a bucket head or at the next
/// resize). Tombstones are excluded from live() by construction.
///
/// Determinism: no hashing of pointers, no unordered iteration, no clocks —
/// every structure walk is over vectors or sorted lists, and the bucket
/// geometry is a pure function of the schedule/cancel/pop history.
class CalendarQueue {
 public:
  using Callback = std::function<void()>;

  CalendarQueue();
  ~CalendarQueue();

  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  /// Insert an event. `id` must be unique among pending events (the Engine
  /// hands out monotonically increasing ids, which also carries the FIFO
  /// tie-break).
  void schedule(SimTime t, EventId id, Callback cb);

  /// Tombstone a pending event; returns false if `id` is not pending
  /// (already fired, already cancelled, or never scheduled).
  bool cancel(EventId id);

  /// If the earliest live event has time <= `end`, pop it into the out
  /// parameters and return true; otherwise (later event, or empty) leave
  /// them untouched and return false.
  bool pop_due(SimTime end, SimTime* t, EventId* id, Callback* cb);

  /// Time of the earliest live event, or +infinity when empty. Positions
  /// the pop cursor (and reclaims tombstoned bucket heads) exactly like
  /// pop_due, so a peek-then-pop pair costs one scan, not two. Used by
  /// a paced lane loop to learn which instant to wait for; an unpaced run
  /// never calls it.
  SimTime next_time();

  /// Live (non-tombstoned) pending events.
  std::size_t live() const { return live_; }

  const CalendarStats& stats() const { return stats_; }

 private:
  struct Node {
    SimTime time = 0.0;
    std::uint64_t vb = 0;  ///< virtual bucket under the current geometry
    EventId id = 0;
    Node* next = nullptr;
    bool cancelled = false;
    Callback cb;
  };

  /// Flat open-addressed id -> node map (linear probing, power-of-two
  /// capacity, backward-shift deletion). EventId 0 marks an empty slot —
  /// the Engine's ids start at 1. Never iterated, so it cannot order
  /// anything (detlint unordered-iter does not apply to lookups).
  class IdMap {
   public:
    IdMap() { slots_.resize(kMinCapacity); }

    void put(EventId id, Node* node);
    Node* take(EventId id);  ///< erase + return, nullptr if absent
    std::size_t size() const { return size_; }

   private:
    struct Slot {
      EventId key = 0;
      Node* node = nullptr;
    };
    static constexpr std::size_t kMinCapacity = 64;

    std::size_t home(EventId id) const {
      // Fibonacci multiplicative hash: sequential ids spread uniformly.
      return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >>
                                      (64 - capacity_log2_)) &
             (slots_.size() - 1);
    }
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    unsigned capacity_log2_ = 6;  // log2(kMinCapacity)
  };

  /// A (time, id)-sorted singly-linked list with a tail pointer, so the
  /// common in-order insert (monotonic ids, same-timestamp bursts) is an
  /// O(1) append, plus a last-insert hint: a monotone run of inserts that
  /// lands mid-list (e.g. thousands of same-timestamp window ticks in a
  /// bucket that also holds later arrivals) chains each node after the
  /// previous one in O(1) instead of re-walking the prefix every time.
  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
    Node* hint = nullptr;  ///< last inserted node; cleared when unlinked
  };

  std::uint64_t vbucket(SimTime t) const;
  void insert_node(Node* node);
  void unlink_free_cancelled_head(std::size_t idx);
  /// Position the cursor at the globally earliest live event and return it
  /// (with its physical bucket index in *idx); nullptr when live_ == 0.
  Node* find_earliest(std::size_t* idx);
  void resize(std::size_t new_buckets);
  void maybe_grow();
  void maybe_shrink();
  /// Full scan fallback: point the cursor at the globally earliest live
  /// event. Pre: live_ > 0.
  void direct_search();

  // Bucket geometry. `cur_vb_` is the cursor: the virtual bucket the pop
  // scan is positioned at. Invariant: every live event has vb >= cur_vb_ or
  // the insert that violated it reset the cursor.
  std::vector<Bucket> buckets_;
  double width_ = 1.0;
  double inv_width_ = 1.0;
  std::uint64_t cur_vb_ = 0;
  std::size_t total_nodes_ = 0;  ///< incl. tombstones still in buckets
  std::size_t live_ = 0;

  common::Slab<Node> slab_;
  IdMap ids_;
  CalendarStats stats_;

  static constexpr std::size_t kMinBuckets = 16;
  /// vb values are clamped here; anything that far out (e.g. an event at
  /// +inf) lives in the far-future bucket and is only reachable through
  /// direct_search, which compares times, not vb.
  static constexpr double kMaxVb = 4.0e18;  // < 2^62, safely castable
};

}  // namespace smiless::sim
