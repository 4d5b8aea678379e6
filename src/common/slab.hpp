#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "common/check.hpp"

// ASan integration for the slab poison mode: freed slots are marked
// unaddressable so any use-after-free trips a report at the faulting load,
// not at some later corruption. Compiles to nothing outside ASan builds.
#if defined(__SANITIZE_ADDRESS__)
#define SMILESS_SLAB_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMILESS_SLAB_ASAN 1
#endif
#endif
#ifndef SMILESS_SLAB_ASAN
#define SMILESS_SLAB_ASAN 0
#endif
#if SMILESS_SLAB_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace smiless::common {

/// Lifetime counters of one slab. Pure allocation-domain tallies; nothing
/// here feeds back into simulated behaviour.
struct SlabStats {
  std::uint64_t created = 0;   ///< total create() calls
  std::uint64_t destroyed = 0; ///< total destroy() calls
  std::uint64_t reused = 0;    ///< creates served from the freelist
  std::uint64_t blocks = 0;    ///< slab blocks carved from the system heap
  std::size_t live = 0;        ///< currently outstanding objects
  std::size_t peak_live = 0;   ///< high-water mark of `live`
};

/// Fixed-size-slot slab allocator: one size class per instantiation, one
/// LIFO freelist, geometrically growing blocks. This is the allocator for
/// the simulator's short-lived hot objects (queued events):
/// create/destroy are a freelist push/pop in the steady state, objects of a
/// class pack contiguously (cache locality the general-purpose heap cannot
/// promise), and nothing is ever returned to the system until the slab
/// dies, so the allocation pattern cannot perturb its neighbours.
///
/// Determinism contract: the freelist is strictly LIFO, so for a given
/// sequence of create/destroy calls the slot addresses handed out are a
/// pure function of that sequence. No behaviour may depend on the numeric
/// pointer values regardless (detlint ptr-key rule); the LIFO guarantee
/// exists so allocation itself can never introduce run-to-run variance.
///
/// Debug poison mode (on by default under ASan and in !NDEBUG builds):
/// destroy() fills the slot with kPoisonByte and, under ASan, marks it
/// unaddressable until reuse — a use-after-free faults at the offending
/// access instead of corrupting a recycled object.
///
/// Owner responsibilities: destroy() every live object before the slab is
/// destructed (the slab only reclaims raw memory, it runs no destructors),
/// and never destroy() a pointer the slab did not create.
template <class T>
class Slab {
 public:
  static constexpr unsigned char kPoisonByte = 0xDD;

#if SMILESS_SLAB_ASAN
  static constexpr bool kPoisonDefault = true;
#elif defined(NDEBUG)
  static constexpr bool kPoisonDefault = false;
#else
  static constexpr bool kPoisonDefault = true;
#endif

  explicit Slab(std::size_t first_block_slots = 64, bool poison = kPoisonDefault)
      : next_block_slots_(first_block_slots), poison_(poison) {
    SMILESS_CHECK(first_block_slots > 0);
  }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  ~Slab() {
    for (Block& b : blocks_) {
#if SMILESS_SLAB_ASAN
      __asan_unpoison_memory_region(b.mem, b.slots * kSlotSize);
#endif
      ::operator delete[](b.mem, std::align_val_t{alignof(T)});
    }
  }

  /// Allocate + construct. Reuses the most recently destroyed slot first
  /// (LIFO), else carves the next slot of the current block, else grows.
  template <class... Args>
  T* create(Args&&... args) {
    void* slot;
    if (!freelist_.empty()) {
      slot = freelist_.back();
      freelist_.pop_back();
#if SMILESS_SLAB_ASAN
      __asan_unpoison_memory_region(slot, kSlotSize);
#endif
      ++stats_.reused;
    } else {
      slot = carve();
    }
    T* obj = ::new (slot) T(std::forward<Args>(args)...);
    ++stats_.created;
    ++stats_.live;
    if (stats_.live > stats_.peak_live) stats_.peak_live = stats_.live;
    return obj;
  }

  /// Destruct + return the slot to the freelist (poisoning it first when
  /// the debug mode is on).
  void destroy(T* obj) {
    SMILESS_CHECK(obj != nullptr);
    obj->~T();
    void* slot = static_cast<void*>(obj);
    if (poison_) {
      std::memset(slot, kPoisonByte, kSlotSize);
#if SMILESS_SLAB_ASAN
      __asan_poison_memory_region(slot, kSlotSize);
#endif
    }
    freelist_.push_back(slot);
    ++stats_.destroyed;
    --stats_.live;
  }

  bool poison() const { return poison_; }
  const SlabStats& stats() const { return stats_; }

 private:
  // A slot must hold a T; rounding the slot to the alignment keeps every
  // slot in a block equally aligned.
  static constexpr std::size_t kSlotSize =
      (sizeof(T) + alignof(T) - 1) / alignof(T) * alignof(T);

  struct Block {
    std::byte* mem = nullptr;
    std::size_t slots = 0;
    std::size_t used = 0;  ///< slots carved so far
  };

  void* carve() {
    if (blocks_.empty() || blocks_.back().used == blocks_.back().slots) {
      Block b;
      b.slots = next_block_slots_;
      b.mem = static_cast<std::byte*>(
          ::operator new[](b.slots * kSlotSize, std::align_val_t{alignof(T)}));
      blocks_.push_back(b);
      ++stats_.blocks;
      // Geometric growth, capped so a huge queue does not over-reserve.
      if (next_block_slots_ < kMaxBlockSlots) next_block_slots_ *= 2;
    }
    Block& b = blocks_.back();
    return b.mem + (b.used++) * kSlotSize;
  }

  static constexpr std::size_t kMaxBlockSlots = 1 << 16;

  std::vector<Block> blocks_;
  std::vector<void*> freelist_;  // LIFO: deterministic reuse order
  std::size_t next_block_slots_;
  bool poison_;
  SlabStats stats_;
};

}  // namespace smiless::common
