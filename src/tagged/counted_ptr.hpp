// 128-bit counted pointer: a real T* packed with a 64-bit modification
// counter, CASed with x86-64 cmpxchg16b (the paper's "double-word
// compare_and_swap" option).  CountedPtr has TaggedIndex's interface, so
// code written over link values (mem::FreeList, queues::MsQueue) runs over
// either representation; the pointer itself is the link's target.
//
// AtomicDoubleWord is the one 16-byte atomic cell of the library: it holds
// a CountedPtr link here, WfQueue's announcement words and ScqQueue's
// {meta, value} ring entries.  We use the __sync builtin on unsigned
// __int128 rather than std::atomic<struct>, because GCC lowers the latter
// to libatomic calls that may take a lock; __sync_val_compare_and_swap with
// -mcx16 emits an inline cmpxchg16b, which is the lock-free primitive the
// algorithms require.
//
// The cell reaches memory through the atomics seam (port/atomic.hpp): its
// halves are port::AtomicRef words, and in the model build (MSQ_MODEL=1)
// the whole cell is two adjacent simulated words whose 16-byte CAS is one
// sim::Engine kCas2 step (sim/model.hpp).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "port/atomic.hpp"
#include "tagged/atomic_tagged.hpp"

// Without -mcx16 the __sync builtins below compile to libatomic calls,
// which may take a lock: every double-word CAS would silently stop being
// lock-free.  Both CMakeLists pass the flag; this keeps a build that drops
// it from compiling at all.
#ifndef __GCC_HAVE_SYNC_COMPARE_AND_SWAP_16
#error "16-byte CAS is not inline: build with -mcx16 (x86-64 cmpxchg16b)"
#endif

namespace msq::tagged {

template <typename T>
class CountedPtr {
 public:
  /// What a link designates: here the node itself.
  using target_type = T*;

  constexpr CountedPtr() noexcept = default;
  /// `ptr` may be nullptr: a counted null, like TaggedIndex(kNullIndex, c).
  constexpr CountedPtr(T* ptr, std::uint64_t count) noexcept
      : ptr_(ptr), count_(count) {}

  [[nodiscard]] constexpr T* target() const noexcept { return ptr_; }
  [[nodiscard]] constexpr std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] constexpr bool is_null() const noexcept { return ptr_ == nullptr; }

  /// The value a successful CAS should install: new target, counter + 1.
  [[nodiscard]] constexpr CountedPtr successor(T* new_ptr) const noexcept {
    return CountedPtr(new_ptr, count_ + 1);
  }

  friend constexpr bool operator==(CountedPtr, CountedPtr) noexcept = default;

 private:
  T* ptr_ = nullptr;
  std::uint64_t count_ = 0;
};

/// 16-byte-aligned atomic cell for any trivially copyable 16-byte value,
/// driven by cmpxchg16b.  A default-constructed cell holds the all-zero
/// value (for CountedPtr: null, count 0).
///
/// Besides whole-cell operations, each 8-byte half is reachable as an
/// atomic word of its own (`word(i)`; x86-64 is little-endian, so word 0
/// holds the value's first 8 bytes).  That lets a reader load the cell
/// without writing it and lets a writer RMW one field alone; a 16-byte
/// compare_exchange still validates whatever the halves' readers assumed.
template <typename V>
class alignas(16) AtomicDoubleWord {
  static_assert(sizeof(V) == 16 && std::is_trivially_copyable_v<V>,
                "AtomicDoubleWord holds one trivially copyable 16-byte value");

 public:
  using value_type = V;

  AtomicDoubleWord() noexcept = default;
  explicit AtomicDoubleWord(V initial) noexcept
#if MSQ_MODEL
      : base_(sim::model::alloc(std::bit_cast<Words>(initial)))
#else
      : words_(std::bit_cast<Words>(initial))
#endif
  {
  }
  AtomicDoubleWord(const AtomicDoubleWord&) = delete;
  AtomicDoubleWord& operator=(const AtomicDoubleWord&) = delete;

  // The memory_order parameters document the WEAKEST ordering each call
  // site requires; the __sync builtins always emit a full-barrier
  // cmpxchg16b, which satisfies any requested order.  Requiring the
  // parameter keeps these sites under the same explicit-order discipline
  // as the single-word cells (tools/atomics_lint.py).

  /// Atomic 128-bit load.  Implemented as CAS(0, 0): on x86-64 there is no
  /// plain 16-byte atomic load pre-AVX guarantees, and the algorithms only
  /// ever need a consistent snapshot, which this provides.  It is a locked
  /// write, though: readers take the line exclusive.  See load_halves().
  [[nodiscard]] V load(port::MemoryOrder order) const noexcept {
    return unpack(swap_if(0, 0, order));
  }

  /// The cell as two 8-byte atomic loads, word 0 first.  Writes nothing,
  /// but is NOT a snapshot: the halves may come from different values.  A
  /// caller that acts on the result passes it to compare_exchange, which
  /// fails on a torn guess and hands back the true value.
  [[nodiscard]] V load_halves(port::MemoryOrder order) const noexcept {
    const Words w{word(0).load(order), word(1).load(order)};
    return std::bit_cast<V>(w);
  }

  void store(V value, port::MemoryOrder order) noexcept {
    // Stores race with other threads' loads and CASes, so the value that
    // seeds the loop must itself be read atomically (CAS(0, 0)); a plain
    // read of the cell is a data race.
    unsigned __int128 expected = swap_if(0, 0, order);
    const unsigned __int128 desired = pack(value);
    for (;;) {
      const unsigned __int128 prev = swap_if(expected, desired, order);
      if (prev == expected) return;
      expected = prev;
    }
  }

  bool compare_and_swap(V expected, V desired,
                        port::MemoryOrder order) noexcept {
    return swapped_if(pack(expected), pack(desired), order);
  }

  /// compare_and_swap that, on failure, stores the value it found in
  /// `expected` -- one locked instruction either way.
  bool compare_exchange(V& expected, V desired,
                        port::MemoryOrder order) noexcept {
    const unsigned __int128 want = pack(expected);
    const unsigned __int128 prev = swap_if(want, pack(desired), order);
    if (prev == want) return true;
    expected = unpack(prev);
    return false;
  }

  /// Half `i` (0 or 1) as an 8-byte atomic: loads and single-word RMWs on
  /// a field that lives in one half.
  [[nodiscard]] port::AtomicRef<std::uint64_t> word(std::size_t i) const
      noexcept {
#if MSQ_MODEL
    return port::AtomicRef<std::uint64_t>(base_ + static_cast<sim::Addr>(i));
#else
    return std::atomic_ref<std::uint64_t>(words_[i]);
#endif
  }

 private:
  using Words = std::array<std::uint64_t, 2>;

  static unsigned __int128 pack(V v) noexcept {
    return std::bit_cast<unsigned __int128>(v);
  }
  static V unpack(unsigned __int128 bits) noexcept {
    return std::bit_cast<V>(bits);
  }

#if MSQ_MODEL
  // The 16-byte CAS, returning the previous value / whether it swapped.
  unsigned __int128 swap_if(unsigned __int128 expected,
                            unsigned __int128 desired,
                            port::MemoryOrder order) const noexcept {
    std::uint64_t high = 0;
    const std::uint64_t low = sim::model::access(
        {sim::OpKind::kCas2, base_, static_cast<std::uint64_t>(expected),
         static_cast<std::uint64_t>(expected >> 64), 0, {},
         static_cast<std::uint64_t>(desired),
         static_cast<std::uint64_t>(desired >> 64)},
        order, &high);
    return (static_cast<unsigned __int128>(high) << 64) | low;
  }
  bool swapped_if(unsigned __int128 expected, unsigned __int128 desired,
                  port::MemoryOrder order) const noexcept {
    return swap_if(expected, desired, order) == expected;
  }

  // Two adjacent words of the newest sim::Engine, word 0 first.
  sim::Addr base_ = sim::model::alloc(Words{});
#else
  // The 16-byte CAS, returning the previous value / whether it swapped.
  // The order is documentation: cmpxchg16b is a full barrier (see above).
  unsigned __int128 swap_if(unsigned __int128 expected,
                            unsigned __int128 desired,
                            std::memory_order /*order*/) const noexcept {
    return __sync_val_compare_and_swap(bits(), expected, desired);
  }
  bool swapped_if(unsigned __int128 expected, unsigned __int128 desired,
                  std::memory_order /*order*/) const noexcept {
    return __sync_bool_compare_and_swap(bits(), expected, desired);
  }

  // cmpxchg16b addresses the two words as one; may_alias keeps that view
  // of the array well-defined for the optimiser.
  using Bits [[gnu::may_alias]] = unsigned __int128;

  [[nodiscard]] Bits* bits() const noexcept {
    return reinterpret_cast<Bits*>(words_.data());
  }

  alignas(16) mutable Words words_{};
#endif
};

#if !MSQ_MODEL
static_assert(sizeof(AtomicDoubleWord<CountedPtr<int>>) == 16);
#endif

/// The two counted-link representations of paper section 1 ("a double-word
/// compare_and_swap, or else ... array indices"), as the `cell` type of a
/// node's `next` and of Head/Tail.  Pool-backed structures written over
/// cell<Node>::value_type run unchanged on either.
struct IndexLink {  // 32-bit pool index + 32-bit count: one 64-bit CAS word
  template <typename Node>
  using cell = AtomicTagged;
};
struct PointerLink {  // node pointer + 64-bit count: cmpxchg16b
  template <typename Node>
  using cell = AtomicDoubleWord<CountedPtr<Node>>;
};

}  // namespace msq::tagged
