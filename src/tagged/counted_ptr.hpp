// 128-bit counted pointer: a real T* packed with a 64-bit modification
// counter, CASed with x86-64 cmpxchg16b (the paper's "double-word
// compare_and_swap" option).  CountedPtr has TaggedIndex's interface, so
// code written over link values (mem::FreeList, queues::MsQueue) runs over
// either representation; the pointer itself is the link's target.
//
// AtomicDoubleWord is the one 16-byte atomic cell of the library: it holds
// a CountedPtr link here and WfQueue's announcement words.  We use the
// __sync builtin on unsigned __int128 rather than std::atomic<struct>,
// because GCC lowers the latter to libatomic calls that may take a lock;
// __sync_val_compare_and_swap with -mcx16 emits an inline cmpxchg16b, which
// is the lock-free primitive the algorithms require.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <type_traits>

#include "tagged/atomic_tagged.hpp"

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
template <typename V>
class alignas(16) AtomicDoubleWord {
  static_assert(sizeof(V) == 16 && std::is_trivially_copyable_v<V>,
                "AtomicDoubleWord holds one trivially copyable 16-byte value");

 public:
  using value_type = V;

  AtomicDoubleWord() noexcept = default;
  explicit AtomicDoubleWord(V initial) noexcept : bits_(pack(initial)) {}
  AtomicDoubleWord(const AtomicDoubleWord&) = delete;
  AtomicDoubleWord& operator=(const AtomicDoubleWord&) = delete;

  // The memory_order parameters document the WEAKEST ordering each call
  // site requires; the __sync builtins always emit a full-barrier
  // cmpxchg16b, which satisfies any requested order.  Requiring the
  // parameter keeps these sites under the same explicit-order discipline
  // as the single-word cells (tools/atomics_lint.py).

  /// Atomic 128-bit load.  Implemented as CAS(0, 0): on x86-64 there is no
  /// plain 16-byte atomic load pre-AVX guarantees, and the algorithms only
  /// ever need a consistent snapshot, which this provides.
  [[nodiscard]] V load(std::memory_order order) const noexcept {
    static_cast<void>(order);  // full barrier regardless (see above)
    return unpack(__sync_val_compare_and_swap(&bits_, 0, 0));
  }

  void store(V value, std::memory_order order) noexcept {
    static_cast<void>(order);  // full barrier regardless (see above)
    // Stores race with other threads' loads and CASes, so the value that
    // seeds the loop must itself be read atomically (CAS(0, 0)); a plain
    // read of bits_ is a data race.
    unsigned __int128 expected = __sync_val_compare_and_swap(&bits_, 0, 0);
    const unsigned __int128 desired = pack(value);
    for (;;) {
      const unsigned __int128 prev =
          __sync_val_compare_and_swap(&bits_, expected, desired);
      if (prev == expected) return;
      expected = prev;
    }
  }

  bool compare_and_swap(V expected, V desired,
                        std::memory_order order) noexcept {
    static_cast<void>(order);  // full barrier regardless (see above)
    return __sync_bool_compare_and_swap(&bits_, pack(expected), pack(desired));
  }

 private:
  static unsigned __int128 pack(V v) noexcept {
    return std::bit_cast<unsigned __int128>(v);
  }
  static V unpack(unsigned __int128 bits) noexcept {
    return std::bit_cast<V>(bits);
  }

  mutable unsigned __int128 bits_ = 0;
};

static_assert(sizeof(AtomicDoubleWord<CountedPtr<int>>) == 16);

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
