// 64-bit counted "pointer": a 32-bit node-pool index packed with a 32-bit
// modification counter.
//
// Paper, section 1: "To implement this solution, one must either employ a
// double-word compare_and_swap, or else use array indices instead of
// pointers, so that they may share a single word with a counter."
//
// This is the array-index variant: the queue's nodes live in a pool
// (mem/node_pool.hpp) and every shared link (Head, Tail, node.next) stores a
// TaggedIndex.  Each successful CAS installs a value whose counter is the
// observed counter + 1, making an ABA hazard require 2^32 intervening
// operations within one read-CAS window.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>

namespace msq::tagged {

/// Sentinel index playing the role of the paper's NULL pointer.
inline constexpr std::uint32_t kNullIndex = std::numeric_limits<std::uint32_t>::max();

class TaggedIndex {
 public:
  /// What a link designates: a pool slot (tagged::CountedPtr's is a node
  /// pointer; generic link code names either as target()).
  using target_type = std::uint32_t;

  constexpr TaggedIndex() noexcept = default;
  constexpr TaggedIndex(std::uint32_t index, std::uint32_t count) noexcept
      : bits_(static_cast<std::uint64_t>(count) << 32 | index) {}

  /// The pool slot this "pointer" designates, or kNullIndex.
  [[nodiscard]] constexpr std::uint32_t index() const noexcept {
    return static_cast<std::uint32_t>(bits_);
  }
  [[nodiscard]] constexpr std::uint32_t target() const noexcept { return index(); }
  /// The ABA modification counter.
  [[nodiscard]] constexpr std::uint32_t count() const noexcept {
    return static_cast<std::uint32_t>(bits_ >> 32);
  }
  [[nodiscard]] constexpr bool is_null() const noexcept {
    return index() == kNullIndex;
  }

  /// The value a successful CAS should install: new target, counter + 1.
  [[nodiscard]] constexpr TaggedIndex successor(std::uint32_t new_index) const noexcept {
    return TaggedIndex(new_index, count() + 1);
  }

  [[nodiscard]] constexpr std::uint64_t bits() const noexcept { return bits_; }
  static constexpr TaggedIndex from_bits(std::uint64_t bits) noexcept {
    TaggedIndex t;
    t.bits_ = bits;
    return t;
  }

  /// Equality compares index AND counter, exactly like the paper's
  /// double-word CAS comparison; two pointers to the same node at different
  /// times are intentionally unequal.
  friend constexpr bool operator==(TaggedIndex, TaggedIndex) noexcept = default;

 private:
  // Layout: [ count : 32 | index : 32 ].  A default-constructed value is a
  // null pointer with counter 0.
  std::uint64_t bits_ = static_cast<std::uint64_t>(kNullIndex);
};

static_assert(sizeof(TaggedIndex) == 8);
static_assert(TaggedIndex{}.is_null());

}  // namespace msq::tagged
