// Atomic cell holding a TaggedIndex, wrapping std::atomic<uint64_t>.
//
// The read/CAS discipline mirrors the paper's pseudo-code: loads return the
// (index, count) pair read atomically in one word ("Read Tail.ptr and
// Tail.count together"), and compare-and-swap succeeds only if both match.
//
// No defaulted memory orders: every call site spells out the ordering it
// relies on, so the compiler enforces the same discipline that
// tools/atomics_lint.py checks textually.
#pragma once

#include <atomic>

#include "tagged/tagged_index.hpp"

namespace msq::tagged {

/// The failure ordering a CAS is entitled to, given its success ordering
/// (C++17 dropped the "failure no stronger than success" rule, but keeping
/// the derivation explicit documents what the failed path may assume).
[[nodiscard]] constexpr std::memory_order cas_failure_order(
    std::memory_order success) noexcept {
  switch (success) {
    case std::memory_order_seq_cst: return std::memory_order_seq_cst;
    case std::memory_order_acq_rel:
    case std::memory_order_acquire: return std::memory_order_acquire;
    // relaxed: a relaxed/release-success CAS promises nothing on failure
    default:                        return std::memory_order_relaxed;
  }
}

class AtomicTagged {
 public:
  using value_type = TaggedIndex;

  AtomicTagged() noexcept = default;
  explicit AtomicTagged(TaggedIndex initial) noexcept : bits_(initial.bits()) {}
  AtomicTagged(const AtomicTagged&) = delete;
  AtomicTagged& operator=(const AtomicTagged&) = delete;

  [[nodiscard]] TaggedIndex load(std::memory_order order) const noexcept {
    return TaggedIndex::from_bits(bits_.load(order));
  }

  void store(TaggedIndex value, std::memory_order order) noexcept {
    bits_.store(value.bits(), order);
  }

  /// Unconditional swap (fetch_and_store); returns the previous value.
  /// Used by the Mellor-Crummey queue's tail claim, which by construction
  /// needs no counter discipline (the swap cannot spuriously succeed).
  TaggedIndex exchange(TaggedIndex desired, std::memory_order order) noexcept {
    return TaggedIndex::from_bits(bits_.exchange(desired.bits(), order));
  }

  /// Single-word CAS over the packed (index, count) pair.  `order` is the
  /// success ordering; the failure ordering is derived (acquire for
  /// acquire-class successes, so a failed linearizing CAS still observes
  /// the winner's published state before retrying).
  bool compare_and_swap(TaggedIndex expected, TaggedIndex desired,
                        std::memory_order order) noexcept {
    std::uint64_t exp = expected.bits();
    return bits_.compare_exchange_strong(exp, desired.bits(), order,
                                         cas_failure_order(order));
  }

 private:
  // share-ok: single-word cell; callers place it (CacheAligned for queue
  // ends, packed inside Node where count+link must share one CAS word).
  std::atomic<std::uint64_t> bits_{TaggedIndex{}.bits()};
};

static_assert(sizeof(AtomicTagged) == 8);

}  // namespace msq::tagged
