// Atomic cell holding a TaggedIndex: one 64-bit word, std::atomic<uint64_t>
// in normal builds.
//
// The read/CAS discipline mirrors the paper's pseudo-code: loads return the
// (index, count) pair read atomically in one word ("Read Tail.ptr and
// Tail.count together"), and compare-and-swap succeeds only if both match.
//
// No defaulted memory orders: every call site spells out the ordering it
// relies on, so the compiler enforces the same discipline that
// tools/atomics_lint.py checks textually.
//
// The word is a port::Atomic (port/atomic.hpp): in the model build
// (MSQ_MODEL=1) it is one simulated word, and each call is one
// sim::Engine step.
#pragma once

#include <cstdint>

#include "port/atomic.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::tagged {

class AtomicTagged {
 public:
  using value_type = TaggedIndex;

  AtomicTagged() noexcept = default;
  explicit AtomicTagged(TaggedIndex initial) noexcept : bits_(initial.bits()) {}
  AtomicTagged(const AtomicTagged&) = delete;
  AtomicTagged& operator=(const AtomicTagged&) = delete;

  [[nodiscard]] TaggedIndex load(port::MemoryOrder order) const noexcept {
    return TaggedIndex::from_bits(bits_.load(order));
  }

  void store(TaggedIndex value, port::MemoryOrder order) noexcept {
    bits_.store(value.bits(), order);
  }

  /// Unconditional swap (fetch_and_store); returns the previous value.
  /// Used by the Mellor-Crummey queue's tail claim, which by construction
  /// needs no counter discipline (the swap cannot spuriously succeed).
  TaggedIndex exchange(TaggedIndex desired, port::MemoryOrder order) noexcept {
    return TaggedIndex::from_bits(bits_.exchange(desired.bits(), order));
  }

  /// Single-word CAS over the packed (index, count) pair.  `order` is the
  /// success ordering; the failure ordering is the standard's derivation
  /// (acquire for acq_rel, so a failed linearizing CAS still observes the
  /// winner's published state before retrying).
  bool compare_and_swap(TaggedIndex expected, TaggedIndex desired,
                        port::MemoryOrder order) noexcept {
    std::uint64_t exp = expected.bits();
    return bits_.compare_exchange_strong(exp, desired.bits(), order);
  }

 private:
  // share-ok: single-word cell; callers place it (CacheAligned for queue
  // ends, packed inside Node where count+link must share one CAS word).
  port::Atomic<std::uint64_t> bits_{TaggedIndex{}.bits()};
};

#if !MSQ_MODEL
static_assert(sizeof(AtomicTagged) == 8);
#endif

}  // namespace msq::tagged
