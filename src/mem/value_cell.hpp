// Race-tolerant value slot for the lock-free queues.
//
// In the paper's dequeue, the value is read *before* the CAS that removes
// the node ("Read value before CAS, otherwise another dequeue might free the
// next node").  A losing dequeuer may therefore read a node that a winning
// dequeuer has already recycled and that an enqueuer is concurrently
// refilling.  The algorithm discards the torn value (the CAS fails), but in
// C++ the racing read itself would be undefined behaviour on a plain field.
// ValueCell makes that read well-defined (and TSAN-clean) by storing the
// value in a relaxed std::atomic word.
//
// Consequence: the lock-free queues require trivially-copyable values of at
// most 8 bytes (store pointers or indices for anything larger).  The
// lock-based queues have no such restriction.
//
// The word is a port::Atomic (port/atomic.hpp): in the model build
// (MSQ_MODEL=1) each put/get is one sim::Engine step.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "port/atomic.hpp"

namespace msq::mem {

template <typename T>
class ValueCell {
  static_assert(std::is_trivially_copyable_v<T>,
                "lock-free queues require trivially copyable values");
  static_assert(sizeof(T) <= 8,
                "lock-free queues require values of at most 8 bytes; "
                "store a pointer or index for larger payloads");

 public:
  // Named put/get rather than store/load on purpose: the relaxed ordering
  // is a property of the TYPE (the queue's CAS carries the ordering; this
  // slot only needs atomicity against torn reads), so sites should not
  // look like tunable atomic operations to readers or to the atomics lint.
  void put(T value) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(T));
    // relaxed: ordering is provided by the CAS that publishes the node (proof: mo-sweep:ms.E2.value_write)
    bits_.store(bits, std::memory_order_relaxed);
  }

  [[nodiscard]] T get() const noexcept {
    // relaxed: a stale/torn-free read; the guarding CAS rejects stale uses (proof: mo-sweep:ms.D11.value_read)
    const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
    T value;
    std::memcpy(&value, &bits, sizeof(T));
    return value;
  }

 private:
  // share-ok: lives inside pool nodes, packed next to the link on purpose
  // (one node, one line; the queue ends are the contended words, not this)
  port::Atomic<std::uint64_t> bits_{0};
};

}  // namespace msq::mem
