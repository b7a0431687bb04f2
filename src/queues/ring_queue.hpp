// Bounded MPMC ring queue with ticketed slots and per-slot sequence
// handshakes (the design popularised by Dmitry Vyukov).
//
// NOT part of the paper's evaluation -- included as the modern comparison
// point the library's users would reach for today.  Like Mellor-Crummey's
// queue it is lock-free but BLOCKING (a claimant stalled between taking a
// ticket and completing the slot handshake stalls the matching operation),
// but its coherence profile is far better than any of the 1996 algorithms:
// one contended RMW per operation plus slot lines shared by just two
// processors at a time.  bench/micro_ops shows it beating the MS queue on
// throughput -- exactly the kind of result the paper's framework predicts
// for algorithms that reduce hot-line transfers.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>

#include "obs/probe.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"

namespace msq::queues {

template <typename T>
class RingQueue {
 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kLockFreeBlocking,
      .mpmc = true,
      .pool_backed = true,  // bounded ring
      .linearizable = true,
  };

  /// Largest accepted capacity: the rounded-up size must fit 32 bits.
  static constexpr std::uint32_t kMaxCapacity = std::uint32_t{1} << 31;

  /// Throws std::length_error, before allocating, above kMaxCapacity.
  explicit RingQueue(std::uint32_t capacity)
      : capacity_(checked_capacity(capacity)),
        mask_(capacity_ - 1),
        cells_(std::make_unique<Cell[]>(capacity_)) {
    for (std::uint32_t i = 0; i < capacity_; ++i) {
      // relaxed: construction is single-threaded (proof: test:tests/queue_concurrent_test.cpp)
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;

  /// Returns false iff the ring is full of undequeued items.
  bool try_enqueue(T value) noexcept {
    // relaxed: a stale ticket just retries; cell.seq carries the ordering (proof: test:tests/queue_concurrent_test.cpp)
    std::uint64_t ticket = enq_ticket_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[ticket & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq == ticket) {
        // Slot free for this round: claim the ticket.
        // relaxed: the seq acquire/release handshake orders the payload; (proof: test:tests/queue_concurrent_test.cpp)
        // the ticket is only an allocation counter
        if (enq_ticket_.compare_exchange_weak(ticket, ticket + 1,
                                              std::memory_order_relaxed)) {  // relaxed: ^
          cell.value = std::move(value);
          // Handshake: publish the filled slot.  A stall between the claim
          // above and this store is exactly the blocking window.
          cell.seq.store(ticket + 1, std::memory_order_release);
          MSQ_COUNT(kEnqueue);
          return true;
        }
      } else if (seq < ticket) {
        // The slot still holds an item from `capacity_` tickets ago that no
        // dequeuer has taken: ring full.
        // relaxed: fullness estimate; a stale read only delays the verdict (proof: test:tests/queue_concurrent_test.cpp)
        if (deq_ticket_.load(std::memory_order_relaxed) + capacity_ <= ticket) {
          MSQ_COUNT(kPoolRefuse);  // bounded ring's analogue of pool refusal
          // Distinct from pool_refuse: queue_full is the backpressure signal
          // the open-loop shed policy keys off (src/scenario/driver.hpp) --
          // capacity reached, as opposed to an allocator running dry.
          MSQ_COUNT(kQueueFull);
          return false;
        }
        // A dequeuer is mid-handshake on this slot; wait for it (blocking).
        port::cpu_relax();
        // relaxed: retry reload; cell.seq carries the ordering (proof: test:tests/queue_concurrent_test.cpp)
        ticket = enq_ticket_.load(std::memory_order_relaxed);
      } else {
        // Another enqueuer advanced the ticket; reload and retry.
        // relaxed: retry reload; cell.seq carries the ordering (proof: test:tests/queue_concurrent_test.cpp)
        ticket = enq_ticket_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Returns false iff the queue was observed empty (all enqueue tickets
  /// consumed).  Waits -- blocks -- for an in-flight enqueuer.
  bool try_dequeue(T& out) noexcept {
    // relaxed: a stale ticket just retries; cell.seq carries the ordering (proof: test:tests/queue_concurrent_test.cpp)
    std::uint64_t ticket = deq_ticket_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[ticket & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq == ticket + 1) {
        // Slot filled for this round: claim it.
        // relaxed: the seq acquire/release handshake orders the payload; (proof: test:tests/queue_concurrent_test.cpp)
        // the ticket is only an allocation counter
        if (deq_ticket_.compare_exchange_weak(ticket, ticket + 1,
                                              std::memory_order_relaxed)) {  // relaxed: ^
          out = std::move(cell.value);
          // Handshake: recycle the slot for `capacity_` tickets later.
          cell.seq.store(ticket + capacity_, std::memory_order_release);
          MSQ_COUNT(kDequeue);
          return true;
        }
      } else if (seq <= ticket) {
        // Slot not filled.  Empty, or an enqueuer claimed it and stalled?
        // relaxed: emptiness estimate; a stale read only delays the verdict (proof: test:tests/queue_concurrent_test.cpp)
        if (enq_ticket_.load(std::memory_order_relaxed) <= ticket) {
          MSQ_COUNT(kDequeueEmpty);
          return false;  // no enqueue ticket issued for us: truly empty
        }
        port::cpu_relax();  // enqueuer in flight: wait (blocking)
        // relaxed: retry reload; cell.seq carries the ordering (proof: test:tests/queue_concurrent_test.cpp)
        ticket = deq_ticket_.load(std::memory_order_relaxed);
      } else {
        // relaxed: retry reload; cell.seq carries the ordering (proof: test:tests/queue_concurrent_test.cpp)
        ticket = deq_ticket_.load(std::memory_order_relaxed);
      }
    }
  }

  [[nodiscard]] std::optional<T> try_dequeue() noexcept {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Bytes of one ring slot (bench/fig_memory: the whole footprint is
  /// capacity() x node_bytes(), allocated once at construction).
  [[nodiscard]] static constexpr std::size_t node_bytes() noexcept {
    return sizeof(Cell);
  }

 private:
  struct Cell {
    // share-ok: seq+value packed per slot by design (one slot, one line
    // when T is small; the tickets are the contended words, aligned below)
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  static std::uint32_t checked_capacity(std::uint32_t n) {
    if (n > kMaxCapacity) {
      throw std::length_error("RingQueue capacity above 2^31");
    }
    return std::bit_ceil(n);
  }

  std::uint32_t capacity_;
  std::uint32_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(port::kCacheLine) std::atomic<std::uint64_t> enq_ticket_{0};
  alignas(port::kCacheLine) std::atomic<std::uint64_t> deq_ticket_{0};
};

}  // namespace msq::queues
