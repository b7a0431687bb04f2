// Sharded queue-of-queues front end: N independent sub-queues behind one
// try_enqueue/try_dequeue surface, with work-stealing dequeue.
//
// Motivation (*No Cords Attached: Coordination-Free Concurrent Lock-Free
// Queues*, PAPERS.md): every queue in this library -- including the FAA
// segment queue -- ultimately serialises all operations through one or two
// contended cache lines (Head/Tail or the ticket words).  Beyond a handful
// of cores the coherence traffic on those lines, not the instruction
// count, caps throughput.  The coordination-free fix is to stop sharing: N
// inner queues ("shards"), producers and consumers spread over them by a
// per-thread hint, so in the common case each thread operates on a line no
// other thread is touching.
//
// What is deliberately given up: GLOBAL FIFO ORDER.  The contract
// (docs/ALGORITHMS.md, "The sharded queue-of-queues") is:
//   * per-shard FIFO -- each shard is an Inner queue with Inner's full
//     ordering; elements that land in the same shard come out in order;
//   * per-producer order decomposes into at most N FIFO subsequences (a
//     producer's items live in at most N shards);
//   * conservation -- nothing lost, duplicated, or fabricated;
//   * emptiness is a ticket-checked sweep (below), not a single-shard peek.
//
// Shard selection: a producer enqueues to its HOME shard, a per-thread
// hint seeded round-robin by thread ordinal (port::thread_ordinal), so
// P <= N producers settle on distinct shards.  On a full home shard the
// producer sweeps the other shards for space; after kRehomeAfter
// consecutive home failures it RE-HOMES to the shard that accepted
// (obs: shard_rehome), so a persistently full or contended shard sheds its
// producers instead of taxing every future operation.  Consumers dequeue
// from their home shard and fall back to a bounded work-stealing sweep
// over the other N-1 shards; shard_hit and shard_steal partition the
// successful dequeues (hit + steal = dequeues, the bench's steal rate);
// a successful steal re-homes the consumer's dequeue hint to the donor
// shard (sticky stealing), which is what lets one consumer drain shards
// whose own consumers stopped.
//
// The empty sweep: "queue empty" should mean ALL shards were empty at one
// instant, not merely "each shard looked empty at some point during my
// sweep" -- the naive sweep admits the classic lost-item race (scan shard
// A empty; a producer enqueues to A; an item leaves shard B; scan B empty;
// report empty while an item sat in A the whole time).  Every shard
// therefore carries a monotone enqueue TICKET, bumped by a producer AFTER
// its inner insert succeeded.  A dequeuer that found every shard empty
// re-reads all tickets: if none moved across the whole sweep (a double
// collect, same shape as the PLJ snapshot), the verdict stands; otherwise
// the sweep re-runs (obs: empty_rescan) -- the bump proves another thread
// made progress, the same lock-free retry argument as a failed CAS.  An
// enqueue linearizes at the earlier of its bump and the dequeue of its
// item, so an item the sweep missed belongs to an enqueue still pending
// at the verify (docs/ALGORITHMS.md, property 4).  Bumping BEFORE the
// insert instead admits an empty verdict with no linearization.
// tests/sim_sharded_test.cpp runs THIS header under DPOR (the ticket is a
// port::Atomic; the routing hints stay std::atomic and take no step), with
// that order and the naive sweep as MSQ_MUTANT negative controls.
//
// Cost accounting: the ticket adds one uncontended-in-the-common-case
// fetch_add per accepted enqueue, on a line owned by the shard that took
// the item.  That is the price of a sound empty report; everything else the
// front end adds is thread-local (hint reads) or cold (re-home stores).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "obs/probe.hpp"
#include "port/atomic.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"

namespace msq::queues {

/// Queue-of-queues over N shards of Inner.  Inner must satisfy
/// ConcurrentQueue and be constructible from a capacity (every pool-backed
/// queue here).  The aggregate capacity is split evenly across shards.
template <typename Inner, std::uint32_t N>
  requires ConcurrentQueue<Inner> && (N >= 1)
class ShardedQueue {
 public:
  using value_type = typename Inner::value_type;
  static constexpr std::uint32_t kShards = N;
  static constexpr QueueTraits traits{
      // The front end adds only bounded sweeps and lock-free retries on
      // top of Inner, so Inner's progress class survives.
      .progress = Inner::traits.progress,
      .mpmc = true,
      .pool_backed = Inner::traits.pool_backed,
      // Global FIFO is deliberately not promised for N > 1 (per-shard
      // FIFO only); the degenerate single shard is exactly Inner.
      .linearizable = N == 1 && Inner::traits.linearizable,
  };

  /// Consecutive home-shard enqueue failures before the producer re-homes
  /// to the shard that accepted its item.
  static constexpr std::uint32_t kRehomeAfter = 2;

  /// `capacity` is the aggregate item capacity, split ceil-evenly over the
  /// shards (each shard may round up further, e.g. whole segments).
  explicit ShardedQueue(std::uint32_t capacity) {
    const std::uint32_t per_shard = (capacity + N - 1) / N;
    for (std::uint32_t s = 0; s < N; ++s) {
      shards_[s] = std::make_unique<Shard>(per_shard);
    }
    for (std::uint32_t i = 0; i < kHintSlots; ++i) {
      // relaxed: construction-time seeding, no other thread exists yet (proof: test:tests/sharded_queue_test.cpp)
      hints_[i].enq_home.store(i % N, std::memory_order_relaxed);
      // relaxed: same construction-time exclusivity
      hints_[i].deq_home.store(i % N, std::memory_order_relaxed);
      // relaxed: same construction-time exclusivity
      hints_[i].enq_fail_streak.store(0, std::memory_order_relaxed);
    }
  }

  ShardedQueue(const ShardedQueue&) = delete;
  ShardedQueue& operator=(const ShardedQueue&) = delete;

  /// Returns false iff every shard refused (aggregate capacity exhausted).
  bool try_enqueue(value_type value) noexcept {
    HintSlot& hint = hint_slot();
    // relaxed: the hint is pure routing; any stale value is still a valid (proof: test:tests/sim_sharded_test.cpp)
    // shard index and the ticket/steal machinery keeps it correct
    const std::uint32_t home = hint.enq_home.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < N; ++i) {
      const std::uint32_t s = (home + i) % N;
      Shard& shard = *shards_[s];
      // Insert, then announce (header comment); the mutant bumps first.
      if (MSQ_MUTANT("shardq.bump_first")) {
        shard.ticket.value.fetch_add(1, std::memory_order_release);
      }
      if (shard.queue.try_enqueue(value)) {
        MSQ_PROBE("shardq.announce");
        if (!MSQ_MUTANT("shardq.bump_first")) {
          shard.ticket.value.fetch_add(1, std::memory_order_release);
        }
        if (i == 0) {
          // relaxed: routing-only heuristic state (see enq_home above) (proof: test:tests/sim_sharded_test.cpp)
          if (hint.enq_fail_streak.load(std::memory_order_relaxed) != 0) {
            // relaxed: ^
            hint.enq_fail_streak.store(0, std::memory_order_relaxed);
          }
        } else {
          // Repeatedly-full home: move in with the shard that had room.
          // relaxed: routing-only heuristic state (proof: test:tests/sim_sharded_test.cpp)
          const std::uint32_t streak =
              hint.enq_fail_streak.load(std::memory_order_relaxed) + 1;
          if (streak >= kRehomeAfter) {
            MSQ_PROBE("shardq.rehome");
            MSQ_COUNT(kShardRehome);
            // relaxed: routing-only (a racing thread sharing this slot (proof: test:tests/sim_sharded_test.cpp)
            // just gets a different, equally valid home)
            hint.enq_home.store(s, std::memory_order_relaxed);
            // relaxed: ^
            hint.enq_fail_streak.store(0, std::memory_order_relaxed);
          } else {
            // relaxed: ^
            hint.enq_fail_streak.store(streak, std::memory_order_relaxed);
          }
        }
        return true;
      }
    }
    return false;
  }

  /// Returns false only after a sweep that found every shard empty with no
  /// enqueue announced across it (ticket double collect, header comment).
  bool try_dequeue(value_type& out) noexcept {
    HintSlot& hint = hint_slot();
    // relaxed: routing only (see enq_home in try_enqueue) (proof: test:tests/sim_sharded_test.cpp)
    const std::uint32_t home = hint.deq_home.load(std::memory_order_relaxed);
    if (shards_[home]->queue.try_dequeue(out)) {
      MSQ_COUNT(kShardHit);
      return true;
    }
    // Home empty: bounded stealing sweep, repeated only while the ticket
    // double collect proves another thread enqueued mid-sweep.
    for (;;) {
      std::array<std::uint64_t, N> pre;
      for (std::uint32_t s = 0; s < N; ++s) {
        pre[s] = shards_[s]->ticket.value.load(std::memory_order_acquire);
      }
      for (std::uint32_t i = 0; i < N; ++i) {
        const std::uint32_t s = (home + i) % N;
        MSQ_PROBE("shardq.steal");
        if (shards_[s]->queue.try_dequeue(out)) {
          if (s == home) {
            MSQ_COUNT(kShardHit);
          } else {
            MSQ_COUNT(kShardSteal);
            // Sticky stealing: follow the shard that actually has items
            // (this is what drains a shard whose home consumer stopped).
            // relaxed: routing-only hint (proof: test:tests/sim_sharded_test.cpp)
            hint.deq_home.store(s, std::memory_order_relaxed);
          }
          return true;
        }
      }
      // Every shard individually empty; coherent only if no enqueue was
      // announced across the sweep (the "shardq.no_verify" mutant skips it).
      MSQ_PROBE("shardq.verify");
      bool stable = true;
      for (std::uint32_t s = 0; s < N && !MSQ_MUTANT("shardq.no_verify");
           ++s) {
        if (shards_[s]->ticket.value.load(std::memory_order_acquire) !=
            pre[s]) {
          stable = false;
          break;
        }
      }
      if (stable) {
        MSQ_COUNT(kDequeueEmpty);
        return false;
      }
      MSQ_COUNT(kEmptyRescan);
      port::cpu_relax();
    }
  }

  /// Convenience wrapper with optional-return style.
  [[nodiscard]] std::optional<value_type> try_dequeue() noexcept {
    value_type value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  /// Direct shard access for tests and shard-aware oracles.  Not part of
  /// the queue concept; never used on the hot path.
  [[nodiscard]] Inner& unsafe_shard(std::uint32_t s) noexcept {
    return shards_[s]->queue;
  }

  /// The calling thread's current enqueue home shard (racy; tests only).
  [[nodiscard]] std::uint32_t unsafe_home_shard() noexcept {
    // relaxed: tests-only peek at routing state (proof: test:tests/sharded_queue_test.cpp)
    return hint_slot().enq_home.load(std::memory_order_relaxed);
  }

 private:
  friend struct ShardedInspector;  // the model build's tests read tickets
  struct Shard {
    explicit Shard(std::uint32_t capacity) : queue(capacity) {}
    // Monotone count of enqueues that landed in this shard, each bumped
    // after its insert; the empty sweep's double collect keys off it.  Own
    // line: producers homed here bump it on every enqueue.
    port::CacheAligned<port::Atomic<std::uint64_t>> ticket;
    Inner queue;
  };

  /// Per-thread-slot routing hints.  Slots are claimed by thread ordinal
  /// modulo kHintSlots -- a collision just means two threads share a home
  /// (correctness never depends on the hints).  One line per slot so a
  /// thread's routing reads never bounce on another thread's re-home.
  struct alignas(port::kCacheLine) HintSlot {
    // share-ok: all three words are routing state for ONE thread slot,
    // packed on one line on purpose (single owner in the common case)
    std::atomic<std::uint32_t> enq_home{0};
    std::atomic<std::uint32_t> deq_home{0};  // share-ok: ^
    std::atomic<std::uint32_t> enq_fail_streak{0};  // share-ok: ^
  };

  static constexpr std::uint32_t kHintSlots = 64;

  [[nodiscard]] HintSlot& hint_slot() noexcept {
    return hints_[port::thread_ordinal() % kHintSlots];
  }

  // unique_ptr per shard keeps the (atomics-laden, non-movable) inner
  // queues constructible with a capacity argument; the pointer array
  // itself is written once at construction and read-shared thereafter.
  std::array<std::unique_ptr<Shard>, N> shards_;
  std::array<HintSlot, kHintSlots> hints_;
};

static_assert(sizeof(port::CacheAligned<port::Atomic<std::uint64_t>>) >=
                  port::kCacheLine,
              "shard tickets must not share a cache line with inner queues");

}  // namespace msq::queues
