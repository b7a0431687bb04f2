// SCQ: the indirect bounded lock-free FIFO of Nikolaev's "A Scalable,
// Portable, and Memory-Efficient Lock-Free FIFO Queue" (PAPERS.md), built
// next to ring_queue.hpp as the memory-bounded answer to the MS queue's
// unbounded nodes-in-flight.
//
// Where the MS queue allocates a node per element (a stalled consumer pins
// an arbitrary amount of pool memory -- bench/fig_memory measures exactly
// that), SCQ circulates a FIXED set of `n` data-array indices through two
// index rings:
//
//   fq  -- free indices, initialised full with {0..n-1}
//   aq  -- allocated indices, initialised empty
//
//   enqueue(v): i = fq.dequeue(); data[i] = v; aq.enqueue(i)
//   dequeue():  i = aq.dequeue(); v = data[i]; fq.enqueue(i)
//
// so total memory is exactly `capacity` elements + two 2n-entry rings of
// 64-bit words -- no node pool, no hazard pointers, no limbo lists.
//
// Each ring (ScqRing) is the paper's circular queue of indices:
//  * 2n entries for n indices ("half full at most"), so a FAA-claimed
//    enqueue ticket always has an empty entry within one lap -- this is
//    what makes unconditional FAA workable where the segment queue needed
//    hazard cells (see docs/ALGORITHMS.md).
//  * an entry packs {cycle[63:32], unsafe-bit[31], index[30:0]}; the
//    cycle tag (ticket / ring_size, compared wrap-safely) makes reuse
//    ABA-proof, index 0x7FFFFFFF is the paper's bottom.
//  * dequeuers that overtake a slow enqueuer mark its entry UNSAFE; the
//    enqueuer deposits into an unsafe entry only after re-checking that no
//    live dequeuer ticket could still scan it (head <= its ticket).
//  * a dequeuer that drains past the tail CASes the tail forward to
//    head+1 ("catch up"), so enqueuers never deposit behind the head.
//  * the THRESHOLD counter (3n-1) bounds how many entries dequeuers may
//    inspect-and-miss after the last enqueue: each miss decrements it, a
//    deposit re-arms it, and a negative threshold is a proof the queue was
//    empty at some point during the scan -- dequeue returns empty instead
//    of chasing enqueuers forever.  tests/sim_scq_test.cpp replays the
//    livelock that exists WITHOUT the threshold and proves the bound WITH
//    it over every DPOR schedule.
//  * a read-only empty check, gated on the threshold: once a dequeuer has
//    missed since the last deposit (threshold below 3n-1 but not
//    negative), dequeue loads head, then tail, and returns empty with no
//    RMW when tail <= head -- the paper's D2-D7 "empty from reads alone".
//    Without it every empty poll costs 4 RMWs (head FAA, entry CAS, tail
//    catch-up CAS, threshold fetch_sub), two on lines the producer writes.
//    The gate keeps the extra tail read off the path while dequeues
//    succeed.  On the free ring the same check makes a refused enqueue on
//    a full queue RMW-free.  tests/sim_scq_test.cpp proves it linearizable
//    over every DPOR schedule of a 3-process world, and shows that reading
//    tail before head can report a ring empty that held an item at every
//    instant of the call.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "obs/probe.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"

namespace msq::queues {

/// The paper's circular queue of indices (SCQ figure 5/6), reusable for
/// both the free ring and the allocated ring.  Stores values in
/// [0, 2^31 - 2]; kBottom is the reserved empty marker.
class ScqRing {
 public:
  static constexpr std::uint32_t kBottom = 0x7FFFFFFFu;

  /// `half` = the number of indices the ring must hold (rounded up to a
  /// power of two by the caller); the entry array is 2*half.  `full`
  /// pre-populates with {0..half-1} (the free ring); otherwise empty.
  explicit ScqRing(std::uint32_t half, bool full)
      : half_(half),
        size_(half * 2),
        mask_(size_ - 1),
        order_(log2_pow2(size_)),
        rot_(order_ < kMaxRot ? order_ : kMaxRot),
        threshold_init_(3 * static_cast<std::int64_t>(half) - 1),
        entries_(std::make_unique<std::atomic<std::uint64_t>[]>(size_)) {
    for (std::uint32_t i = 0; i < size_; ++i) {
      // Unused entries start at cycle -1 (0xFFFFFFFF): older than every
      // real cycle under the wrap-safe compare, so both the ticket-0
      // enqueuer (cycle 0) and the first recycling enqueuer (cycle >= 1
      // after an init-full lap) can deposit into them.
      // relaxed: construction is single-threaded (proof: test:tests/queue_concurrent_test.cpp)
      entries_[i].store(make_entry(0xFFFFFFFFu, true, kBottom),
                        std::memory_order_relaxed);
    }
    if (full) {
      for (std::uint32_t i = 0; i < half_; ++i) {
        // relaxed: construction is single-threaded (proof: test:tests/queue_concurrent_test.cpp)
        entries_[remap(i)].store(make_entry(0, true, i),
                                 std::memory_order_relaxed);
      }
      // relaxed: construction is single-threaded (proof: test:tests/queue_concurrent_test.cpp)
      tail_.store(half_, std::memory_order_relaxed);
      threshold_.store(threshold_init_, std::memory_order_relaxed);  // relaxed: ^
    } else {
      // Empty ring: threshold -1 arms the dequeue fast path immediately.
      // relaxed: construction is single-threaded (proof: test:tests/queue_concurrent_test.cpp)
      threshold_.store(-1, std::memory_order_relaxed);
    }
  }

  ScqRing(const ScqRing&) = delete;
  ScqRing& operator=(const ScqRing&) = delete;

  /// Deposit an index.  Loops until it lands; terminates because callers
  /// (ScqQueue) never have more than `half` indices in flight, so some
  /// entry within one lap is always depositable -- and is lock-free: a
  /// failed lap means another thread's deposit or consume succeeded.
  void enqueue(std::uint32_t idx) noexcept {
    for (;;) {
      MSQ_PROBE("scq.faa_enq");
      const std::uint64_t t = tail_.fetch_add(1, std::memory_order_acq_rel);
      const std::uint32_t j = remap(t);
      const std::uint32_t cycle = ticket_cycle(t);
      std::uint64_t e = entries_[j].load(std::memory_order_acquire);
      for (;;) {
        // Depositable: entry from an older cycle, no index parked in it,
        // and either still safe or provably unscannable (every issued
        // dequeue ticket is past it: head <= t means no dequeuer with an
        // older ticket can still be about to scan this entry's old cycle).
        if (cycle_less(entry_cycle(e), cycle) && entry_idx(e) == kBottom &&
            (entry_safe(e) ||
             head_.load(std::memory_order_acquire) <= t)) {
          MSQ_PROBE_COUNT("scq.enq_cas", kCasAttempt);
          if (!entries_[j].compare_exchange_weak(
                  e, make_entry(cycle, true, idx), std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            MSQ_COUNT(kCasFail);
            continue;  // entry changed: re-test the same entry
          }
          // Deposit landed: re-arm the dequeuers' search budget.
          if (threshold_.load(std::memory_order_acquire) != threshold_init_) {
            threshold_.store(threshold_init_, std::memory_order_release);
            MSQ_COUNT(kScqThresholdReset);
          }
          return;
        }
        break;  // entry not depositable this cycle: take a new ticket
      }
    }
  }

  /// Take an index, or kBottom if the ring is (observably) empty.
  /// Livelock-free via the threshold: at most threshold_init_+1 losing
  /// probes after the last deposit before every dequeuer reports empty.
  [[nodiscard]] std::uint32_t dequeue() noexcept {
    const std::int64_t threshold = threshold_.load(std::memory_order_acquire);
    if (threshold < 0) {
      return kBottom;  // fast path: a prior exhausted scan proved emptiness
    }
    if (threshold != threshold_init_) {
      // A dequeuer has missed since the last deposit: the ring is probably
      // still empty, so check with reads alone before taking a ticket (the
      // paper's D2-D7).  Head first: both counters only grow, so tail <=
      // head at the tail read means every deposited index already has its
      // dequeue ticket issued.  Read the other way round, a head that moved
      // past a fresh deposit after the tail read hides it.  While dequeues
      // succeed the threshold stays armed and the hot tail line is not read.
      const std::uint64_t h = head_.load(std::memory_order_acquire);
      if (tail_.load(std::memory_order_acquire) <= h) return kBottom;
    }
    for (;;) {
      MSQ_PROBE("scq.faa_deq");
      const std::uint64_t h = head_.fetch_add(1, std::memory_order_acq_rel);
      const std::uint32_t j = remap(h);
      const std::uint32_t cycle = ticket_cycle(h);
      std::uint64_t e = entries_[j].load(std::memory_order_acquire);
      for (;;) {
        if (entry_cycle(e) == cycle) {
          // A value was deposited for exactly this ticket: consume it by
          // blanking the index bits (cycle and safe bit survive).  Only
          // this ticket's owner can be here, so the fetch_or result's
          // index is the deposited one.
          const std::uint64_t prev =
              entries_[j].fetch_or(kIdxMask, std::memory_order_acq_rel);
          return entry_idx(prev);
        }
        if (cycle_less(entry_cycle(e), cycle)) {
          // Older entry.  Empty entries get their cycle advanced so a
          // lagging enqueuer with an old ticket cannot deposit where we
          // already scanned; occupied ones are marked unsafe for the same
          // reason (their enqueuer must re-validate against head).
          const std::uint64_t desired =
              entry_idx(e) == kBottom
                  ? make_entry(cycle, entry_safe(e), kBottom)
                  : (e | kUnsafeBit);
          MSQ_PROBE_COUNT("scq.deq_mark", kCasAttempt);
          if (!entries_[j].compare_exchange_weak(e, desired,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
            MSQ_COUNT(kCasFail);
            continue;  // entry changed: re-test (it may now match our cycle)
          }
        }
        // No value for this ticket.  If the tail is at or behind our scan
        // point the ring is empty: drag the tail up to head+1 so future
        // enqueuers start ahead of everything already scanned.
        const std::uint64_t t = tail_.load(std::memory_order_acquire);
        if (t <= h + 1) {
          catch_up(t, h + 1);
          threshold_.fetch_sub(1, std::memory_order_acq_rel);
          return kBottom;
        }
        MSQ_PROBE("scq.threshold");
        if (threshold_.fetch_sub(1, std::memory_order_acq_rel) <= 0) {
          return kBottom;  // search budget exhausted: observably empty
        }
        break;  // budget remains: take a new ticket and keep scanning
      }
    }
  }

  [[nodiscard]] std::uint32_t half() const noexcept { return half_; }

  /// Exposed for tests/benches: current threshold (negative = drained).
  [[nodiscard]] std::int64_t threshold() const noexcept {
    return threshold_.load(std::memory_order_acquire);
  }

 private:
  // Entry layout: {cycle[63:32], unsafe[31], index[30:0]}.
  static constexpr std::uint64_t kIdxMask = 0x7FFFFFFFull;
  static constexpr std::uint64_t kUnsafeBit = 0x80000000ull;
  // Rotate ticket bits so consecutive tickets land kMaxRot entries apart
  // (distinct cache lines); any bijection preserves correctness, and rings
  // with <= 2^kMaxRot entries degrade to the identity map.
  static constexpr std::uint32_t kMaxRot = 4;

  static constexpr std::uint64_t make_entry(std::uint32_t cycle, bool safe,
                                            std::uint32_t idx) noexcept {
    return (static_cast<std::uint64_t>(cycle) << 32) |
           (safe ? 0ull : kUnsafeBit) | idx;
  }
  static constexpr std::uint32_t entry_cycle(std::uint64_t e) noexcept {
    return static_cast<std::uint32_t>(e >> 32);
  }
  static constexpr bool entry_safe(std::uint64_t e) noexcept {
    return (e & kUnsafeBit) == 0;
  }
  static constexpr std::uint32_t entry_idx(std::uint64_t e) noexcept {
    return static_cast<std::uint32_t>(e & kIdxMask);
  }
  /// Wrap-safe cycle comparison (cycles are mod-2^32 lap counters).
  static constexpr bool cycle_less(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::int32_t>(a - b) < 0;
  }
  static constexpr std::uint32_t log2_pow2(std::uint32_t n) noexcept {
    std::uint32_t l = 0;
    while ((1u << l) < n) ++l;
    return l;
  }

  [[nodiscard]] std::uint32_t ticket_cycle(std::uint64_t ticket) const
      noexcept {
    return static_cast<std::uint32_t>(ticket >> order_);
  }
  [[nodiscard]] std::uint32_t remap(std::uint64_t ticket) const noexcept {
    const std::uint32_t i = static_cast<std::uint32_t>(ticket) & mask_;
    return ((i << rot_) | (i >> (order_ - rot_))) & mask_;
  }

  /// The tail lags head+1: CAS it forward so deposits resume ahead of the
  /// scanned region.  Loses benignly to concurrent enqueuers' FAAs.
  void catch_up(std::uint64_t t, std::uint64_t h) noexcept {
    MSQ_PROBE("scq.catchup");
    MSQ_COUNT(kScqCatchup);
    while (!tail_.compare_exchange_weak(t, h, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      h = head_.load(std::memory_order_acquire);
      t = tail_.load(std::memory_order_acquire);
      if (t >= h) break;
    }
  }

  std::uint32_t half_;
  std::uint32_t size_;
  std::uint32_t mask_;
  std::uint32_t order_;
  std::uint32_t rot_;
  std::int64_t threshold_init_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> entries_;
  alignas(port::kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(port::kCacheLine) std::atomic<std::uint64_t> tail_{0};
  alignas(port::kCacheLine) std::atomic<std::int64_t> threshold_{0};
};

/// SCQ proper: two index rings circulating indices into a caller-sized
/// data array.  Bounded at exactly `capacity` elements; lock-free in both
/// directions (a stalled thread's entry is marked unsafe and skipped --
/// contrast RingQueue, whose slot handshake BLOCKS the matching op).
template <typename T>
class ScqQueue {
 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kNonBlocking,
      .mpmc = true,
      .pool_backed = true,  // bounded: enqueue refuses at capacity
      .linearizable = true,
  };

  explicit ScqQueue(std::uint32_t capacity)
      : capacity_(round_up_pow2(capacity < 1 ? 1 : capacity)),
        fq_(capacity_, /*full=*/true),
        aq_(capacity_, /*full=*/false),
        data_(std::make_unique<T[]>(capacity_)) {}

  ScqQueue(const ScqQueue&) = delete;
  ScqQueue& operator=(const ScqQueue&) = delete;

  /// Returns false iff the queue holds `capacity()` undequeued items (the
  /// free ring ran dry).  The data slot is exclusively owned between the
  /// fq take and the aq deposit, so the store below is race-free: the aq
  /// entry CAS releases it to exactly one consumer.
  bool try_enqueue(T value) noexcept {
    MSQ_PROBE("scq.enq");
    const std::uint32_t idx = fq_.dequeue();
    if (idx == ScqRing::kBottom) {
      MSQ_COUNT(kPoolRefuse);  // the bounded analogue of a dry node pool
      MSQ_COUNT(kQueueFull);   // backpressure signal (scenario shed policy)
      return false;
    }
    data_[idx] = std::move(value);
    aq_.enqueue(idx);
    MSQ_COUNT(kEnqueue);
    return true;
  }

  /// Returns false iff the queue was observed empty (the allocated ring's
  /// scan budget ran out, its fast path fired, or its read-only check saw
  /// tail <= head).
  bool try_dequeue(T& out) noexcept {
    MSQ_PROBE("scq.deq");
    const std::uint32_t idx = aq_.dequeue();
    if (idx == ScqRing::kBottom) {
      MSQ_COUNT(kDequeueEmpty);
      return false;
    }
    out = std::move(data_[idx]);
    fq_.enqueue(idx);
    MSQ_COUNT(kDequeue);
    return true;
  }

  [[nodiscard]] std::optional<T> try_dequeue() noexcept {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Per-element storage grain: one data slot plus its share of the two
  /// 2n-entry index rings (bench/fig_memory: peak_nodes x node_bytes).
  [[nodiscard]] static constexpr std::size_t node_bytes() noexcept {
    return sizeof(T) + 4 * sizeof(std::uint64_t);
  }

  /// Exposed for the memory bench: bytes of element + ring storage this
  /// queue will EVER hold -- the bounded-memory claim, as a number.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return static_cast<std::size_t>(capacity_) * node_bytes();
  }

 private:
  static std::uint32_t round_up_pow2(std::uint32_t n) noexcept {
    std::uint32_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::uint32_t capacity_;
  ScqRing fq_;  // free indices, starts {0..capacity-1}
  ScqRing aq_;  // allocated indices, starts empty
  std::unique_ptr<T[]> data_;
};

}  // namespace msq::queues
