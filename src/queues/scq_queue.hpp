// SCQ: the bounded lock-free FIFO of Nikolaev's "A Scalable, Portable, and
// Memory-Efficient Lock-Free FIFO Queue" (PAPERS.md), in the paper's
// direct form: values live in the ring entries themselves.  Built next to
// ring_queue.hpp as the memory-bounded answer to the MS queue's unbounded
// nodes-in-flight.
//
// Where the MS queue allocates a node per element (a stalled consumer pins
// an arbitrary amount of pool memory -- bench/fig_memory measures exactly
// that), SCQ is ONE fixed ring of 2n 16-byte entries for n values:
//
//   entry = {meta = cycle[63:32] | unsafe | full, value}
//
//   enqueue(v): take a credit; t = FAA(tail); CAS16 entry -> {cycle, full, v}
//   dequeue():  h = FAA(head); read value; clear full; return the credit
//
// so total memory is the 2n entries -- 32 B per value -- plus a fixed
// 17 cache lines of credit words, whatever n is: no node pool, no hazard
// pointers, no limbo lists, no index indirection.  Like the paper's
// Figure 1 node, one structure per item: an op touches one entry.
//
//  * 2n entries for n values ("half full at most"), so a FAA-claimed
//    enqueue ticket always has an empty entry within one lap -- this is
//    what makes unconditional FAA workable where the segment queue needed
//    hazard cells (see docs/ALGORITHMS.md).
//  * the CREDITS are what keep the ring half full: n of them, each spare
//    one in the shared depot word or in one of kSlots per-thread slot
//    words, so depot + slots + credits held = n.  A dequeue returns its
//    credit to its own slot (one RMW on a line no other thread writes in
//    the common case) and spills half to the depot above kSpillAbove; an
//    enqueue takes from its own slot, then the depot, then steals from the
//    other slots.  It refuses, with no RMW, only when a double collect
//    shows an instant at which the depot and every slot held zero -- each
//    word's version bumps on every increase, so a word that reads the same
//    zero twice held zero between the reads.  So at most n values are
//    deposited or in flight.  A read-only `tail - head >= n` check would
//    be cheaper, but k concurrent enqueuers that all pass it overshoot by
//    k-1 (tests/sim_scq_test.cpp finds the schedule, and shows that a
//    single collect can refuse while a credit is free).
//  * the cycle tag (ticket / ring_size + 1, compared wrap-safely) makes
//    reuse ABA-proof; a zeroed entry is cycle 0, older than every ticket
//    of the first lap, so the ring starts as value-initialised memory.
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
//    succeed.  tests/sim_scq_test.cpp proves it linearizable over every
//    DPOR schedule of a 3-process world, and shows that reading tail
//    before head can report a ring empty that held an item at every
//    instant of the call.
//
// Entry access: readers load an entry as two 8-byte atomic loads
// (AtomicDoubleWord::load_halves) and let the 16-byte deposit CAS validate
// them -- the cell's whole-entry load() is a locked CAS(0, 0), a write.
// Only the deposit writes both halves; the consume and the dequeuers'
// cycle-advance/unsafe marks are 8-byte RMWs on `meta` alone.
//
// Every shared word goes through the atomics seam (port/atomic.hpp), and
// every access names its sim/mo_table.hpp row with MSQ_MO.  In the model
// build (MSQ_MODEL=1) the DPOR explorer runs THIS header: each access is
// one step, each MSQ_PROBE a label, and the MSQ_MUTANT hooks switch
// in the negative controls of tests/sim_scq_test.cpp and
// tests/sim_scq_credit_test.cpp.  Normal builds compile the seam away.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "obs/probe.hpp"
#include "port/atomic.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "tagged/counted_ptr.hpp"

namespace msq::queues {

/// SCQ: one ring of {meta, value} entries plus the credit words.  Bounded
/// at exactly `capacity` elements; lock-free in both directions (a stalled
/// thread's entry is marked unsafe and skipped -- contrast RingQueue, whose
/// slot handshake BLOCKS the matching op).
template <typename T>
class ScqQueue {
  static_assert(std::is_trivially_copyable_v<T> &&
                    sizeof(T) <= sizeof(std::uint64_t),
                "ScqQueue stores values in its 8-byte entry halves");

 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kNonBlocking,
      .mpmc = true,
      .pool_backed = true,  // bounded: enqueue refuses at capacity
      .linearizable = true,
  };

  /// Largest accepted capacity: the 2n-entry ring size must fit 32 bits.
  static constexpr std::uint32_t kMaxCapacity = std::uint32_t{1} << 30;

  /// Throws std::length_error, before allocating, above kMaxCapacity.
  explicit ScqQueue(std::uint32_t capacity)
      : capacity_(checked_capacity(capacity)),
        size_(capacity_ * 2),
        mask_(size_ - 1),
        order_(static_cast<std::uint32_t>(std::countr_zero(size_))),
        rot_(order_ < kMaxRot ? order_ : kMaxRot),
        threshold_init_(3 * static_cast<std::int64_t>(capacity_) - 1),
        entries_(std::make_unique<Cell[]>(size_)),  // all cycle 0, empty
        depot_(capacity_) {}

  ScqQueue(const ScqQueue&) = delete;
  ScqQueue& operator=(const ScqQueue&) = delete;

  /// Returns false iff the queue holds `capacity()` undequeued items (no
  /// credit left), with no RMW.  A credited enqueue loops until its
  /// deposit lands: the credit guarantees a depositable entry within one
  /// lap, and a failed lap means another thread's deposit or consume
  /// succeeded (lock-free).
  bool try_enqueue(T value) noexcept {
    MSQ_PROBE("scq.enq");
    if (!take_credit()) {
      MSQ_COUNT(kPoolRefuse);  // the bounded analogue of a dry node pool
      MSQ_COUNT(kQueueFull);   // backpressure signal (scenario shed policy)
      return false;
    }
    const std::uint64_t v = to_word(value);
    for (;;) {
      MSQ_PROBE("scq.faa_enq");
      const std::uint64_t t = tail_.fetch_add(
          1, MSQ_MO("scq.enq_faa_tail", std::memory_order_acq_rel));
      Cell& cell = entries_[remap(t)];
      const std::uint32_t cycle = ticket_cycle(t);
      Entry e = cell.load_halves(
          MSQ_MO("scq.enq_entry_load", std::memory_order_acquire));
      for (;;) {
        // Depositable: entry from an older cycle, no value parked in it,
        // and either still safe or provably unscannable (every issued
        // dequeue ticket is past it: head <= t means no dequeuer with an
        // older ticket can still be about to scan this entry's old cycle).
        if (cycle_less(meta_cycle(e.meta), cycle) && !meta_full(e.meta) &&
            (meta_safe(e.meta) ||
             head_.load(MSQ_MO("scq.enq_head_load",
                               std::memory_order_acquire)) <= t)) {
          MSQ_PROBE_COUNT("scq.enq_cas", kCasAttempt);
          // The publication edge: a torn load_halves guess fails here and
          // comes back as the entry's true value.
          if (!cell.compare_exchange(
                  e, Entry{make_meta(cycle, true, true), v},
                  MSQ_MO("scq.enq_cas", std::memory_order_acq_rel))) {
            MSQ_COUNT(kCasFail);
            continue;  // entry changed: re-test the same entry
          }
          // Deposit landed: re-arm the dequeuers' search budget.
          if (!MSQ_MUTANT("scq.no_threshold") &&
              threshold_.load(MSQ_MO("scq.threshold_check",
                                     std::memory_order_acquire)) !=
                  threshold_init_) {
            threshold_.store(threshold_init_,
                             MSQ_MO("scq.threshold_store",
                                    std::memory_order_release));
            MSQ_COUNT(kScqThresholdReset);
          }
          MSQ_COUNT(kEnqueue);
          return true;
        }
        break;  // entry not depositable this cycle: take a new ticket
      }
    }
  }

  /// Returns false iff the queue was observed empty (the scan budget ran
  /// out, its fast path fired, or the read-only check saw tail <= head).
  /// Livelock-free via the threshold: at most threshold_init_+1 losing
  /// probes after the last deposit before every dequeuer reports empty.
  bool try_dequeue(T& out) noexcept {
    MSQ_PROBE("scq.deq");
    if (!take(out)) {
      MSQ_COUNT(kDequeueEmpty);
      return false;
    }
    MSQ_COUNT(kDequeue);
    return true;
  }

  [[nodiscard]] std::optional<T> try_dequeue() noexcept {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  /// Per-element storage grain: its share of the 2n-entry ring, two
  /// 16-byte entries (bench/fig_memory: peak_nodes x node_bytes).
  [[nodiscard]] static constexpr std::size_t node_bytes() noexcept {
    return 2 * sizeof(Cell);
  }

  /// Exposed for the memory bench: bytes of ring and credit storage this
  /// queue will EVER hold -- the bounded-memory claim, as a number.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return static_cast<std::size_t>(capacity_) * node_bytes() +
           port::kCacheLine + sizeof(slots_);  // the depot's line, the slots
  }

 private:
  friend struct ScqInspector;  // the model build's tests read state

  struct Entry {
    std::uint64_t meta;   // word 0: cycle[63:32] | unsafe | full
    std::uint64_t value;  // word 1: the T, valid while `full` is set
  };
  using Cell = tagged::AtomicDoubleWord<Entry>;

  static constexpr std::uint64_t kFullBit = 1;
  static constexpr std::uint64_t kUnsafeBit = 2;
  // Rotate ticket bits so consecutive tickets land kMaxRot entries apart
  // (distinct cache lines); any bijection preserves correctness, and rings
  // with <= 2^kMaxRot entries degrade to the identity map.
  static constexpr std::uint32_t kMaxRot = 4;
  // Credit slots: a power of two (ordinal mask), like MagazineAllocator's
  // kMagazines; a slot above kSpillAbove spills all but half of that.  The
  // model build shrinks both so that worlds of three processes and
  // capacity two reach every credit path: own slot, depot, steal, spill,
  // and both passes of the refusal's double collect.
  static constexpr std::uint32_t kSlots = MSQ_MODEL ? 4 : 16;
  static constexpr std::uint32_t kSpillAbove = MSQ_MODEL ? 1 : 32;
  static constexpr std::uint64_t kBump = std::uint64_t{1} << 32;

  static constexpr std::uint64_t make_meta(std::uint32_t cycle, bool safe,
                                           bool full) noexcept {
    return (static_cast<std::uint64_t>(cycle) << 32) |
           (safe ? 0 : kUnsafeBit) | (full ? kFullBit : 0);
  }
  static constexpr std::uint32_t meta_cycle(std::uint64_t m) noexcept {
    return static_cast<std::uint32_t>(m >> 32);
  }
  static constexpr bool meta_safe(std::uint64_t m) noexcept {
    return (m & kUnsafeBit) == 0;
  }
  static constexpr bool meta_full(std::uint64_t m) noexcept {
    return (m & kFullBit) != 0;
  }
  /// Wrap-safe cycle comparison (cycles are mod-2^32 lap counters).
  static constexpr bool cycle_less(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::int32_t>(a - b) < 0;
  }
  static std::uint32_t checked_capacity(std::uint32_t n) {
    if (n > kMaxCapacity) {
      throw std::length_error("ScqQueue capacity above 2^30");
    }
    return std::bit_ceil(n < 1 ? 1 : n);
  }
  static std::uint64_t to_word(const T& value) noexcept {
    std::uint64_t w = 0;
    std::memcpy(&w, &value, sizeof(T));
    return w;
  }
  static T from_word(std::uint64_t w) noexcept {
    T value;
    std::memcpy(&value, &w, sizeof(T));
    return value;
  }

  /// Ticket t's lap, plus one so that the zeroed ring (cycle 0) is older
  /// than every first-lap ticket.
  [[nodiscard]] std::uint32_t ticket_cycle(std::uint64_t ticket) const
      noexcept {
    return static_cast<std::uint32_t>(ticket >> order_) + 1;
  }
  [[nodiscard]] std::uint32_t remap(std::uint64_t ticket) const noexcept {
    const std::uint32_t i = static_cast<std::uint32_t>(ticket) & mask_;
    return ((i << rot_) | (i >> (order_ - rot_))) & mask_;
  }

  /// Credit word i in take order: the caller's slot, the depot, then the
  /// other slots from the caller's onward.
  [[nodiscard]] port::Atomic<std::uint64_t>& credit_word(
      std::uint32_t own, std::uint32_t i) noexcept {
    if (i == 1) return depot_;
    return slots_[(own + (i == 0 ? 0 : i - 1)) & (kSlots - 1)].value;
  }

  static constexpr std::uint32_t credit_count(std::uint64_t w) noexcept {
    return static_cast<std::uint32_t>(w);
  }

  /// One unit of capacity, or false with no RMW when none is left.  A
  /// credit is a count, not a publication: the deposit CAS validates the
  /// entry itself, so the orders here only keep the count's story simple.
  ///
  /// The first pass takes from the first word it reads nonzero.  If every
  /// word read zero, the second pass re-reads them all: a word that reads
  /// the same {version, 0} twice was never increased in between (every
  /// increase bumps the version) and so held zero throughout, and every
  /// first read precedes every second read.  So if nothing moved, there
  /// was an instant, between the passes, at which the depot and every slot
  /// held zero: every credit was held by an item or a call in progress,
  /// and the refusal linearizes there.  If something moved, another call
  /// returned a credit: take it.
  ///
  /// The "scq.no_credits" control replaces all this with the tempting
  /// read-only bound, which k enqueuers that read it at once overshoot by
  /// k - 1; "scq.single_collect" refuses after the first pass.
  bool take_credit() noexcept {
    if (MSQ_MUTANT("scq.no_credits")) {
      const std::uint64_t t =
          tail_.load(MSQ_MO("scq.empty_tail_load", std::memory_order_acquire));
      return t < head_.load(MSQ_MO("scq.empty_head_load",
                                   std::memory_order_acquire)) +
                     capacity_;
    }
    const std::uint32_t own = port::thread_ordinal() & (kSlots - 1);
    std::array<std::uint64_t, kSlots + 1> seen;
    for (;;) {
      for (std::uint32_t i = 0; i <= kSlots; ++i) {
        auto& word = credit_word(own, i);
        std::uint64_t w = word.load(
            MSQ_MO("scq.credit_load", std::memory_order_acquire));
        while (credit_count(w) != 0) {
          if (i >= 2) MSQ_PROBE_COUNT("scq.credit_steal", kCasAttempt);
          if (word.compare_exchange_weak(
                  w, w - 1,
                  i >= 2 ? MSQ_MO("scq.credit_steal", std::memory_order_acq_rel)
                         : MSQ_MO("scq.credit_take", std::memory_order_acq_rel),
                  std::memory_order_acquire)) {
            return true;
          }
          if (i >= 2) MSQ_COUNT(kCasFail);
        }
        seen[i] = w;
      }
      if (MSQ_MUTANT("scq.single_collect")) return false;
      MSQ_PROBE("scq.credit_collect");
      bool moved = false;
      for (std::uint32_t i = 0; i <= kSlots && !moved; ++i) {
        moved = credit_word(own, i).load(MSQ_MO(
                    "scq.credit_collect", std::memory_order_acquire)) !=
                seen[i];
      }
      if (!moved) return false;
    }
  }

  /// Back to the caller's slot.  A slot above kSpillAbove keeps
  /// kSpillAbove / 2 and moves the rest to the depot, where enqueuers on
  /// other threads look before they steal.  The "scq.no_version" control
  /// leaves the version alone, which fools the refusal's double collect.
  void return_credit() noexcept {
    if (MSQ_MUTANT("scq.no_credits")) return;
    const std::uint64_t bump = MSQ_MUTANT("scq.no_version") ? 0 : kBump;
    auto& slot = slots_[port::thread_ordinal() & (kSlots - 1)].value;
    std::uint64_t w =
        slot.fetch_add(bump + 1, MSQ_MO("scq.credit_return",
                                        std::memory_order_release)) +
        bump + 1;
    while (credit_count(w) > kSpillAbove) {
      const std::uint32_t spill = credit_count(w) - kSpillAbove / 2;
      if (slot.compare_exchange_weak(
              w, w - spill,
              MSQ_MO("scq.credit_spill_cas", std::memory_order_acq_rel),
              std::memory_order_acquire)) {
        depot_.fetch_add(bump + spill, MSQ_MO("scq.credit_spill_add",
                                              std::memory_order_release));
        return;
      }
    }
  }

  bool take(T& out) noexcept {
    // The "scq.no_threshold" control runs the ring without its search
    // budget, and so without the gated empty check: tests/sim_scq_test.cpp
    // replays the livelock it lets back in.
    if (!MSQ_MUTANT("scq.no_threshold")) {
      const std::int64_t threshold = threshold_.load(
          MSQ_MO("scq.threshold_check", std::memory_order_acquire));
      if (threshold < 0) {
        return false;  // fast path: a prior exhausted scan proved emptiness
      }
      if (threshold != threshold_init_) {
        // A dequeuer has missed since the last deposit: the ring is
        // probably still empty, so check with reads alone before taking a
        // ticket (the paper's D2-D7).  Head first: both counters only grow,
        // so tail <= head at the tail read means every deposited value
        // already has its dequeue ticket issued.  Read the other way round
        // -- the "scq.tail_first" control -- a head that moved past a fresh
        // deposit after the tail read hides it.  While dequeues succeed the
        // threshold stays armed and the hot tail line is not read.
        if (MSQ_MUTANT("scq.tail_first")) {
          const std::uint64_t t = tail_.load(
              MSQ_MO("scq.empty_tail_load", std::memory_order_acquire));
          if (t <= head_.load(MSQ_MO("scq.empty_head_load",
                                     std::memory_order_acquire))) {
            return false;
          }
        } else {
          const std::uint64_t h = head_.load(
              MSQ_MO("scq.empty_head_load", std::memory_order_acquire));
          if (tail_.load(MSQ_MO("scq.empty_tail_load",
                                std::memory_order_acquire)) <= h) {
            return false;
          }
        }
      }
    }
    for (;;) {
      MSQ_PROBE("scq.faa_deq");
      const std::uint64_t h = head_.fetch_add(
          1, MSQ_MO("scq.deq_faa_head", std::memory_order_acq_rel));
      Cell& cell = entries_[remap(h)];
      const std::uint32_t cycle = ticket_cycle(h);
      std::uint64_t m = cell.word(0).load(
          MSQ_MO("scq.deq_entry_load", std::memory_order_acquire));
      for (;;) {
        if (meta_cycle(m) == cycle) {
          // A value was deposited for exactly this ticket (a mark never
          // writes our cycle: only our own mark could).  Until `full` is
          // cleared no deposit can touch the value half, so read it, then
          // consume -- the release orders the read before the entry's next
          // deposit.  fetch_and keeps a later ticket's unsafe mark.
          out = from_word(cell.word(1).load(
              MSQ_MO("scq.deq_entry_load", std::memory_order_acquire)));
          cell.word(0).fetch_and(
              ~kFullBit, MSQ_MO("scq.deq_consume_and", std::memory_order_acq_rel));
          return_credit();
          return true;
        }
        if (cycle_less(meta_cycle(m), cycle)) {
          // Older entry.  Empty entries get their cycle advanced so a
          // lagging enqueuer with an old ticket cannot deposit where we
          // already scanned; full ones are marked unsafe for the same
          // reason (their enqueuer must re-validate against head).  The
          // value half is left alone.
          const std::uint64_t desired =
              meta_full(m) ? (m | kUnsafeBit)
                           : make_meta(cycle, meta_safe(m), false);
          MSQ_PROBE_COUNT("scq.deq_mark", kCasAttempt);
          if (!cell.word(0).compare_exchange_weak(
                  m, desired,
                  MSQ_MO("scq.deq_mark_cas", std::memory_order_acq_rel),
                  std::memory_order_acquire)) {
            MSQ_COUNT(kCasFail);
            continue;  // entry changed: re-test (it may now match our cycle)
          }
        }
        // No value for this ticket.  If the tail is at or behind our scan
        // point the ring is empty: drag the tail up to head+1 so future
        // enqueuers start ahead of everything already scanned.
        const std::uint64_t t =
            tail_.load(MSQ_MO("scq.deq_tail_load", std::memory_order_acquire));
        if (t <= h + 1) {
          catch_up(t, h + 1);
          if (!MSQ_MUTANT("scq.no_threshold")) {
            threshold_.fetch_sub(
                1, MSQ_MO("scq.threshold_faa", std::memory_order_acq_rel));
          }
          return false;
        }
        MSQ_PROBE("scq.threshold");
        if (!MSQ_MUTANT("scq.no_threshold") &&
            threshold_.fetch_sub(1, MSQ_MO("scq.threshold_faa",
                                           std::memory_order_acq_rel)) <= 0) {
          return false;  // search budget exhausted: observably empty
        }
        break;  // budget remains: take a new ticket and keep scanning
      }
    }
  }

  /// The tail lags head+1: CAS it forward so deposits resume ahead of the
  /// scanned region.  Loses benignly to concurrent enqueuers' FAAs.
  void catch_up(std::uint64_t t, std::uint64_t h) noexcept {
    MSQ_PROBE("scq.catchup");
    MSQ_COUNT(kScqCatchup);
    while (!tail_.compare_exchange_weak(
        t, h, MSQ_MO("scq.catchup_cas", std::memory_order_acq_rel),
        std::memory_order_acquire)) {
      // The losers' head reload shares the enqueue's head-word load site.
      h = head_.load(MSQ_MO("scq.enq_head_load", std::memory_order_acquire));
      t = tail_.load(MSQ_MO("scq.deq_tail_load", std::memory_order_acquire));
      if (t >= h) break;
    }
  }

  std::uint32_t capacity_;
  std::uint32_t size_;
  std::uint32_t mask_;
  std::uint32_t order_;
  std::uint32_t rot_;
  std::int64_t threshold_init_;
  std::unique_ptr<Cell[]> entries_;
  alignas(port::kCacheLine) port::Atomic<std::uint64_t> head_{0};
  alignas(port::kCacheLine) port::Atomic<std::uint64_t> tail_{0};
  // Empty ring: threshold -1 arms the dequeue fast path immediately.
  alignas(port::kCacheLine) port::Atomic<std::int64_t> threshold_{-1};
  // Credit words: {version[63:32], count[31:0]}.  Every increase adds
  // kBump with its count, so a word read twice with the same value was
  // never increased between the reads (short of 2^32 increases inside one
  // refusing call); a take is a plain count decrement.
  alignas(port::kCacheLine) port::Atomic<std::uint64_t> depot_;
  std::array<port::CacheAligned<port::Atomic<std::uint64_t>>, kSlots> slots_{};
};

}  // namespace msq::queues
