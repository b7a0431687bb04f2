// Fetch-and-add segmented queue: the paper's list-of-nodes made wide.
//
// Section 4 of Michael & Scott attributes every throughput gap to contended
// cache-line transfers: the MS queue pays one CAS *retry loop* on Tail per
// enqueue and one on Head per dequeue, and under contention each failed CAS
// is a wasted exclusive acquisition of the hottest line in the program.
// The modern fix (LCRQ, FAAArrayQueue, SCQ -- see PAPERS.md) keeps the
// paper's linked-list backbone but makes each node a fixed-size *segment*
// of kSlots items, so the common case claims a slot with ONE fetch-and-add
// on a ticket counter -- fetch_add always succeeds, so the line is acquired
// exactly once per operation instead of once per retry.  The MS-style CAS
// machinery (counted pointers, E12/D9 helping) survives, but runs only on
// the cold segment-append path, i.e. once every kSlots operations.
//
// The one-ticket claim: a dequeuer whose reads show exactly ONE claimable
// ticket claims it with CAS(deq, d, d + 1) instead of fetch_add.  Of k
// pollers racing for the last item, fetch_add would hand k - 1 of them
// tickets past it, and each would kill a slot the producer is about to
// fill (a failed fill CAS per loser, and a segment closed early).  With
// the CAS a loser fails, re-reads and reports empty having written
// nothing, as the paper's D12 loser does.  With two or more claimable
// tickets every claimant finds an item, so fetch_add, which cannot fail,
// stays.  A successful CAS hands out the ticket fetch_add would have, so
// everything below is the same for both claim forms.
//
// Slot handshake (the ring_queue cell discipline, single-shot): each slot
// is a {state, value} pair.  An enqueuer that won ticket t writes the value
// and CASes state kEmpty -> kFilled (release).  A dequeuer that won ticket
// t exchanges state -> kTaken (acq_rel): if it saw kFilled the value is its
// result; if it saw kEmpty it has *killed* a slot whose enqueuer is still
// in flight -- that enqueuer's CAS fails and it retries with a fresh
// ticket, which is what keeps both sides non-blocking (no waiting on a
// stalled peer, exactly the paper's progress argument for dequeue D5-D15).
//
// Slot layout: ticket t lives in slot slot_of(t), a bit rotation (scq's
// remap) that puts consecutive tickets on distinct cache lines, so a
// neighbour ticket's op never takes the line between an op's two slot
// steps.  The slot array is line-aligned: no slot straddles two lines and
// `next` has a line of its own.  An enqueue takes its ticket with the
// fetch_add alone, with no load of the ticket line first.  Line fetches
// (a miss or an upgrade) per enqueue/dequeue pair under contention: 7,
// where packed slots and a ticket pre-check cost 8-10 (docs/ALGORITHMS.md,
// "The FAA-segment queue", counts them per line).
//
// Memory reclamation: counted pointers defend every CAS here exactly as in
// ms_queue.hpp, but they CANNOT defend the unconditional fetch-and-add: a
// stale thread FAA-ing the ticket of a recycled segment would consume a
// ticket the new incarnation never handed out and strand an item.  So a
// thread may only touch a segment while *protecting* it in a hazard cell
// (claim-and-publish CAS, seq_cst, then re-validate Head/Tail -- the
// classic hazard-pointer store/load fence argument, cf. mem/hazard.hpp).
// Retired segments whose index is still published go to a small limbo
// array and are reaped on later retires.  Segments are reset by their new
// exclusive owner at ALLOCATION time (published by the release link-CAS),
// never at retire time, so a late reader of a free segment sees only
// stale-but-harmless state.
//
// Allocation: segments come from a NodePool through a MagazineAllocator by
// default -- one shared free-list CAS per kCap/2 segment turnovers.
//
// The shared words are port::Atomic (port/atomic.hpp).  In the model build
// (MSQ_MODEL=1) the DPOR explorer runs THIS header: each access is one
// step, each MSQ_PROBE a label, and two MSQ_MUTANT hooks switch in the
// negative controls -- "segq.faa_claim" claims every ticket by fetch_add,
// "segq.no_hazard" publishes no hazard (tests/sim_segment_test.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "mem/magazine.hpp"
#include "mem/node_pool.hpp"
#include "mem/value_cell.hpp"
#include "obs/probe.hpp"
#include "port/atomic.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {

/// Default segment allocator: small magazines (a segment is recycled once
/// per kSlots operations, so a deep cache would only hoard capacity).
template <typename Node>
using SegmentMagazine = mem::MagazineAllocator<Node, 8>;

/// Unbounded-by-design, pool-bounded-in-practice lock-free MPMC FIFO.
/// `T` must be trivially copyable and at most 8 bytes (mem/value_cell.hpp).
/// `capacity` rounds up to whole segments: the queue accepts at least
/// `capacity` items before refusing, possibly up to a segment more.
template <typename T, template <typename> class Alloc = SegmentMagazine>
class SegmentQueue {
 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kNonBlocking,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  /// Items per segment: the FAA fast path amortises one segment append
  /// (CAS + allocation) over this many enqueues.  The model build's two
  /// slots make a DPOR world fill, append and retire segments.
  static constexpr std::uint32_t kSlots = MSQ_MODEL ? 2 : 64;

  explicit SegmentQueue(std::uint32_t capacity)
      : pool_(segments_for(capacity)), alloc_(pool_) {
    for (auto& slot : limbo_) {
      // relaxed: construction-time store, no other thread exists yet (proof: test:tests/sim_segment_test.cpp)
      slot.store(tagged::kNullIndex, std::memory_order_relaxed);
    }
    // The initial segment is born DRAINED (all tickets consumed): the
    // first enqueue appends a fresh segment exactly like every later
    // fill/drain cycle, so pool accounting is identical from cycle 0
    // (tests/pool_exhaustion_test.cpp counts on this).
    const std::uint32_t s0 = alloc_.try_allocate();
    Segment& seg = pool_[s0];
    for (Slot& slot : seg.slots) {
      // relaxed: queue is being constructed; no other thread exists yet (proof: test:tests/sim_segment_test.cpp)
      slot.state.store(kTaken, std::memory_order_relaxed);
    }
    // relaxed: same construction-time exclusivity for all stores below
    seg.enq.store(kSlots, std::memory_order_relaxed);
    seg.deq.store(kSlots, std::memory_order_relaxed);
    // relaxed: construction-time store, no other thread exists yet (proof: test:tests/sim_segment_test.cpp)
    seg.next.store(tagged::TaggedIndex{}, std::memory_order_relaxed);
    head_.value.store(tagged::TaggedIndex(s0, 0), std::memory_order_release);
    tail_.value.store(tagged::TaggedIndex(s0, 0), std::memory_order_release);
  }

  SegmentQueue(const SegmentQueue&) = delete;
  SegmentQueue& operator=(const SegmentQueue&) = delete;

  friend struct SegmentInspector;  // tests check the slot layout

  /// Returns false iff the segment pool is exhausted.
  bool try_enqueue(T value) noexcept {
    Protector hp(*this);
    for (;;) {
      const tagged::TaggedIndex tail = hp.protect(tail_.value);
      Segment& seg = pool_[tail.index()];
      // No load first: the fetch_add alone fetches the ticket line, once
      // and exclusive.  A ticket past the segment falls through to `next`
      // below, so a full segment's counter grows by at most about two per
      // enqueuer (one FAA before it sees `next`, one after a lost append).
      MSQ_PROBE("segq.faa_enq");
      const std::uint64_t t = seg.enq.fetch_add(1, std::memory_order_acq_rel);
      if (t < kSlots) {
        Slot& slot = seg.slots[slot_of(t)];
        slot.value.put(value);
        MSQ_PROBE_COUNT("segq.fill", kCasAttempt);
        std::uint32_t expected = kEmpty;
        if (slot.state.compare_exchange_strong(
                expected, kFilled, std::memory_order_release,
                // relaxed: on failure the slot was killed; the observed (proof: test:tests/sim_segment_test.cpp)
                // value is not reused, we just take a fresh ticket
                std::memory_order_relaxed)) {
          MSQ_COUNT(kEnqueue);
          return true;
        }
        // An impatient dequeuer killed our slot: lost the race, retry.
        MSQ_COUNT(kCasFail);
        continue;
      }
      // Segment full.  If it already has a successor, help swing Tail
      // (the paper's E12) and retry there.
      const tagged::TaggedIndex next = seg.next.load(std::memory_order_acquire);
      if (!next.is_null()) {
        tail_.value.compare_and_swap(tail, tail.successor(next.index()),
                                     std::memory_order_acq_rel);
        continue;
      }
      // Append a fresh segment, pre-seeded with our value as ticket 0
      // (saves the new segment's first FAA + slot CAS).
      std::uint32_t fresh = alloc_.try_allocate();
      if (fresh == tagged::kNullIndex) {
        // Exhaustion sweep, mirroring the magazine's sweep-before-refusing
        // discipline: limbo is otherwise only re-scanned by a LATER retire,
        // and once the pool is dry no dequeue can ever retire again -- a
        // segment whose hazard cleared after the last retire parked it
        // would stay stranded forever, wedging every future enqueue on a
        // queue whose capacity is nominally free (with per-shard pools as
        // small as one usable segment this is a near-certain livelock in
        // any enqueue-retry loop, not a rare corner).
        sweep_limbo();
        fresh = alloc_.try_allocate();
        if (fresh == tagged::kNullIndex) return false;
      }
      reset_segment(fresh);
      Segment& nseg = pool_[fresh];
      Slot& first = nseg.slots[slot_of(0)];
      first.value.put(value);
      // relaxed: `fresh` is private until the link-CAS below publishes it (proof: test:tests/sim_segment_test.cpp)
      first.state.store(kFilled, std::memory_order_relaxed);
      // relaxed: same pre-publication exclusivity
      nseg.enq.store(1, std::memory_order_relaxed);
      MSQ_PROBE_COUNT("segq.close", kCasAttempt);
      if (seg.next.compare_and_swap(next, next.successor(fresh),
                                    std::memory_order_acq_rel)) {
        MSQ_COUNT(kSegClose);
        // Swing Tail to the new segment (paper's E13; failure means
        // someone helped us, which is fine).
        tail_.value.compare_and_swap(tail, tail.successor(fresh),
                                     std::memory_order_acq_rel);
        MSQ_COUNT(kEnqueue);
        return true;
      }
      // Lost the append race; give the segment back and retry.
      MSQ_COUNT(kCasFail);
      alloc_.free(fresh);
    }
  }

  /// Returns false iff the queue was observed empty.
  bool try_dequeue(T& out) noexcept {
    Protector hp(*this);
    for (;;) {
      const tagged::TaggedIndex head = hp.protect(head_.value);
      Segment& seg = pool_[head.index()];
      // Read order matters for the empty check: deq first, then enq, then
      // next.  Both tickets are monotone, so deq >= enq here implies the
      // segment was drained at the instant deq was read; `next` is
      // write-once, so null now means null at that same instant -- a valid
      // linearization point for returning empty.
      const std::uint64_t d = seg.deq.load(std::memory_order_acquire);
      const std::uint64_t e = seg.enq.load(std::memory_order_acquire);
      const tagged::TaggedIndex next = seg.next.load(std::memory_order_acquire);
      // Once a successor exists the segment is closed, but straggler
      // enqueuers holding pre-close tickets may still fill ANY slot: every
      // slot's dequeue ticket must be consumed (taking or killing it)
      // before the segment can be abandoned -- hence the kSlots limit.
      const std::uint64_t limit =
          next.is_null() ? (e < kSlots ? e : kSlots) : kSlots;
      if (d >= limit) {
        if (next.is_null()) {
          MSQ_COUNT(kDequeueEmpty);
          return false;
        }
        // Drained segment with a successor: advance Head.  First make
        // sure Tail is not left pointing at the segment we are about to
        // retire (the paper's D9 discipline that makes reuse safe).
        const tagged::TaggedIndex tail = tail_.value.load(std::memory_order_acquire);
        if (tail.index() == head.index()) {
          tail_.value.compare_and_swap(tail, tail.successor(next.index()),
                                       std::memory_order_acq_rel);
        }
        MSQ_PROBE_COUNT("segq.swing_head", kCasAttempt);
        if (head_.value.compare_and_swap(head, head.successor(next.index()),
                                         std::memory_order_acq_rel)) {
          // Clear our own hazard BEFORE the retire scan, or the scan
          // would always find the segment "in use" -- by us.
          hp.release();
          retire(head.index());
        } else {
          MSQ_COUNT(kCasFail);
        }
        continue;
      }
      MSQ_PROBE("segq.faa_deq");
      std::uint64_t t = d;
      if (limit - d == 1 && !MSQ_MUTANT("segq.faa_claim")) {
        // The one-ticket claim (header comment): a loser re-reads to an
        // empty verdict instead of killing the producer's next slot.
        MSQ_COUNT(kCasAttempt);
        if (!seg.deq.compare_exchange_strong(
                t, d + 1, std::memory_order_acq_rel,
                // relaxed: on failure the observed ticket is discarded; (proof: test:tests/sim_segment_test.cpp)
                // the loop re-reads deq, enq and next afresh
                std::memory_order_relaxed)) {
          MSQ_COUNT(kCasFail);
          continue;
        }
      } else {
        t = seg.deq.fetch_add(1, std::memory_order_acq_rel);
        if (t >= kSlots) continue;  // overshoot: segment drained, re-examine
      }
      // Ticket t names a single dequeuer (us); once kFilled is visible its
      // single enqueuer is done with the slot, so the consume transition
      // needs no RMW -- a plain store suffices.  Only the kill race (an
      // enqueuer's fill-CAS still in flight) needs the atomic exchange.
      Slot& slot = seg.slots[slot_of(t)];
      if (slot.state.load(std::memory_order_acquire) == kFilled) {
        out = slot.value.get();
        slot.state.store(kTaken, std::memory_order_release);
        MSQ_COUNT(kDequeue);
        return true;
      }
      const std::uint32_t prev =
          slot.state.exchange(kTaken, std::memory_order_acq_rel);
      if (prev == kFilled) {
        out = slot.value.get();
        MSQ_COUNT(kDequeue);
        return true;
      }
      // Killed a slot whose enqueuer is still in flight (it will retry
      // with a fresh ticket); burn onwards.
      MSQ_PROBE("segq.kill");
    }
  }

  /// Convenience wrapper with optional-return style.
  [[nodiscard]] std::optional<T> try_dequeue() noexcept {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  /// Segments the pool can still hand out (racy; tests/metrics only).
  [[nodiscard]] std::size_t unsafe_free_segments() noexcept {
    return alloc_.unsafe_size();
  }

  /// Item capacity still allocatable (racy; tests/metrics only).
  [[nodiscard]] std::size_t unsafe_free_nodes() noexcept {
    return unsafe_free_segments() * kSlots;
  }

  /// Bytes of one SEGMENT -- the allocation grain the pool gauge counts
  /// (bench/fig_memory: peak_nodes x node_bytes).
  [[nodiscard]] static constexpr std::size_t node_bytes() noexcept {
    return sizeof(Segment);
  }

 private:
  // Slot states: single-shot handshake, in transition order.
  static constexpr std::uint32_t kEmpty = 0;   // no value yet
  static constexpr std::uint32_t kFilled = 1;  // value visible (enq committed)
  static constexpr std::uint32_t kTaken = 2;   // consumed OR killed

  struct Slot {
    // share-ok: one slot's state+value share a line (one transfer per
    // op); slot_of puts consecutive tickets on distinct lines
    port::Atomic<std::uint32_t> state{kEmpty};
    mem::ValueCell<T> value;
  };

  struct Segment {
    // Enqueuers and dequeuers each contend on their own ticket line.
    alignas(port::kCacheLine) port::Atomic<std::uint64_t> enq{0};
    alignas(port::kCacheLine) port::Atomic<std::uint64_t> deq{0};
    // MS-style link, also the free-list chain field (mem/freelist.hpp).
    // Read by every dequeue, written once per segment: its own line.
    alignas(port::kCacheLine) tagged::AtomicTagged next;
    // Line-aligned, so no slot straddles two lines.
    alignas(port::kCacheLine) std::array<Slot, kSlots> slots{};
  };

  /// Slots that share one cache line (all of them in the model build).
  static constexpr std::uint32_t kSlotsPerLine =
      std::min<std::uint32_t>(kSlots, port::kCacheLine / sizeof(Slot));

  /// The slot of ticket t < kSlots.  Tickets t and t + 1 differ in
  /// t mod kSlotsPerLine, which picks a block of kSlots / kSlotsPerLine
  /// slots, so they never share a line.  For 64 slots of 16 bytes this is
  /// ((t << 4) | (t >> 2)) & 63, scq's remap rotation; in the model build
  /// it is the identity.
  static constexpr std::uint32_t slot_of(std::uint64_t t) noexcept {
    const auto i = static_cast<std::uint32_t>(t);
    return (i % kSlotsPerLine) * (kSlots / kSlotsPerLine) + i / kSlotsPerLine;
  }

  static constexpr std::uint32_t segments_for(std::uint32_t capacity) noexcept {
    // Enough segments for `capacity` items plus the one drained segment
    // that is always resident as the list anchor (the paper's dummy node,
    // scaled up to a segment).
    return (capacity + kSlots - 1) / kSlots + 1;
  }

  // ---- hazard cells: per-queue protection for the FAA targets ----------
  //
  // kCells bounds the number of concurrently *protected* segments; an op
  // protects exactly one at a time, so this is a concurrency bound, not a
  // correctness bound -- thread 65+ spins for a free cell (documented
  // deviation from strict lock-freedom at >64 threads on one queue).  The
  // model build's worlds run at most four processes.

  static constexpr std::uint32_t kCells = MSQ_MODEL ? 4 : 64;
  static constexpr std::uint32_t kLimbo = 2 * kCells;

  struct HazardCell {
    // share-ok: one cell per cache line (struct is cache-line aligned)
    alignas(port::kCacheLine) port::Atomic<std::uint32_t> v{tagged::kNullIndex};
  };

  /// RAII claim of one hazard cell for the duration of an operation.
  class Protector {
   public:
    explicit Protector(SegmentQueue& q) noexcept : q_(q) {}
    ~Protector() { release(); }
    Protector(const Protector&) = delete;
    Protector& operator=(const Protector&) = delete;

    /// Publish protection for whatever segment `word` currently points
    /// to, re-validating until the published index survives a re-read of
    /// `word` (the hazard-pointer handshake: seq_cst publish, seq_cst
    /// re-read, vs. the seq_cst scan in retire()).
    [[nodiscard]] tagged::TaggedIndex protect(
        const tagged::AtomicTagged& word) noexcept {
      tagged::TaggedIndex cur = word.load(std::memory_order_acquire);
      if (MSQ_MUTANT("segq.no_hazard")) return cur;
      if (cell_ == nullptr) {
        // The claim-CAS stores `cur.index()` itself, so it doubles as the
        // first seq_cst publication -- no separate store needed.
        claim(cur.index());
      } else {
        cell_->v.store(cur.index(), std::memory_order_seq_cst);
      }
      for (;;) {
        const tagged::TaggedIndex check = word.load(std::memory_order_seq_cst);
        if (check.index() == cur.index()) return check;
        cur = check;
        cell_->v.store(cur.index(), std::memory_order_seq_cst);
      }
    }

    void release() noexcept {
      if (cell_ != nullptr) {
        cell_->v.store(tagged::kNullIndex, std::memory_order_release);
        cell_ = nullptr;
      }
    }

   private:
    void claim(std::uint32_t idx) noexcept {
      const std::uint32_t start = port::thread_ordinal();
      for (std::uint32_t i = 0;; ++i) {
        HazardCell& c = q_.cells_[(start + i) % kCells];
        std::uint32_t expected = tagged::kNullIndex;
        if (c.v.compare_exchange_strong(expected, idx,
                                        std::memory_order_seq_cst,
                                        // relaxed: failure value unused; (proof: test:tests/sim_segment_test.cpp)
                                        // the claim moves to the next cell
                                        std::memory_order_relaxed)) {
          cell_ = &c;
          return;
        }
        if (i >= kCells) port::cpu_relax();
      }
    }

    SegmentQueue& q_;
    HazardCell* cell_ = nullptr;
  };

  [[nodiscard]] bool hazarded(std::uint32_t idx) noexcept {
    for (HazardCell& c : cells_) {
      if (c.v.load(std::memory_order_seq_cst) == idx) return true;
    }
    return false;
  }

  /// Unlinked segment: free it now if no cell protects it, else park it in
  /// limbo for a later sweep.  Callers must have released their own cell.
  void retire(std::uint32_t idx) noexcept {
    if (limbo_count_.load(std::memory_order_acquire) > 0) sweep_limbo();
    if (!hazarded(idx)) {
      alloc_.free(idx);
      return;
    }
    for (;;) {
      for (port::Atomic<std::uint32_t>& slot : limbo_) {
        std::uint32_t expected = tagged::kNullIndex;
        if (slot.compare_exchange_strong(expected, idx,
                                         std::memory_order_acq_rel,
                                         // relaxed: occupied slot, move on (proof: test:tests/sim_segment_test.cpp)
                                         std::memory_order_relaxed)) {
          limbo_count_.fetch_add(1, std::memory_order_acq_rel);
          return;
        }
      }
      // Limbo full (can only happen transiently: parked segments become
      // reapable as soon as their protectors move on).  Reap and retry.
      sweep_limbo();
      port::cpu_relax();
    }
  }

  void sweep_limbo() noexcept {
    for (port::Atomic<std::uint32_t>& slot : limbo_) {
      std::uint32_t idx = slot.load(std::memory_order_acquire);
      if (idx == tagged::kNullIndex || hazarded(idx)) continue;
      if (slot.compare_exchange_strong(idx, tagged::kNullIndex,
                                       std::memory_order_acq_rel,
                                       // relaxed: lost the reap race (proof: test:tests/sim_segment_test.cpp)
                                       std::memory_order_relaxed)) {
        limbo_count_.fetch_sub(1, std::memory_order_acq_rel);
        alloc_.free(idx);
      }
    }
  }

  /// Reset a just-allocated segment.  We are its exclusive owner: the
  /// hazard scan in retire() proved no thread could still touch it, and
  /// the allocator handed it to us alone.  The release link-CAS publishes
  /// everything written here.
  void reset_segment(std::uint32_t idx) noexcept {
    Segment& seg = pool_[idx];
    for (Slot& slot : seg.slots) {
      // relaxed: exclusive pre-publication writes (see function comment) (proof: test:tests/sim_segment_test.cpp)
      slot.state.store(kEmpty, std::memory_order_relaxed);
    }
    // relaxed: same exclusivity; slot states are reset above BEFORE the
    // tickets re-open the segment, in case of a torn future publication
    seg.enq.store(0, std::memory_order_relaxed);
    // relaxed: same exclusivity
    seg.deq.store(0, std::memory_order_relaxed);
    // relaxed: same exclusivity
    seg.next.store(tagged::TaggedIndex{}, std::memory_order_relaxed);
  }

  mem::NodePool<Segment> pool_;
  Alloc<Segment> alloc_;
  // Head and Tail on separate cache lines, as in every queue here: the
  // FAA design makes these *cold* (one CAS per kSlots ops), but a false
  // share would still couple enqueuers to dequeuers.
  port::CacheAligned<tagged::AtomicTagged> head_;
  port::CacheAligned<tagged::AtomicTagged> tail_;
  std::array<HazardCell, kCells> cells_{};
  // share-ok: limbo slots are rarely touched (one park per lost retire
  // race); packing them is kinder than 128 dedicated lines
  std::array<port::Atomic<std::uint32_t>, kLimbo> limbo_{};
  // share-ok: adjacent to limbo_ by design, same rare-touch argument
  port::Atomic<std::uint32_t> limbo_count_{0};
};

// The false-sharing audit in one line: a CacheAligned word occupies a full
// line, so any two distinct CacheAligned members are on distinct lines.
static_assert(sizeof(port::CacheAligned<tagged::AtomicTagged>) >=
                  port::kCacheLine,
              "Head/Tail must not share a cache line");

}  // namespace msq::queues
