// Wait-free MPMC queue: an announcement-array helping wrapper over the
// MS-queue core (ROADMAP item 3; the bounded-helping idiom of Kogan &
// Petrank, "Wait-free queues with multiple enqueuers and dequeuers",
// PPoPP'11, which Naderibeni & Ruppert's polylog queue builds on --
// PAPERS.md).
//
// The paper's own queue (Figure 1, src/queues/ms_queue.hpp) is non-blocking
// but not wait-free: a thread whose CAS keeps losing can retry forever while
// faster peers race ahead.  The fix is to make every operation PUBLIC before
// it is attempted:
//
//   * A global monotone phase counter hands each operation a priority.
//   * The operation is announced in a fixed array of descriptor slots:
//     one 16-byte cell holding {phase | state | payload}, CASed with
//     cmpxchg16b (tagged::AtomicDoubleWord, the PointerLink cell).
//   * Every thread, before and while running its own operation, helps all
//     announced operations with phase <= its own to completion.  A thread
//     that stalls mid-operation therefore has its operation finished by any
//     peer that passes by -- the tail-latency property bench/fig_stall.cpp
//     measures.
//
// Completion is a phase-guarded CAS on the announcement cell, so an
// operation completes exactly once no matter how many helpers race, and a
// helper holding an arbitrarily stale view can never corrupt a newer
// operation: either its expected {phase|state} no longer matches, or --
// for a dequeue deposit, where the helper may have re-read the reused
// slot's CURRENT announcement -- the live-Head revalidation in
// finish_deq rejects its dead dummy incarnation before any value is read.
//
// Step bound: once announced, an operation completes within
// O(kSlots * N) steps of ANY thread executing the protocol (N = number of
// concurrently active threads <= kSlots): a helper completes each
// lower-phase operation it meets before its own, and each of an op's CAS
// failures is caused by a distinct operation that either started before the
// announcement was visible (at most one per thread) or has lower phase (at
// most one in flight per slot).  tests/sim_wf_test.cpp asserts the bound
// over every DPOR schedule of an abstract model of this protocol;
// docs/ALGORITHMS.md "Progress guarantees" gives the argument in full.
//
// Memory reclamation stays the paper's: pool indices + counted tags
// (32-bit counter halves in every link), so the ABA regime is the same
// "2^32 intervening operations" argument as MsQueue, not a new one.  The
// descriptor slots themselves are recycled under the protection of the
// phase in their announcement word -- the phase IS the slot's counted tag.
//
// Wait-freedom caveat (documented, by design): the announcement array has
// kSlots entries claimed per-operation via a busy flag probed from
// port::thread_ordinal().  With more than kSlots threads inside the
// queue at once, slot acquisition itself can wait; size kSlots to the
// thread count (default 64, matching ShardedQueue's hint table).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>

#include "mem/freelist.hpp"
#include "mem/node_pool.hpp"
#include "mem/value_cell.hpp"
#include "obs/probe.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/counted_ptr.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {

namespace wf_detail {

/// The 16-byte announcement word: a sequence half (phase << 3 | state) and
/// a payload half (the enqueue's node index, or the dequeued value's bits).
struct SeqVal {
  std::uint64_t seq = 0;
  std::uint64_t bits = 0;

  friend constexpr bool operator==(SeqVal, SeqVal) noexcept = default;
};

/// Operation states, in the low 3 bits of `seq`.
enum State : std::uint64_t {
  kIdle = 0,        // slot free / previous op harvested by its owner
  kPendingEnq = 1,  // bits = node index awaiting linking
  kPendingDeq = 2,  // bits = 0, awaiting a value (or an empty verdict)
  kDoneEnq = 3,     // node linked and completion recorded
  kDoneDeq = 4,     // bits = dequeued value
  kEmpty = 5,       // dequeue observed an empty queue
};

constexpr std::uint64_t make_seq(std::uint64_t phase, State state) noexcept {
  return (phase << 3) | static_cast<std::uint64_t>(state);
}
constexpr State state_of(std::uint64_t seq) noexcept {
  return static_cast<State>(seq & 7);
}
constexpr std::uint64_t phase_of(std::uint64_t seq) noexcept {
  return seq >> 3;
}

}  // namespace wf_detail

/// Wait-free MPMC FIFO queue.  `T` must be trivially copyable and at most
/// 8 bytes (mem/value_cell.hpp).  `kSlots` bounds the number of threads
/// that can be inside an operation at once while keeping the wait-free
/// step bound (see header comment).
template <typename T, std::uint32_t kSlots = 64>
class WfQueue {
  // The enqueue stamp packs (phase << 8 | slot) into one word, so the
  // phase finish_tail reconstructs is truncated to 56 bits -- an ABSOLUTE
  // lifetime bound of 2^56 enqueues per queue (roughly two years at a
  // sustained 10^9 ops/s), after which the completion CAS would stop
  // matching and the owner would spin.  Stated separately from the
  // library-wide 2^32 ABA regime because that one is a RELATIVE bound
  // (2^32 interleaving operations within one read-CAS window), while this
  // one accumulates over the queue's whole life.
  static_assert(kSlots >= 1 && kSlots <= 256,
                "enqueue stamps pack the slot into 8 bits");
  static_assert(sizeof(T) <= 8, "values must fit the 16-byte result cell");

 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kWaitFree,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  /// `capacity` is the maximum number of queued items; one extra node is
  /// reserved for the dummy (exactly as MsQueue).
  explicit WfQueue(std::uint32_t capacity)
      : pool_(capacity + 1), freelist_(pool_) {
    const std::uint32_t dummy = freelist_.try_allocate();
    pool_[dummy].next.store(tagged::TaggedIndex{}, std::memory_order_release);
    head_.value.store(tagged::TaggedIndex(dummy, 0),
                      std::memory_order_release);
    tail_.value.store(tagged::TaggedIndex(dummy, 0),
                      std::memory_order_release);
  }

  WfQueue(const WfQueue&) = delete;
  WfQueue& operator=(const WfQueue&) = delete;

  /// Enqueue.  Returns false iff the node pool is exhausted (checked
  /// before the operation is announced, so a refused enqueue leaves no
  /// trace and costs no helping).
  bool try_enqueue(T value) noexcept {
    const std::uint32_t node = freelist_.try_allocate();
    if (node == tagged::kNullIndex) return false;

    const std::uint32_t slot = acquire_slot();
    Descriptor& d = desc_[slot];
    // relaxed: the phase is published by the full-barrier announcement (proof: test:tests/sim_wf_test.cpp)
    // store below; the FAA only needs to draw a unique monotone number
    const std::uint64_t phase = phase_.value.fetch_add(1, std::memory_order_relaxed);

    // Prepare the node while it is still private.  The stamp lets ANY
    // thread that sees the node linked find and complete its announcement
    // (finish_tail); it must be in place before the node can become
    // visible, i.e. before the announcement below.
    Node& n = pool_[node];
    n.value.put(value);
    n.enq_stamp.store((phase << 8) | slot, std::memory_order_release);
    // Reset the link, preserving and bumping the tag half: together with
    // FreeList::push (which bumps likewise) the node's link count is
    // monotone over its WHOLE lifetime, so a helper's stale link CAS from
    // a previous life of this node can never succeed.  Helping makes this
    // load-bearing here -- an op completed behind its owner's back leaves
    // the owner holding a counted null that MUST never match again.
    const tagged::TaggedIndex stale = n.next.load(std::memory_order_acquire);
    n.next.store(tagged::TaggedIndex(tagged::kNullIndex, stale.count() + 1),
                 std::memory_order_release);

    const wf_detail::SeqVal announced{
        wf_detail::make_seq(phase, wf_detail::kPendingEnq), node};
    d.result.store(announced, std::memory_order_seq_cst);
    // A thread halted HERE has only announced: the operation completes
    // entirely through peers' helping -- the wait-free property in one
    // fault site (tests/fault_tolerance_test.cpp halts a victim here).
    MSQ_PROBE("wfq.announce");

    help_lower_phases(phase, slot);
    while (d.result.load(std::memory_order_seq_cst) == announced) {
      MSQ_PROBE("wfq.enq_wait");
      help_enq_round(slot, announced);
    }

    // Harvest: only the owner writes announcements, so the cell still
    // holds our completion; mark the slot idle (phase-stamped so stale
    // helper CASes keep failing) and release it.
    d.result.store(
        wf_detail::SeqVal{wf_detail::make_seq(phase, wf_detail::kIdle), 0},
        std::memory_order_seq_cst);
    release_slot(slot);
    MSQ_COUNT(kEnqueue);
    return true;
  }

  /// Dequeue.  Returns false iff the queue was observed empty.
  bool try_dequeue(T& out) noexcept {
    const std::uint32_t slot = acquire_slot();
    Descriptor& d = desc_[slot];
    // relaxed: same argument as the enqueue-side FAA above
    const std::uint64_t phase = phase_.value.fetch_add(1, std::memory_order_relaxed);

    // Reset the taken-binding from our previous dequeue in this slot.  The
    // reset value is tagged with the phase so the cell's history never
    // repeats (helpers CAS it against full expected values).
    for (;;) {
      const tagged::TaggedIndex tk = d.taken.load(std::memory_order_acquire);
      if (tk.is_null() ||
          d.taken.compare_and_swap(
              tk,
              tagged::TaggedIndex(tagged::kNullIndex,
                                  static_cast<std::uint32_t>(phase)),
              std::memory_order_acq_rel)) {
        break;
      }
    }

    const wf_detail::SeqVal announced{
        wf_detail::make_seq(phase, wf_detail::kPendingDeq), 0};
    d.result.store(announced, std::memory_order_seq_cst);
    MSQ_PROBE("wfq.announce");

    help_lower_phases(phase, slot);
    wf_detail::SeqVal r = d.result.load(std::memory_order_seq_cst);
    while (r == announced) {
      MSQ_PROBE("wfq.deq_wait");
      help_deq_round(slot, announced);
      r = d.result.load(std::memory_order_seq_cst);
    }

    const bool got = wf_detail::state_of(r.seq) == wf_detail::kDoneDeq;
    if (got) {
      // The depositor recorded which dummy (index AND head-tag) it
      // consumed in `taken`; make sure Head has swung past it and the
      // node is freed BEFORE the slot can be reused, otherwise a stale
      // finisher meeting a recycled dummy with a coincidentally matching
      // index could swing Head past an unconsumed node.
      settle_consumed_dummy(d);
      std::memcpy(&out, &r.bits, sizeof(T));
    }
    d.result.store(
        wf_detail::SeqVal{wf_detail::make_seq(phase, wf_detail::kIdle), 0},
        std::memory_order_seq_cst);
    release_slot(slot);
    if (got) {
      MSQ_COUNT(kDequeue);
    } else {
      MSQ_COUNT(kDequeueEmpty);
    }
    return got;
  }

  /// Convenience wrapper with optional-return style.
  [[nodiscard]] std::optional<T> try_dequeue() noexcept {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  /// Items the pool can still hold (racy snapshot; tests/metrics only).
  [[nodiscard]] std::size_t unsafe_free_nodes() const noexcept {
    return freelist_.unsafe_size();
  }

  /// Bytes of one pool node (bench/fig_memory: peak_nodes x node_bytes).
  [[nodiscard]] static constexpr std::size_t node_bytes() noexcept {
    return sizeof(Node);
  }

 private:
  struct Node {
    mem::ValueCell<T> value;
    tagged::AtomicTagged next;
    // Which descriptor slot's dequeue owns this node while it is the
    // dummy: {slot | null, tag}.  Never touched by the free list, so its
    // tag is monotone for the node's whole lifetime.
    tagged::AtomicTagged claim;
    // (phase << 8 | slot) of the enqueue that inserted this node; lets
    // any helper that finds the node linked complete that enqueue.  The
    // packing truncates the phase to 56 bits -- see the lifetime-bound
    // comment at the kSlots static_assert.
    // share-ok: written only while the node is private, read-mostly after
    std::atomic<std::uint64_t> enq_stamp{0};
  };

  /// One announcement slot.  Cache-line aligned: the cell, its taken
  /// binding and its busy flag are one operation's words and travel
  /// together by design; different slots never share a line.
  struct alignas(port::kCacheLine) Descriptor {
    tagged::AtomicDoubleWord<wf_detail::SeqVal> result;
    // Which dummy ({index, head-tag}) the in-flight dequeue's deposit
    // consumed.  Storing the Head tag -- globally monotone, bumped by
    // every successful Head CAS -- makes the binding identify one dummy
    // INCARNATION, so index recycling can never replay it.
    tagged::AtomicTagged taken;
    // share-ok: same line as the result cell on purpose (see struct cmt)
    std::atomic<std::uint32_t> busy{0};
  };

  std::uint32_t acquire_slot() noexcept {
    const std::uint32_t start = port::thread_ordinal();
    for (std::uint32_t i = 0;; ++i) {
      const std::uint32_t s = (start + i) % kSlots;
      std::uint32_t expected = 0;
      if (desc_[s].busy.compare_exchange_strong(expected, 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        return s;
      }
      if (i % kSlots == kSlots - 1) {
        MSQ_PROBE("wfq.slot_wait");
        port::cpu_relax();
      }
    }
  }

  void release_slot(std::uint32_t slot) noexcept {
    desc_[slot].busy.store(0, std::memory_order_release);
  }

  /// The helping sweep: complete every announced operation with phase <=
  /// ours before working on our own.  One pass suffices -- an operation
  /// announced after its slot was inspected here is newer than our read
  /// and will be helped by its own owner and by later sweeps.
  void help_lower_phases(std::uint64_t phase, std::uint32_t own) noexcept {
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      if (s == own) continue;
      const wf_detail::SeqVal sv =
          desc_[s].result.load(std::memory_order_seq_cst);
      const wf_detail::State st = wf_detail::state_of(sv.seq);
      if (st != wf_detail::kPendingEnq && st != wf_detail::kPendingDeq) {
        continue;
      }
      if (wf_detail::phase_of(sv.seq) > phase) continue;
      MSQ_COUNT(kWfHelp);
      while (desc_[s].result.load(std::memory_order_seq_cst) == sv) {
        MSQ_PROBE("wfq.help_wait");
        if (st == wf_detail::kPendingEnq) {
          help_enq_round(s, sv);
        } else {
          help_deq_round(s, sv);
        }
      }
    }
  }

  /// One attempt at an announced enqueue: link its node at the tail, or
  /// clear whatever other linked-but-unfinished node is in the way.
  ///
  /// Safety of linking a possibly stale announcement (the central
  /// subtlety): the CAS below succeeds only if tail's next held the SAME
  /// counted null from our read to the CAS, which pins Tail to `t` for
  /// that window (Tail only advances along a non-null next).  The
  /// re-validation of the announcement inside that window shows the
  /// operation was then incomplete, and an incomplete enqueue's node is
  /// either unlinked, or linked at the CURRENT tail with next non-null
  /// (finish_tail marks completion before any Tail swing) -- which our
  /// null read rules out.  So a successful CAS linked an unlinked,
  /// unfreed node exactly once; every stale interleaving loses a CAS.
  void help_enq_round(std::uint32_t slot, wf_detail::SeqVal sv) noexcept {
    const std::uint32_t node = static_cast<std::uint32_t>(sv.bits);
    const tagged::TaggedIndex t = tail_.value.load(std::memory_order_acquire);
    const tagged::TaggedIndex next =
        pool_[t.index()].next.load(std::memory_order_acquire);
    if (t != tail_.value.load(std::memory_order_acquire)) return;
    if (!next.is_null()) {
      finish_tail();
      return;
    }
    if (desc_[slot].result.load(std::memory_order_seq_cst) != sv) return;
    MSQ_PROBE_COUNT("wfq.link", kCasAttempt);
    if (pool_[t.index()].next.compare_and_swap(next, next.successor(node),
                                               std::memory_order_acq_rel)) {
      finish_tail();
      return;
    }
    MSQ_COUNT(kCasFail);
  }

  /// Complete the enqueue of whatever node follows Tail, then swing Tail
  /// past it (the wait-free analogue of MS's E12/D9 helping).  Invariant:
  /// Tail never advances past a node whose announcement has not been
  /// resolved -- the completion CAS strictly precedes the swing.
  void finish_tail() noexcept {
    const tagged::TaggedIndex t = tail_.value.load(std::memory_order_acquire);
    const tagged::TaggedIndex next =
        pool_[t.index()].next.load(std::memory_order_acquire);
    if (next.is_null()) return;
    const std::uint64_t stamp =
        pool_[next.index()].enq_stamp.load(std::memory_order_acquire);
    // Counted Tail unchanged => Tail never moved since our first read =>
    // `next` is still the linked successor (a linked node is only freed
    // after Tail, then Head, pass it) => the stamp we read is its.
    if (tail_.value.load(std::memory_order_acquire) != t) return;
    const std::uint32_t slot = static_cast<std::uint32_t>(stamp & 0xff);
    const std::uint64_t phase = stamp >> 8;
    desc_[slot].result.compare_and_swap(
        wf_detail::SeqVal{wf_detail::make_seq(phase, wf_detail::kPendingEnq),
                          next.index()},
        wf_detail::SeqVal{wf_detail::make_seq(phase, wf_detail::kDoneEnq),
                          next.index()},
        std::memory_order_seq_cst);
    MSQ_PROBE("wfq.swing");
    tail_.value.compare_and_swap(t, t.successor(next.index()),
                                 std::memory_order_acq_rel);
  }

  /// One attempt at an announced dequeue: resolve emptiness, or claim the
  /// dummy for this operation and drive the claimed operation home.
  void help_deq_round(std::uint32_t slot, wf_detail::SeqVal sv) noexcept {
    const tagged::TaggedIndex h = head_.value.load(std::memory_order_acquire);
    const tagged::TaggedIndex t = tail_.value.load(std::memory_order_acquire);
    const tagged::TaggedIndex next =
        pool_[h.index()].next.load(std::memory_order_acquire);
    if (h != head_.value.load(std::memory_order_acquire)) return;
    if (h.index() == t.index()) {
      if (next.is_null()) {
        // Empty verdict, linearized at the next-is-null read above (Head
        // and Tail were equal and consistent).  Phase-guarded: if the
        // operation was meanwhile completed with a value, this fails.
        desc_[slot].result.compare_and_swap(
            sv,
            wf_detail::SeqVal{
                wf_detail::make_seq(wf_detail::phase_of(sv.seq),
                                    wf_detail::kEmpty),
                0},
            std::memory_order_seq_cst);
        return;
      }
      finish_tail();  // Tail is lagging; resolve the in-flight enqueue
      return;
    }
    if (next.is_null()) return;  // stale view; re-read
    const tagged::TaggedIndex claim =
        pool_[h.index()].claim.load(std::memory_order_acquire);
    if (claim.is_null()) {
      // Bind the dummy to the operation we are helping -- but never claim
      // on behalf of an operation that is already complete.
      if (desc_[slot].result.load(std::memory_order_seq_cst) != sv) return;
      MSQ_PROBE_COUNT("wfq.claim", kCasAttempt);
      if (!pool_[h.index()].claim.compare_and_swap(
              claim, claim.successor(slot), std::memory_order_acq_rel)) {
        MSQ_COUNT(kCasFail);
      }
    }
    finish_deq(h);
  }

  /// Drive the dequeue that holds the dummy's claim to completion:
  /// deposit the first value into its announcement, swing Head, free the
  /// old dummy.  Called with `first` = a validated read of Head; every
  /// mutation is guarded (phase-guarded 16-byte CAS, full-value counted
  /// CAS), so arbitrarily stale callers lose every race harmlessly.
  void finish_deq(tagged::TaggedIndex first) noexcept {
    Node& dummy = pool_[first.index()];
    const tagged::TaggedIndex claim =
        dummy.claim.load(std::memory_order_acquire);
    if (claim.is_null()) return;
    const tagged::TaggedIndex next = dummy.next.load(std::memory_order_acquire);
    if (next.is_null()) return;  // stale view of a recycled node
    // A thread halted HERE holds a possibly ancient view of Head and this
    // node's claim/next; everything it does below is guarded against that
    // (tests/fault_tolerance_test.cpp parks a victim here and replays the
    // consumed-freed-recycled dummy scenario against it).
    MSQ_PROBE("wfq.finish");
    const std::uint32_t slot = claim.index() % kSlots;
    Descriptor& d = desc_[slot];
    const wf_detail::SeqVal r = d.result.load(std::memory_order_seq_cst);

    if (wf_detail::state_of(r.seq) == wf_detail::kPendingDeq) {
      // Record WHICH dummy incarnation this operation consumes before
      // depositing: {index, Head tag}.  If the claim is a stale leftover
      // from a previous life of this node index, the pending operation
      // simply adopts the current dummy -- a valid linearization.
      tagged::TaggedIndex tk = d.taken.load(std::memory_order_acquire);
      if (tk.is_null()) {
        d.taken.compare_and_swap(
            tk, tagged::TaggedIndex(first.index(), first.count()),
            std::memory_order_acq_rel);
        tk = d.taken.load(std::memory_order_acquire);
      }
      if (tk != tagged::TaggedIndex(first.index(), first.count())) {
        // Bound to some OTHER dummy incarnation -- either our `first` is
        // stale (binding is live: leave it), or the binding itself is
        // stale pollution that would wedge the operation (clear it).
        unbind_if_stale(d, tk);
        return;
      }
      // Deposit guard.  `r` was re-read above, so the phase guard alone
      // cannot reject a stale helper: if our `first` predates a swing, the
      // dummy may have been consumed, freed and recycled, its dangling
      // claim may point at a slot now reused by a FRESH pending dequeue
      // (whose taken our CAS above just polluted), and `next` may be a
      // free-list link or mid-queue edge -- depositing would complete the
      // new operation with a garbage or duplicate value while removing
      // nothing.  Head's tag is bumped by every swing, so equality with
      // `first` proves no swing intervened: `first` is the LIVE dummy
      // incarnation, our binding is genuine, and from here Head stays
      // pinned until this operation leaves kPendingDeq (every swing
      // requires a resolved kDoneDeq with a matching binding), making the
      // value read below stable.  The polluted-taken case this guard
      // abandons is cleaned up by unbind_if_stale on any later pass.
      if (head_.value.load(std::memory_order_seq_cst) !=
          tagged::TaggedIndex(first.index(), first.count())) {
        return;
      }
      const T value = pool_[next.index()].value.get();
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(T));
      MSQ_PROBE_COUNT("wfq.deposit", kCasAttempt);
      d.result.compare_and_swap(
          r,
          wf_detail::SeqVal{wf_detail::make_seq(wf_detail::phase_of(r.seq),
                                                wf_detail::kDoneDeq),
                            bits},
          std::memory_order_seq_cst);
      // Fall through: whoever won the deposit, the swing below applies.
    }

    // Swing Head past the dummy iff the claimed operation's completed
    // deposit consumed exactly THIS dummy incarnation.  kEmpty or a
    // later/earlier state never swings; an orphaned claim (stale leftover
    // whose slot shows no matching activity) is reset so the dummy can be
    // claimed afresh.
    const tagged::TaggedIndex tk = d.taken.load(std::memory_order_acquire);
    const wf_detail::SeqVal now = d.result.load(std::memory_order_seq_cst);
    if (wf_detail::state_of(now.seq) == wf_detail::kDoneDeq &&
        tk == tagged::TaggedIndex(first.index(), first.count())) {
      MSQ_PROBE("wfq.swing");
      if (head_.value.compare_and_swap(first, first.successor(next.index()),
                                       std::memory_order_seq_cst)) {
        freelist_.free(first.index());
      }
      return;
    }
    if (wf_detail::state_of(now.seq) != wf_detail::kPendingDeq) {
      // Orphan: the claim points at a slot that is no longer running a
      // dequeue that could consume this dummy; clear it (tag bumps keep
      // the cell's history monotone).
      dummy.claim.compare_and_swap(claim, claim.successor(tagged::kNullIndex),
                                   std::memory_order_acq_rel);
    }
  }

  /// Clear a taken-binding left by a stale helper, so the pending dequeue
  /// it pollutes can be re-bound instead of wedging forever.  Staleness
  /// proof: Head's tag is globally monotone (bumped by every successful
  /// swing) and a non-null binding is always the copy of a genuine Head
  /// read, so a binding whose tag differs from the live Head's names an
  /// incarnation Head can never show again.  Crucially the converse holds
  /// too: between a deposit and the swing that retires it, the consumed
  /// binding's tag still EQUALS Head's (the swing is what bumps it), so a
  /// consumed-but-unswung binding is never cleared here -- clearing one
  /// would let the same dummy be claimed and deposited twice.  The tag
  /// comparison shares the library-wide 2^32 ABA regime.
  void unbind_if_stale(Descriptor& d, tagged::TaggedIndex tk) noexcept {
    if (tk.is_null()) return;
    const tagged::TaggedIndex h = head_.value.load(std::memory_order_seq_cst);
    if (tk.count() == h.count()) return;  // live (or plausibly live): keep
    MSQ_PROBE("wfq.unbind");
    d.taken.compare_and_swap(
        tk, tagged::TaggedIndex(tagged::kNullIndex, tk.count() + 1),
        std::memory_order_acq_rel);
  }

  /// Owner-side epilogue of a successful dequeue: before the slot can be
  /// reused, make sure Head has swung past the consumed dummy and the
  /// node went back to the free list (the one successful counted Head
  /// CAS frees; everyone else fails harmlessly).
  void settle_consumed_dummy(Descriptor& d) noexcept {
    const tagged::TaggedIndex tk = d.taken.load(std::memory_order_acquire);
    for (;;) {
      const tagged::TaggedIndex h = head_.value.load(std::memory_order_acquire);
      if (tagged::TaggedIndex(h.index(), h.count()) !=
          tagged::TaggedIndex(tk.index(), tk.count())) {
        return;  // already swung (tag is monotone: never this dummy again)
      }
      const tagged::TaggedIndex next =
          pool_[h.index()].next.load(std::memory_order_acquire);
      if (next.is_null()) return;  // unreachable for a consumed dummy
      if (head_.value.compare_and_swap(h, h.successor(next.index()),
                                       std::memory_order_seq_cst)) {
        freelist_.free(h.index());
        return;
      }
    }
  }

  mem::NodePool<Node> pool_;
  mem::FreeList<Node> freelist_;
  // Head and Tail on separate cache lines, exactly as MsQueue; the phase
  // counter is a third contended word and gets its own line too.
  port::CacheAligned<tagged::AtomicTagged> head_;
  port::CacheAligned<tagged::AtomicTagged> tail_;
  port::CacheAligned<std::atomic<std::uint64_t>> phase_;
  std::array<Descriptor, kSlots> desc_;
};

}  // namespace msq::queues
