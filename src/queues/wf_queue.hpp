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
// operation completes exactly once no matter how many helpers race.  Which
// dequeue consumes the current dummy is decided by ONE queue-wide cell,
// bind_ = {Head tag, op}: a helper binds the dequeue it helps only when the
// binding names an older Head or an op that has left {pending, done}; a
// value is deposited only into the bound op while Head still carries the
// binding's tag; and Head swings only once the bound op reads done.  So a
// Head incarnation hands its value to exactly one dequeue, and a helper
// acting on a stale view fails its revalidation or its CAS.
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

/// An operation's identity, (phase << 8 | slot): the enqueue stamp and the
/// op half of the dequeue binding.
constexpr std::uint64_t op_id(std::uint64_t phase,
                              std::uint32_t slot) noexcept {
  return (phase << 8) | slot;
}

/// The dequeue binding: which op consumes the dummy of the Head whose
/// 32-bit count is `head_tag`.  `head_tag` starts out of range, so the
/// initial binding is stale against every Head.
struct Binding {
  std::uint64_t head_tag = ~std::uint64_t{0};
  std::uint64_t op = 0;

  friend constexpr bool operator==(Binding, Binding) noexcept = default;
};

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
    bind_.value.store(wf_detail::Binding{}, std::memory_order_release);
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
    n.enq_stamp.store(wf_detail::op_id(phase, slot), std::memory_order_release);
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
      // Head must be past our dummy before harvesting: once the op leaves
      // done, nothing would keep a helper from rebinding that dummy.
      settle_consumed_dummy(wf_detail::op_id(phase, slot));
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
    // op_id of the enqueue that inserted this node; lets any helper that
    // finds the node linked complete that enqueue.  The packing truncates
    // the phase to 56 bits -- see the lifetime-bound comment at the kSlots
    // static_assert.
    // share-ok: written only while the node is private, read-mostly after
    std::atomic<std::uint64_t> enq_stamp{0};
  };

  /// One announcement slot.  Cache-line aligned: the cell and its busy
  /// flag are one operation's words and travel together by design;
  /// different slots never share a line.
  struct alignas(port::kCacheLine) Descriptor {
    tagged::AtomicDoubleWord<wf_detail::SeqVal> result;
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

  /// One attempt at an announced dequeue: resolve emptiness, or bind the
  /// dummy to this operation and drive the bound operation home.
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
    const wf_detail::Binding b = bind_.value.load(std::memory_order_seq_cst);
    if (b.head_tag != h.count() || !bound_op_live(b)) {
      // Rebind, only on behalf of an op still pending after our Head read,
      // and only while Head still is `h` after our binding read: that keeps
      // binding tags monotone, so a helper with a stale `h` can never evict
      // the live binding (without the Head re-read, the model in
      // tests/sim_wf_test.cpp finds a value dequeued twice).
      if (desc_[slot].result.load(std::memory_order_seq_cst) != sv) return;
      if (head_.value.load(std::memory_order_seq_cst) != h) return;
      MSQ_PROBE_COUNT("wfq.claim", kCasAttempt);
      if (!bind_.value.compare_and_swap(
              b,
              wf_detail::Binding{
                  h.count(),
                  wf_detail::op_id(wf_detail::phase_of(sv.seq), slot)},
              std::memory_order_seq_cst)) {
        MSQ_COUNT(kCasFail);
      }
    }
    finish_deq(h, next);
  }

  /// True while the bound op still reads {its phase, pending or done}.  An
  /// op that has left both states (empty verdict, harvested, slot reused)
  /// never returns to them, so another op may replace its binding.
  bool bound_op_live(wf_detail::Binding b) const noexcept {
    const std::uint64_t seq =
        desc_[b.op & 0xff].result.load(std::memory_order_seq_cst).seq;
    const std::uint64_t phase = b.op >> 8;
    return seq == wf_detail::make_seq(phase, wf_detail::kPendingDeq) ||
           seq == wf_detail::make_seq(phase, wf_detail::kDoneDeq);
  }

  /// Drive the bound dequeue to completion: deposit the first value into
  /// its announcement, swing Head, free the old dummy.  `h` is a validated
  /// Head read and `next` its successor read while `h` was Head.  Every
  /// mutation is guarded (phase-guarded 16-byte CAS, full-value counted
  /// CAS), so arbitrarily stale callers lose every race harmlessly.
  void finish_deq(tagged::TaggedIndex h, tagged::TaggedIndex next) noexcept {
    const wf_detail::Binding b = bind_.value.load(std::memory_order_seq_cst);
    if (b.head_tag != h.count()) return;  // bound to another Head
    // A thread halted HERE holds a possibly ancient view of Head and the
    // binding; everything below is guarded against that
    // (tests/fault_tolerance_test.cpp parks a victim here and replays the
    // consumed-freed-recycled dummy scenario against it).
    MSQ_PROBE("wfq.finish");
    Descriptor& d = desc_[b.op & 0xff];
    const std::uint64_t phase = b.op >> 8;
    const wf_detail::SeqVal pending{
        wf_detail::make_seq(phase, wf_detail::kPendingDeq), 0};
    if (d.result.load(std::memory_order_seq_cst) == pending) {
      // The bound op was pending after we read the binding, so the binding
      // was still {h.count, op}: no other op can be bound under this tag
      // while the op is pending.  Head equal to `h` NOW proves no swing
      // intervened -- `h` is the live dummy and `next` its successor --
      // and Head stays pinned until the op leaves pending (a swing needs
      // the bound op done), so the value read below is the front value.
      if (head_.value.load(std::memory_order_seq_cst) != h) return;
      const T value = pool_[next.index()].value.get();
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof(T));
      MSQ_PROBE_COUNT("wfq.deposit", kCasAttempt);
      d.result.compare_and_swap(
          pending,
          wf_detail::SeqVal{wf_detail::make_seq(phase, wf_detail::kDoneDeq),
                            bits},
          std::memory_order_seq_cst);
      // Fall through: whoever won the deposit, the swing below applies.
    }
    // Swing Head past the dummy iff the bound op holds this dummy's value.
    // The op was bound while pending after Head reached `h`, and a deposit
    // needs Head equal to the binding's tag, so a done op bound under
    // h.count consumed exactly this incarnation.
    if (d.result.load(std::memory_order_seq_cst).seq ==
        wf_detail::make_seq(phase, wf_detail::kDoneDeq)) {
      MSQ_PROBE("wfq.swing");
      if (head_.value.compare_and_swap(h, h.successor(next.index()),
                                       std::memory_order_seq_cst)) {
        freelist_.free(h.index());
      }
    }
  }

  /// Owner-side epilogue of a successful dequeue: before the slot can be
  /// reused, make sure Head has swung past the consumed dummy and the node
  /// went back to the free list (the one successful counted Head CAS
  /// frees; everyone else fails harmlessly).  While the op reads done the
  /// binding can only move on once Head leaves the bound tag, so a binding
  /// naming another op means the swing already happened.
  void settle_consumed_dummy(std::uint64_t op) noexcept {
    const wf_detail::Binding b = bind_.value.load(std::memory_order_seq_cst);
    if (b.op != op) return;
    for (;;) {
      const tagged::TaggedIndex h = head_.value.load(std::memory_order_acquire);
      if (h.count() != b.head_tag) return;  // already swung (tag monotone)
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
  // The dequeue binding (see header comment); its own line, like Head.
  port::CacheAligned<tagged::AtomicDoubleWord<wf_detail::Binding>> bind_;
  std::array<Descriptor, kSlots> desc_;
};

}  // namespace msq::queues
