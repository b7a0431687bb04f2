// The non-blocking concurrent queue of Michael & Scott -- the paper's
// primary contribution (Figure 1), written once over both counted-pointer
// formulations the paper names: "one must either employ a double-word
// compare_and_swap, or else use array indices instead of pointers, so that
// they may share a single word with a counter".
//
//   MsQueue<T>    -- tagged::IndexLink: 32-bit pool index + 32-bit counter
//                    in one 64-bit CAS word (16-byte nodes).
//   MsQueueDw<T>  -- tagged::PointerLink: node pointer + 64-bit counter,
//                    CASed with cmpxchg16b.
//
// Either way the nodes live in a mem::NodePool and recycle through the one
// mem::FreeList, so both share its tag rule, gauge and counters.
//
// Node allocation.  The paper recycles nodes through a Treiber-stack free
// list, which makes its top a second contended word next to Head and Tail:
// every enqueue pops it and every dequeue pushes it.  MsQueue<T> puts
// per-thread magazines (mem::MagazineAllocator<_, 32>) in front of that
// list by default, so a dequeue's freed dummy lands in the caller's
// magazine and comes back out on its next enqueue, and the shared top is
// touched once per 16 allocations.  The paper's layout -- every node
// through the shared top -- is MsQueue<T, sync::Backoff, mem::FreeList>;
// MsQueueDw keeps it too (magazines take index links only).
//
// Structure: a singly-linked list with Head and Tail counted pointers.
// Head always points to a dummy node (the first node in the list); Tail
// points to the last or second-to-last node.  Dequeue ensures Tail never
// points at (or before) a dequeued node, which is what makes immediate
// reuse safe.
//
// Line numbering in comments follows Figure 1 (E1..E13, D1..D15) so the
// implementation can be audited against the paper, and so the liveness
// tests (tests/sim_nonblocking_test.cpp) can speak the same language.
#pragma once

#include <cstdint>
#include <optional>

#include "mem/freelist.hpp"
#include "mem/magazine.hpp"
#include "mem/node_pool.hpp"
#include "mem/value_cell.hpp"
#include "obs/probe.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "sync/backoff.hpp"
#include "tagged/counted_ptr.hpp"

namespace msq::queues {

/// Default node allocator: 32-index magazines over the shared free list
/// (refills and flushes move 16 indices per shared CAS).
template <typename Node>
using MsMagazine = mem::MagazineAllocator<Node, 32>;

/// Lock-free MPMC FIFO queue.  `T` must be trivially copyable and at most
/// 8 bytes (see mem/value_cell.hpp).  `BackoffPolicy` is applied after a
/// failed CAS (sync::NullBackoff disables it for the ablation).  `Alloc`
/// selects the node allocator over one pool: per-thread magazines by
/// default, or mem::FreeList for the paper's layout (the spelling every
/// bench that reproduces the paper names).  `Links` is the counted-link
/// representation (tagged::IndexLink or tagged::PointerLink; the magazine
/// allocator takes index links only, so MsQueueDw names mem::FreeList).
template <typename T, typename BackoffPolicy = sync::Backoff,
          template <typename> class Alloc = MsMagazine,
          typename Links = tagged::IndexLink>
class MsQueue {
 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kNonBlocking,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  /// `capacity` is the maximum number of queued items; one extra node is
  /// reserved for the dummy.
  explicit MsQueue(std::uint32_t capacity)
      : pool_(capacity + 1), alloc_(pool_) {
    // initialize(Q): node = new_node(); node->next.ptr = NULL;
    //                Q->Head = Q->Tail = node
    const Target dummy = alloc_.try_allocate();
    pool_[dummy].next.store(Link{}, std::memory_order_release);
    head_.value.store(Link(dummy, 0), std::memory_order_release);
    tail_.value.store(Link(dummy, 0), std::memory_order_release);
  }

  MsQueue(const MsQueue&) = delete;
  MsQueue& operator=(const MsQueue&) = delete;

  /// enqueue(Q, value).  Returns false iff no node is free: with
  /// mem::FreeList, iff the pool is exhausted; with the magazines, iff
  /// every node is queued or cached in the magazine of a call still in
  /// progress (the allocator sweeps every idle magazine before refusing).
  /// With no other call in progress, a refusal therefore means `capacity`
  /// items are queued.
  bool try_enqueue(T value) noexcept {
    // E1: node = new_node()
    const Target node = alloc_.try_allocate();
    if (node == kNull) return false;
    // E2: node->value = value;  E3: node->next.ptr = NULL
    // The null is COUNTED: preserving and bumping the node's tag keeps its
    // link count monotone across recycles (FreeList::push has the full
    // argument), so a stale E9 CAS against a previous life of this node
    // can never succeed.  The paper's E3 resets the count; with a shared
    // free list that re-exposes old counts and voids the E7/E9 guard.
    pool_[node].value.put(value);
    const Link stale = pool_[node].next.load(std::memory_order_acquire);
    pool_[node].next.store(Link(kNull, stale.count() + 1), std::memory_order_release);

    BackoffPolicy backoff;
    for (;;) {  // E4: repeat
      const Link tail = tail_.value.load(std::memory_order_acquire);       // E5
      const Link next = pool_[tail.target()].next.load(std::memory_order_acquire);  // E6
      if (tail == tail_.value.load(std::memory_order_acquire)) {  // E7: are tail and next consistent?
        if (next.is_null()) {            // E8: was Tail pointing to the last node?
          // E9: try to link node at the end of the linked list
          MSQ_PROBE_COUNT("ms.E9", kCasAttempt);
          if (pool_[tail.target()].next.compare_and_swap(
                  next, next.successor(node), std::memory_order_acq_rel)) {
            // E10: break -- enqueue is done.
            // E13: try to swing Tail to the inserted node.  A thread halted
            // HERE has committed the enqueue but left Tail lagging -- the
            // window the helping paths (E12/D9) exist for.
            MSQ_PROBE("ms.E13");
            tail_.value.compare_and_swap(tail, tail.successor(node), std::memory_order_acq_rel);
            MSQ_COUNT(kEnqueue);
            return true;
          }
          MSQ_COUNT(kCasFail);
          backoff.pause();
        } else {
          // E12: Tail was not pointing to the last node; try to swing it
          tail_.value.compare_and_swap(tail, tail.successor(next.target()), std::memory_order_acq_rel);
        }
      }
    }
  }

  /// dequeue(Q, pvalue): boolean.  Returns false iff the queue was empty.
  bool try_dequeue(T& out) noexcept {
    BackoffPolicy backoff;
    for (;;) {  // D1: repeat
      const Link head = head_.value.load(std::memory_order_acquire);  // D2
      const Link tail = tail_.value.load(std::memory_order_acquire);  // D3
      const Link next = pool_[head.target()].next.load(std::memory_order_acquire);  // D4
      if (head == head_.value.load(std::memory_order_acquire)) {      // D5: consistent?
        if (head.target() == tail.target()) {  // D6: empty or Tail falling behind?
          if (next.is_null()) {                  // D7: is queue empty?
            MSQ_COUNT(kDequeueEmpty);
            return false;                    // D8
          }
          // D9: Tail is falling behind; try to advance it
          tail_.value.compare_and_swap(tail, tail.successor(next.target()), std::memory_order_acq_rel);
        } else {
          // D11: read value before CAS; otherwise another dequeue might
          // free the next node
          const T value = pool_[next.target()].value.get();
          // D12: try to swing Head to the next node
          MSQ_PROBE_COUNT("ms.D12", kCasAttempt);
          if (head_.value.compare_and_swap(head, head.successor(next.target()), std::memory_order_acq_rel)) {
            out = value;                     // (D11's *pvalue assignment)
            alloc_.free(head.target());      // D14: free the old dummy node
            MSQ_COUNT(kDequeue);
            return true;                     // D13 break; D15 return TRUE
          }
          MSQ_COUNT(kCasFail);
          backoff.pause();
        }
      }
    }
  }

  /// Convenience wrapper with optional-return style.
  [[nodiscard]] std::optional<T> try_dequeue() noexcept {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  /// Items the pool can still hold: free nodes in the shared list plus
  /// those cached in magazines no call holds right now (racy snapshot;
  /// tests/metrics only).  Non-const because counting a magazine claims it.
  [[nodiscard]] std::size_t unsafe_free_nodes() noexcept {
    return alloc_.unsafe_size();
  }

  /// Bytes of one pool node (bench/fig_memory: peak_nodes x node_bytes).
  [[nodiscard]] static constexpr std::size_t node_bytes() noexcept {
    return sizeof(Node);
  }

 private:
  struct Node {
    mem::ValueCell<T> value;
    typename Links::template cell<Node> next;
  };
  using Link = typename decltype(Node::next)::value_type;  // counted link value
  using Target = typename Link::target_type;  // pool index or Node*
  static constexpr Target kNull = Link{}.target();

  mem::NodePool<Node> pool_;
  Alloc<Node> alloc_;
  // Head and Tail on separate cache lines: dequeuers and enqueuers must not
  // false-share (the two-lock queue's design rationale applies here too).
  port::CacheAligned<decltype(Node::next)> head_;
  port::CacheAligned<decltype(Node::next)> tail_;
};

/// Figure 1 over 128-bit counted pointers (cmpxchg16b): the paper's
/// double-word-CAS option, otherwise the same queue, pool and free list.
template <typename T, typename BackoffPolicy = sync::Backoff>
using MsQueueDw = MsQueue<T, BackoffPolicy, mem::FreeList, tagged::PointerLink>;

}  // namespace msq::queues
