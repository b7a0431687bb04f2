// Valois's list-based non-blocking queue [23,24], with the TR 599
// corrections to its reference-counting memory management (see
// mem/refcount_pool.hpp) -- the paper's "comparatively inefficient
// non-blocking algorithm [that] can outperform blocking algorithms" on
// multiprogrammed systems.
//
// Structure (paper section 1): a singly-linked list with a dummy node at
// the head, like the MS queue (Valois is where the dummy-node technique
// comes from, crediting Sites).  Two deliberate differences from MS:
//
//  1. Reclamation by per-node reference counts instead of counted pointers +
//     free list.  SafeRead/Release bracket every shared-pointer traversal.
//     Nodes are freed only when no link or process references them -- which
//     prevents ABA, but lets one delayed process pin an unbounded suffix of
//     dequeued nodes (each unreclaimed node's outgoing link keeps its
//     successor alive).  bench/fig_memory --only valois reproduces the paper's
//     exhaustion experiment ("we ran out of memory several times ... using a
//     free list initialized with 64,000 nodes" with a <= 12-item queue).
//
//  2. "The algorithm allows the tail pointer to lag behind the head
//     pointer": the Tail swing after linking is a single CAS attempt, and
//     dequeuers never help Tail, so Tail can point at dequeued (but pinned)
//     nodes.  Reference counts are exactly what makes that lag safe.
#pragma once

#include <cstdint>
#include <optional>

#include "mem/refcount_pool.hpp"
#include "mem/value_cell.hpp"
#include "obs/probe.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "sync/backoff.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {

template <typename T, typename BackoffPolicy = sync::Backoff>
class ValoisQueue {
 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kNonBlocking,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  explicit ValoisQueue(std::uint32_t capacity) : pool_(capacity + 1) {
    const std::uint32_t dummy = pool_.try_allocate();  // count 1 (ours)
    pool_.add_reference(dummy);  // Head's link
    pool_.add_reference(dummy);  // Tail's link
    head_.value.store(tagged::TaggedIndex(dummy, 0), std::memory_order_release);
    tail_.value.store(tagged::TaggedIndex(dummy, 0), std::memory_order_release);
    pool_.release(dummy);  // drop the allocation reference
  }

  ~ValoisQueue() {
    // Drain, then drop the structure's own references so every node returns
    // to the free list (keeps the leak checkers honest).  Tail may still
    // lag behind Head (it holds its own reference wherever it points);
    // releasing each target once cascades the whole remaining chain.
    T sink;
    while (try_dequeue(sink)) {
    }
    const tagged::TaggedIndex head = head_.value.load(std::memory_order_acquire);
    const tagged::TaggedIndex tail = tail_.value.load(std::memory_order_acquire);
    pool_.release(tail.index());  // Tail's link (possibly a lagging node)
    pool_.release(head.index());  // Head's link (the final dummy)
  }

  ValoisQueue(const ValoisQueue&) = delete;
  ValoisQueue& operator=(const ValoisQueue&) = delete;

  bool try_enqueue(T value) noexcept {
    const std::uint32_t node = pool_.try_allocate();  // count 1 (ours)
    if (node == tagged::kNullIndex) return false;
    pool_.node(node).value.put(value);

    BackoffPolicy backoff;
    for (;;) {
      const tagged::TaggedIndex tail = pool_.safe_read(tail_.value);
      const tagged::TaggedIndex next = pool_.node(tail.index()).next.load(std::memory_order_acquire);
      if (next.is_null()) {
        MSQ_COUNT(kCasAttempt);
        if (rc_cas(pool_.node(tail.index()).next, next, node)) {
          // Linked.  Single attempt to swing Tail (may fail: Tail lags).
          MSQ_PROBE("valois.link");
          rc_cas(tail_.value, tail, node);
          pool_.release(tail.index());  // SafeRead reference
          MSQ_COUNT(kEnqueue);
          break;
        }
        MSQ_COUNT(kCasFail);
        backoff.pause();
      } else {
        // Tail is lagging; help it forward one node.  `next` cannot be
        // reclaimed here: the live node `tail` holds a link reference to it.
        rc_cas(tail_.value, tail, next.index());
      }
      pool_.release(tail.index());
    }
    pool_.release(node);  // drop the allocation reference; links own it now
    return true;
  }

  bool try_dequeue(T& out) noexcept {
    BackoffPolicy backoff;
    for (;;) {
      const tagged::TaggedIndex head = pool_.safe_read(head_.value);
      const tagged::TaggedIndex first =
          pool_.safe_read(pool_.node(head.index()).next);
      if (first.is_null()) {
        pool_.release(head.index());
        MSQ_COUNT(kDequeueEmpty);
        return false;  // empty
      }
      MSQ_COUNT(kCasAttempt);
      if (rc_cas(head_.value, head, first.index())) {
        // We hold a SafeRead reference on `first`, so its value is stable
        // even though it is now the dummy and other dequeues proceed.
        out = pool_.node(first.index()).value.get();
        pool_.release(head.index());   // SafeRead ref; may trigger reclaim
        pool_.release(first.index());  // SafeRead ref
        MSQ_COUNT(kDequeue);
        return true;
      }
      MSQ_COUNT(kCasFail);
      pool_.release(head.index());
      pool_.release(first.index());
      backoff.pause();
    }
  }

  [[nodiscard]] std::optional<T> try_dequeue() noexcept {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  struct Node : mem::RcHeader {
    mem::ValueCell<T> value;
  };

  /// Nodes currently in the free list (racy; exhaustion experiment).
  [[nodiscard]] std::size_t unsafe_free_nodes() const noexcept {
    return pool_.unsafe_free_count();
  }

  /// Pool handle for tests that need to hold references like a "delayed
  /// process" (the exhaustion scenario).
  [[nodiscard]] mem::RefCountPool<Node>& pool() noexcept { return pool_; }
  [[nodiscard]] const tagged::AtomicTagged& head_cell() const noexcept {
    return head_.value;
  }

  /// Bytes of one pool node (bench/fig_memory: peak_nodes x node_bytes).
  [[nodiscard]] static constexpr std::size_t node_bytes() noexcept {
    return sizeof(Node);
  }

 private:
  /// CAS a shared link cell with reference-count bookkeeping: the new
  /// target's reference is taken before the CAS and returned on failure;
  /// the old target's reference is dropped on success (CopyRef/Release
  /// discipline of the corrected Valois scheme).
  bool rc_cas(tagged::AtomicTagged& cell, tagged::TaggedIndex expected,
              std::uint32_t new_index) noexcept {
    pool_.add_reference(new_index);
    if (cell.compare_and_swap(expected, expected.successor(new_index), std::memory_order_acq_rel)) {
      if (!expected.is_null()) pool_.release(expected.index());
      return true;
    }
    pool_.release(new_index);
    return false;
  }

  mem::RefCountPool<Node> pool_;
  port::CacheAligned<tagged::AtomicTagged> head_;
  port::CacheAligned<tagged::AtomicTagged> tail_;
};

}  // namespace msq::queues
