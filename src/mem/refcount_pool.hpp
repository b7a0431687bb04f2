// Valois's reference-counting memory management for lock-free structures,
// with the corrections of Michael & Scott TR 599 ("Correction of a Memory
// Management Method for Lock-Free Data Structures", Dec 1995).
//
// The scheme (paper section 1): every node carries a reference count that
// reflects the number of links to it -- structure links (Head, Tail, next
// fields) and temporary process-local references.  SafeRead atomically
// increments the count of the node a shared cell points to and re-validates
// the cell; Release decrements and, when the count reaches zero, reclaims
// the node: its own outgoing link is released (recursively) and the node is
// pushed to a free list.  Because a node's count cannot drop to zero while
// any process or link refers to it, freed nodes are never reachable and the
// ABA problem cannot arise -- no modification counters needed.
//
// The TR 599 corrections folded in here:
//  * the count is stored as (count << 1 | claim): DecrementAndTestAndSet
//    atomically moves 1 -> claim so exactly one releaser reclaims a node;
//  * SafeRead increments BEFORE validating and undoes the increment with a
//    full Release on mismatch, so a stale increment of a recycled node is
//    harmless (paired decrement, possible recursive reclaim);
//  * nodes are handed out with count 1 (the allocator's own reference) and
//    the claim bit cleared.
//
// The famous flaw is preserved faithfully (it is the point of experiment
// A4): a delayed process holding one reference pins that node AND, because
// reclamation is what releases a node's next link, every later node -- so a
// bounded queue can exhaust an arbitrarily large pool (the paper ran out of
// 64,000 nodes with a 12-item queue).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "mem/freelist.hpp"
#include "mem/node_pool.hpp"
#include "obs/counters.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::mem {

/// A node managed by RefCountPool: queue nodes derive from it and add their
/// payload.  `next` doubles as the free-list link, exactly as in the MS
/// queues.
struct RcHeader {
  tagged::AtomicTagged next;
  // share-ok: link+refcount packed per node by design (one node, one line)
  std::atomic<std::uint32_t> refct_claim{0};  // (count << 1) | claim
};

template <typename Node>  // Node must derive from RcHeader
class RefCountPool {
 public:
  explicit RefCountPool(std::uint32_t capacity)
      : pool_(capacity), freelist_(pool_) {
    // Free nodes have refct 0|claim.
    for (std::uint32_t i = 0; i < capacity; ++i) {
      // relaxed: construction is single-threaded (proof: test:tests/refcount_pool_test.cpp)
      pool_[i].refct_claim.store(1, std::memory_order_relaxed);  // claimed
    }
  }

  [[nodiscard]] Node& node(std::uint32_t index) noexcept { return pool_[index]; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return pool_.capacity(); }

  /// Allocate a node with reference count 1 (the caller's reference) or
  /// return kNullIndex if the pool is exhausted.
  [[nodiscard]] std::uint32_t try_allocate() noexcept {
    const std::uint32_t index = freelist_.try_allocate();
    if (index == tagged::kNullIndex) return index;
    Node& n = pool_[index];
    n.next.store(tagged::TaggedIndex{}, std::memory_order_release);  // NULL
    // Clear the claim bit and take the allocator's reference in one atomic
    // add (+2 for the reference, -1 for the claim bit).  A plain store
    // would erase increments from concurrent stale SafeReads, which is one
    // of the races TR 599 fixes.
    n.refct_claim.fetch_add(1, std::memory_order_acq_rel);
    return index;
  }

  /// Valois SafeRead: dereference the shared cell `loc` acquiring a counted
  /// reference to the target.  Returns the exact (index, count) value seen
  /// -- callers use it as the `expected` of a subsequent CAS -- or a null
  /// TaggedIndex if the cell was NULL (no reference taken).
  [[nodiscard]] tagged::TaggedIndex safe_read(
      const tagged::AtomicTagged& loc) noexcept {
    for (;;) {
      const tagged::TaggedIndex seen = loc.load(std::memory_order_acquire);
      if (seen.is_null()) return seen;
      add_reference(seen.index());
      // Re-validate: if the cell moved on, our increment may have landed on
      // a recycled node; Release undoes it (and reclaims if we resurrected
      // a dying node).  This re-check is the heart of the TR 599 fix.
      if (loc.load(std::memory_order_acquire) == seen) return seen;
      release(seen.index());
    }
  }

  /// Add a reference for a link about to be installed (CopyRef).
  void add_reference(std::uint32_t index) noexcept {
    pool_[index].refct_claim.fetch_add(2, std::memory_order_acq_rel);
  }

  /// Drop one reference; reclaim the node if we held the last one.
  void release(std::uint32_t index) noexcept {
    if (index == tagged::kNullIndex) return;
    if (decrement_and_test_and_set(pool_[index].refct_claim)) {
      reclaim(index);
    }
  }

  /// Free-list occupancy (racy; for tests and the exhaustion experiment).
  [[nodiscard]] std::size_t unsafe_free_count() const noexcept {
    return freelist_.unsafe_size();
  }

 private:
  /// TR 599 DecrementAndTestAndSet: subtract one reference (2); if the
  /// count hits zero, atomically set the claim bit and report that the
  /// caller must reclaim.  CAS loop because decrement and claim must be one
  /// atomic transition (two bare FAAs could both see zero).
  static bool decrement_and_test_and_set(std::atomic<std::uint32_t>& rc) noexcept {
    // relaxed: optimistic first read; the CAS below validates and orders (proof: mo-sweep:valois.refct_cas)
    std::uint32_t old = rc.load(std::memory_order_relaxed);
    for (;;) {
      assert(old >= 2 && "release without matching reference");
      const std::uint32_t desired = (old == 2) ? 1u : old - 2;
      // relaxed: CAS failure reloads `old` and retries; no payload is read (proof: mo-sweep:valois.refct_cas)
      if (rc.compare_exchange_weak(old, desired, std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
        return old == 2;
      }
    }
  }

  /// Sole owner of a dead node: release its outgoing link, recycle it.
  /// This is where the pinning cascade comes from -- a node that is never
  /// reclaimed never releases its successor.
  void reclaim(std::uint32_t index) noexcept {
    const tagged::TaggedIndex next = pool_[index].next.load(std::memory_order_acquire);
    if (!next.is_null()) release(next.index());
    freelist_.free(index);
  }

  NodePool<Node> pool_;
  FreeList<Node> freelist_;
};

}  // namespace msq::mem
