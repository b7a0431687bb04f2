// Non-blocking free list: Treiber's stack [21] over pool indices.
//
// Paper, section 2: "We use Treiber's simple and efficient non-blocking
// stack algorithm to implement a non-blocking free list."
//
// The stack links nodes through the same `next` field the queue uses (a
// node is either in the queue or in the free list, never both), and the
// counted top pointer defends against ABA exactly as Head/Tail do.  This is
// the library's one free list: every pool-backed structure allocates here.
//
// Node requirements: a member `next` whose type is a counted-link cell,
// tagged::IndexLink's (entries are pool indices) or tagged::PointerLink's
// (entries are node pointers).  The top uses the same representation.
#pragma once

#include <cstdint>
#include <type_traits>

#include "mem/node_pool.hpp"
#include "obs/counters.hpp"
#include "port/atomic.hpp"
#include "port/cpu.hpp"
#include "tagged/atomic_tagged.hpp"

namespace msq::mem {

template <typename Node>
class FreeList {
  using Cell = decltype(Node::next);
  using Link = typename Cell::value_type;

 public:
  /// A free-list entry: std::uint32_t pool index, or Node* for pointer
  /// links.  kNull is the pool-exhausted answer (kNullIndex / nullptr).
  using Target = typename Link::target_type;
  static constexpr Target kNull = Link{}.target();

  /// Builds a free list containing every node of `pool`.
  explicit FreeList(NodePool<Node>& pool) : pool_(pool) {
    for (std::uint32_t i = 0; i < pool.capacity(); ++i) {
      if constexpr (std::is_pointer_v<Target>) {
        push(&pool[i]);
      } else {
        push(i);
      }
    }
  }

  FreeList(const FreeList&) = delete;
  FreeList& operator=(const FreeList&) = delete;

  /// Pop a node, or kNull if the pool is exhausted.
  /// Lock-free: fails or succeeds in a bounded number of *uncontended*
  /// steps; a retry implies another thread completed a push or pop.
  [[nodiscard]] Target try_allocate() noexcept {
    for (;;) {
      const Link top =
          top_.load(MSQ_MO("fl.pop_top", std::memory_order_acquire));
      if (top.is_null()) {
        MSQ_COUNT(kPoolRefuse);
        return kNull;
      }
      const Link next = pool_[top.target()].next.load(
          MSQ_MO("fl.pop_next", std::memory_order_acquire));
      if (top_.compare_and_swap(
              top, successor(top, next.target()),
              MSQ_MO("fl.pop_cas", std::memory_order_acq_rel))) {
        MSQ_COUNT(kPoolGet);
        MSQ_POOL_GAUGE(1);
        return top.target();
      }
      MSQ_COUNT(kPoolCasRetry);
    }
  }

  /// Pop up to `max` nodes with ONE successful CAS on the shared top
  /// (the magazine refill path).  Returns the number written into `out`.
  ///
  /// Safety of the prefix walk: nodes deeper in the stack can only be popped
  /// after the top node is, and every pop or push moves `top_` -- so if the
  /// final counted CAS succeeds, the prefix we walked was never touched.
  [[nodiscard]] std::uint32_t try_allocate_batch(Target* out,
                                                std::uint32_t max) noexcept {
    for (;;) {
      const Link top = top_.load(std::memory_order_acquire);
      if (top.is_null()) {
        MSQ_COUNT(kPoolRefuse);
        return 0;
      }
      std::uint32_t n = 0;
      Link it = top;
      while (n < max && !it.is_null()) {
        out[n++] = it.target();
        it = pool_[it.target()].next.load(std::memory_order_acquire);
      }
      if (top_.compare_and_swap(top, successor(top, it.target()), std::memory_order_acq_rel)) {
        MSQ_COUNT_N(kPoolGet, n);
        MSQ_POOL_GAUGE(n);
        return n;
      }
      MSQ_COUNT(kPoolCasRetry);
    }
  }

  /// Push a node back.  The node must have come from this pool and must not
  /// be reachable from any shared structure.
  void free(Target node) noexcept {
    MSQ_POOL_GAUGE(-1);
    push(node);
  }

  /// Push a pre-linked chain (head -> ... -> tail through the nodes' `next`
  /// fields, tail's next ignored) with ONE successful CAS -- the magazine
  /// flush path.  The chain must be private to the caller.
  void free_chain(Target head, Target tail) noexcept {
    if (obs::armed()) {
      // Chain length for the pool gauge: the chain is still private to the
      // caller, so the walk is race-free.  Armed-only, like the gauge.
      std::int64_t len = 1;
      for (Target it = head; it != tail;
           it = pool_[it].next.load(std::memory_order_relaxed).target()) {  // relaxed: private chain; see free_chain comment below (proof: mo-sweep:fl.push_link)
        ++len;
      }
      obs::pool_gauge_add(-len);
    }
    // Tag monotonicity (see push): bump the tail's own count; the inner
    // chain links are the caller's writes and must bump likewise.
    // relaxed: the chain is private to the caller until the CAS publishes it (proof: mo-sweep:fl.push_link)
    const auto count = pool_[tail].next.load(std::memory_order_relaxed).count() + 1;
    for (;;) {
      const Link top = top_.load(std::memory_order_acquire);
      pool_[tail].next.store(Link(top.target(), count), std::memory_order_release);
      if (top_.compare_and_swap(top, successor(top, head), std::memory_order_acq_rel)) return;
      MSQ_COUNT(kPoolCasRetry);
    }
  }

  /// Number of nodes currently in the free list.  O(n); for tests and the
  /// memory-exhaustion experiment only -- the count is naturally racy.
  [[nodiscard]] std::size_t unsafe_size() const noexcept {
    std::size_t n = 0;
    for (Link it = top_.load(std::memory_order_acquire); !it.is_null();
         it = pool_[it.target()].next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

 private:
  void push(Target node) noexcept {
    // A node's link tag must stay MONOTONE across its whole lifetime, not
    // just while it sits in one structure: a queue's link CAS validates
    // `next` against a counted value read earlier, and a reset here would
    // let a recycled node re-expose an old count, making an arbitrarily
    // stale link CAS succeed (the fig_stall wedge: a thread that slept
    // between reading tail->next and CASing it linked a freed node).
    // relaxed: the node is private to the caller until the CAS publishes it (proof: mo-sweep:fl.push_link)
    const auto count = pool_[node].next.load(std::memory_order_relaxed).count() + 1;
    for (;;) {
      const Link top = top_.load(std::memory_order_acquire);
      // Link the node above the current top.  The node is private to us
      // here, so a plain store is enough.
      pool_[node].next.store(Link(top.target(), count),
                             MSQ_MO("fl.push_link", std::memory_order_release));
      if (top_.compare_and_swap(
              top, successor(top, node),
              MSQ_MO("fl.push_cas", std::memory_order_acq_rel))) {
        return;
      }
      MSQ_COUNT(kPoolCasRetry);
    }
  }

  /// The top a CAS over `top` installs: `target`, counted one past top.
  /// The "fl.no_count" control keeps top's count, making the top a bare
  /// pointer, which ABA corrupts (paper section 1; tests/sim_aba_test.cpp).
  static Link successor(Link top, Target target) noexcept {
    return MSQ_MUTANT("fl.no_count") ? Link(target, top.count())
                                     : top.successor(target);
  }

  NodePool<Node>& pool_;
  // The hottest word of every pool-backed queue; on its own cache line so
  // allocator traffic never false-shares with the pool reference above.
  alignas(port::kCacheLine) Cell top_;
};

namespace detail {
struct FreeListLayoutProbe {
  tagged::AtomicTagged next;
};
}  // namespace detail
// False-sharing audit: the member alignas must propagate to the whole
// struct (so `top_` starts a fresh line) and pad the tail (so whatever is
// allocated after a FreeList cannot share top_'s line).
static_assert(alignof(FreeList<detail::FreeListLayoutProbe>) >=
                  port::kCacheLine,
              "free-list top must start a cache line of its own");
static_assert(sizeof(FreeList<detail::FreeListLayoutProbe>) %
                      port::kCacheLine ==
                  0,
              "free-list top's cache line must not leak into a neighbour");

}  // namespace msq::mem
