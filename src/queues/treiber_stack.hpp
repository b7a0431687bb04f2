// Treiber's non-blocking stack [21] as a public LIFO container.
//
// Inside the library it is the free list (mem/freelist.hpp); the paper also
// discusses it as the non-blocking *queue* candidate it is not ("Treiber
// presents an algorithm that is non-blocking but inefficient: a dequeue
// operation takes time proportional to the number of the elements in the
// queue" -- that variant dequeued from the far end).  As a stack it is
// simple, fast and non-blocking, so we expose it alongside the queues.
#pragma once

#include <cstdint>
#include <optional>

#include "mem/freelist.hpp"
#include "mem/node_pool.hpp"
#include "mem/value_cell.hpp"
#include "obs/probe.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "sync/backoff.hpp"
#include "tagged/atomic_tagged.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::queues {

template <typename T, typename BackoffPolicy = sync::Backoff>
class TreiberStack {
 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kNonBlocking,
      .mpmc = true,
      .pool_backed = true,
      .linearizable = true,
  };

  /// Nodes recycle through a free list threaded through the same `next`
  /// fields -- a second Treiber stack, exactly as in the queues.
  explicit TreiberStack(std::uint32_t capacity)
      : pool_(capacity), freelist_(pool_) {}

  TreiberStack(const TreiberStack&) = delete;
  TreiberStack& operator=(const TreiberStack&) = delete;

  /// Push; false iff out of nodes.
  bool try_push(T value) noexcept {
    const std::uint32_t node = freelist_.try_allocate();
    if (node == tagged::kNullIndex) return false;
    pool_[node].value.put(value);
    BackoffPolicy backoff;
    for (;;) {
      const tagged::TaggedIndex top = top_.value.load(std::memory_order_acquire);
      pool_[node].next.store(tagged::TaggedIndex(top.index(), 0), std::memory_order_release);
      MSQ_PROBE_COUNT("treiber.push_cas", kCasAttempt);
      if (top_.value.compare_and_swap(top, top.successor(node), std::memory_order_acq_rel)) {
        MSQ_COUNT(kEnqueue);
        return true;
      }
      MSQ_COUNT(kCasFail);
      backoff.pause();
    }
  }

  /// Pop; false iff empty.
  bool try_pop(T& out) noexcept {
    BackoffPolicy backoff;
    for (;;) {
      const tagged::TaggedIndex top = top_.value.load(std::memory_order_acquire);
      if (top.is_null()) {
        MSQ_COUNT(kDequeueEmpty);
        return false;
      }
      const tagged::TaggedIndex next = pool_[top.index()].next.load(std::memory_order_acquire);
      const T value = pool_[top.index()].value.get();  // before CAS, as in D11
      MSQ_PROBE_COUNT("treiber.pop_cas", kCasAttempt);
      if (top_.value.compare_and_swap(top, top.successor(next.index()), std::memory_order_acq_rel)) {
        out = value;
        freelist_.free(top.index());
        MSQ_COUNT(kDequeue);
        return true;
      }
      MSQ_COUNT(kCasFail);
      backoff.pause();
    }
  }

  [[nodiscard]] std::optional<T> try_pop() noexcept {
    T value;
    if (try_pop(value)) return value;
    return std::nullopt;
  }

 private:
  struct Node {
    mem::ValueCell<T> value;
    tagged::AtomicTagged next;
  };

  mem::NodePool<Node> pool_;
  mem::FreeList<Node> freelist_;
  port::CacheAligned<tagged::AtomicTagged> top_;
};

}  // namespace msq::queues
