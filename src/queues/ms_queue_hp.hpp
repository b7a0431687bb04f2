// The MS non-blocking queue with hazard-pointer reclamation and heap
// allocation (Michael, "Safe Memory Reclamation for Dynamic Lock-Free
// Objects Using Atomic Reads and Writes" / IEEE TPDS 2004).
//
// This is the paper's algorithm freed from its two 1996-era constraints:
// no counted pointers (plain single-word pointer CAS suffices) and no
// type-stable pool (nodes are new/delete'd).  Two hazard cells per thread:
// hazard 0 protects the Head/Tail node an operation navigates from, hazard
// 1 protects its successor.  A dequeued dummy is retire()d, not freed, and
// is deleted only once no thread's hazard references it -- that is what
// replaces the counted-pointer ABA defence.
//
// Included as the "future work made real" extension; bench/ablate_reclaim
// compares it against the counted-pointer/free-list original.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "mem/hazard.hpp"
#include "obs/counters.hpp"
#include "port/cpu.hpp"
#include "queues/queue_concept.hpp"
#include "sync/backoff.hpp"

namespace msq::queues {

template <typename T, typename BackoffPolicy = sync::Backoff>
class MsQueueHp {
 public:
  using value_type = T;
  static constexpr QueueTraits traits{
      .progress = Progress::kNonBlocking,
      .mpmc = true,
      .pool_backed = false,  // unbounded: heap-allocated nodes
      .linearizable = true,
  };

  /// `capacity` is ignored -- the queue is unbounded -- and accepted only so
  /// MsQueueHp is constructed like every other queue.
  explicit MsQueueHp(std::uint32_t /*capacity*/ = 0)
      : domain_(mem::default_domain()) {
    Node* dummy = new Node{};
    MSQ_POOL_GAUGE(1);
    // relaxed: construction is single-threaded; publication happens when (proof: test:tests/queue_basic_test.cpp)
    // the queue itself is handed to other threads
    head_.value.store(dummy, std::memory_order_relaxed);
    tail_.value.store(dummy, std::memory_order_relaxed);  // relaxed: ^
  }

  ~MsQueueHp() {
    // Single-threaded teardown: free the remaining chain directly.
    // relaxed: no concurrent access can exist during destruction (proof: test:tests/queue_basic_test.cpp)
    Node* node = head_.value.load(std::memory_order_relaxed);
    while (node != nullptr) {
      // relaxed: no concurrent access can exist during destruction (proof: test:tests/queue_basic_test.cpp)
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      MSQ_POOL_GAUGE(-1);
      node = next;
    }
    domain_.scan();  // give back what retire() buffered
  }

  MsQueueHp(const MsQueueHp&) = delete;
  MsQueueHp& operator=(const MsQueueHp&) = delete;

  /// Unbounded: fails only on allocation failure (propagates bad_alloc).
  bool try_enqueue(T value) {
    Node* node = new Node{.value = std::move(value)};
    MSQ_POOL_GAUGE(1);
    BackoffPolicy backoff;
    for (;;) {
      Node* tail = domain_.protect(0, tail_.value);  // E5 + hazard publish
      Node* next = tail->next.load(std::memory_order_acquire);  // E6
      if (tail != tail_.value.load(std::memory_order_acquire)) continue;  // E7
      if (next == nullptr) {  // E8
        Node* expected = nullptr;
        MSQ_COUNT(kCasAttempt);
        // relaxed: E9 failure retries via the acquire loads at E6/E7 (proof: mo-sweep:ms.E9.link_cas)
        if (tail->next.compare_exchange_strong(expected, node,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {  // relaxed: E9 ^
          Node* t = tail;
          // relaxed: E13 failure means someone else swung the tail; done (proof: mo-sweep:ms.E13.tail_swing)
          tail_.value.compare_exchange_strong(t, node,
                                              std::memory_order_release,
                                              std::memory_order_relaxed);  // relaxed: E13 ^
          domain_.clear_hazard(0);
          MSQ_COUNT(kEnqueue);
          return true;
        }
        MSQ_COUNT(kCasFail);
        backoff.pause();
      } else {
        Node* t = tail;
        // relaxed: helping CAS; failure means the help already happened (proof: mo-sweep:ms.E12.tail_help)
        tail_.value.compare_exchange_strong(t, next, std::memory_order_release,
                                            std::memory_order_relaxed);  // E12
      }
    }
  }

  bool try_dequeue(T& out) {
    BackoffPolicy backoff;
    for (;;) {
      Node* head = domain_.protect(0, head_.value);            // D2
      Node* tail = tail_.value.load(std::memory_order_acquire);  // D3
      Node* next = domain_.protect(1, head->next);             // D4
      if (head != head_.value.load(std::memory_order_acquire)) continue;  // D5
      if (head == tail) {                                      // D6
        if (next == nullptr) {                                 // D7
          clear_hazards();
          MSQ_COUNT(kDequeueEmpty);
          return false;                                        // D8
        }
        Node* t = tail;
        // relaxed: helping CAS; failure means the help already happened (proof: mo-sweep:ms.D9.tail_help)
        tail_.value.compare_exchange_strong(t, next, std::memory_order_release,
                                            std::memory_order_relaxed);  // D9
      } else {
        // D11: copy (not move) -- concurrent losing dequeuers may read the
        // same node, which their hazards keep alive.
        const T value = next->value;
        Node* h = head;
        MSQ_COUNT(kCasAttempt);
        // relaxed: D12 failure retries via the acquire loads at D3/D5 (proof: mo-sweep:ms.D12.head_swing)
        if (head_.value.compare_exchange_strong(h, next,
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {  // relaxed: D12 ^
          out = value;
          clear_hazards();
          // D14: deferred free replaces the free list.  The gauge decrement
          // rides in the deleter, not here: a retired-but-unreclaimed node
          // is still resident (the limbo population the memory bench puts
          // next to the pool-backed queues' bounded footprints).
          domain_.retire(head, [](void* p) {
            delete static_cast<Node*>(p);
            MSQ_POOL_GAUGE(-1);
          });
          MSQ_COUNT(kDequeue);
          return true;
        }
        MSQ_COUNT(kCasFail);
        backoff.pause();
      }
    }
  }

  [[nodiscard]] std::optional<T> try_dequeue() {
    T value;
    if (try_dequeue(value)) return value;
    return std::nullopt;
  }

  /// Bytes of one heap node (bench/fig_memory: peak_nodes x node_bytes).
  [[nodiscard]] static constexpr std::size_t node_bytes() noexcept {
    return sizeof(Node);
  }

 private:
  struct Node {
    T value{};
    // share-ok: value+link packed in one node by design (one node, one line)
    std::atomic<Node*> next{nullptr};
  };

  void clear_hazards() noexcept {
    domain_.clear_hazard(0);
    domain_.clear_hazard(1);
  }

  mem::HazardDomain& domain_;
  port::CacheAligned<std::atomic<Node*>> head_;
  port::CacheAligned<std::atomic<Node*>> tail_;
};

}  // namespace msq::queues
