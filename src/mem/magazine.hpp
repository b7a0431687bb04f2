// Per-thread magazines over the Treiber free list (Bonwick-style, scaled
// down to pool indices).
//
// The paper's section 4 cost model counts contended cache-line transfers;
// for every pool-backed queue the free-list top is a *second* contended
// line besides Head/Tail -- each enqueue pops it, each dequeue pushes it.
// A magazine is a small thread-local cache of node indices refilled and
// flushed in batches, so the shared top is touched once per kCap/2
// operations instead of once per operation (obs: mag_hit vs pool_cas_retry
// quantify the saving; see EXPERIMENTS.md, magazine ablation).
//
// Ownership discipline: magazines live in a small fixed array of slots,
// each claimed per *call* with a CAS on its busy flag (probe starts at the
// thread's ordinal, so the common case is an uncontended re-claim of "your"
// slot).  Claim-per-call instead of claim-per-thread sidesteps thread-exit
// reclamation entirely: a slot is never orphaned, its contents never leak.
//
// Exhaustion: a refused allocation must mean the pool is *really* empty,
// not that free nodes are snoozing in other threads' magazines (that both
// breaks pool_exhaustion determinism and can deadlock a producer while a
// consumer hoards).  So the allocate slow path sweeps every unclaimed
// magazine back into the shared list before refusing -- cached capacity is
// only ever invisible to a thread while another call is mid-flight.
//
// Drop-in for FreeList: same constructor shape, try_allocate()/free().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "mem/freelist.hpp"
#include "mem/node_pool.hpp"
#include "obs/counters.hpp"
#include "port/cpu.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::mem {

/// `kCap` is the magazine size: refills pop kCap/2 indices with one shared
/// CAS, flushes push kCap/2 back with one shared CAS.  Node needs a `next`
/// member of type tagged::AtomicTagged (FreeList's contract, index links only).
template <typename Node, std::uint32_t kCap = 32>
class MagazineAllocator {
  static_assert(kCap >= 2 && kCap % 2 == 0, "kCap must be even");

 public:
  explicit MagazineAllocator(NodePool<Node>& pool)
      : pool_(pool), list_(pool) {}

  MagazineAllocator(const MagazineAllocator&) = delete;
  MagazineAllocator& operator=(const MagazineAllocator&) = delete;

  /// Pop a node index, or kNullIndex only when pool capacity is truly
  /// exhausted (magazines of non-mid-flight calls included, see sweep).
  [[nodiscard]] std::uint32_t try_allocate() noexcept {
    if (Slot* s = try_claim()) {
      if (s->count > 0) {
        const std::uint32_t idx = s->items[--s->count];
        release(s);
        MSQ_COUNT(kMagHit);
        return idx;
      }
      const std::uint32_t got = list_.try_allocate_batch(s->items.data(), kCap / 2);
      if (got > 0) {
        MSQ_COUNT(kMagRefill);
        const std::uint32_t idx = s->items[got - 1];
        s->count = got - 1;
        release(s);
        return idx;
      }
      release(s);
    } else {
      // Every slot is mid-operation under heavy contention: take the
      // shared-list fast path rather than spinning on busy flags.
      const std::uint32_t idx = list_.try_allocate();
      if (idx != tagged::kNullIndex) return idx;
    }
    flush_all();
    return list_.try_allocate();
  }

  /// Push a node back.  Same contract as FreeList::free.
  void free(std::uint32_t index) noexcept {
    Slot* s = try_claim();
    if (s == nullptr) {
      list_.free(index);
      return;
    }
    if (s->count == kCap) flush_half(*s);
    s->items[s->count++] = index;
    release(s);
  }

  /// Sweep every unclaimed magazine back into the shared free list (the
  /// exhaustion path above, quiescent teardown, and the ablation's
  /// magazines-off baseline measurements).
  void flush_all() noexcept {
    for (Slot& s : slots_) {
      std::uint32_t expected = 0;
      if (!s.busy.compare_exchange_strong(expected, 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        continue;
      }
      if (s.count > 0) flush(s, /*keep=*/0);
      release(&s);
    }
  }

  /// Free nodes visible right now: shared list + unclaimed magazines.
  /// Racy by nature; tests-only, like FreeList::unsafe_size.
  [[nodiscard]] std::size_t unsafe_size() noexcept {
    std::size_t n = list_.unsafe_size();
    for (Slot& s : slots_) {
      std::uint32_t expected = 0;
      if (s.busy.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        n += s.count;
        release(&s);
      }
    }
    return n;
  }

  /// The shared list underneath (ablation baselines allocate through it
  /// directly to measure the no-magazine contention).
  [[nodiscard]] FreeList<Node>& shared() noexcept { return list_; }

 private:
  struct alignas(port::kCacheLine) Slot {
    // share-ok: claim flag; the slot body below it is only touched while
    // claimed, and each slot owns a full cache line
    std::atomic<std::uint32_t> busy{0};
    std::uint32_t count = 0;
    std::array<std::uint32_t, kCap> items{};
  };

  static constexpr std::uint32_t kMagazines = 16;  // power of two (probe mask)

  /// Probe from the thread's ordinal; first successful busy-CAS wins the
  /// slot exclusively until release().  nullptr when all are mid-flight.
  [[nodiscard]] Slot* try_claim() noexcept {
    const std::uint32_t start = port::thread_ordinal();
    for (std::uint32_t i = 0; i < kMagazines; ++i) {
      Slot& s = slots_[(start + i) & (kMagazines - 1)];
      std::uint32_t expected = 0;
      if (s.busy.compare_exchange_strong(expected, 1,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return &s;
      }
    }
    return nullptr;
  }

  void release(Slot* s) noexcept {
    s->busy.store(0, std::memory_order_release);
  }

  /// Flush all but `keep` items as one pre-linked chain: one shared CAS.
  void flush(Slot& s, std::uint32_t keep) noexcept {
    for (std::uint32_t i = keep; i + 1 < s.count; ++i) {
      // Tag monotonicity (FreeList::push): every link write over a node's
      // lifetime bumps its count, or recycling would replay old counts.
      // relaxed: the chain is private to this slot until free_chain's CAS (proof: test:tests/mem_test.cpp)
      auto& next = pool_[s.items[i]].next;
      const std::uint32_t c = next.load(std::memory_order_relaxed).count() + 1;
      next.store(tagged::TaggedIndex(s.items[i + 1], c),
                 std::memory_order_release);
    }
    list_.free_chain(s.items[keep], s.items[s.count - 1]);
    s.count = keep;
    MSQ_COUNT(kMagFlush);
  }

  void flush_half(Slot& s) noexcept { flush(s, kCap / 2); }

  NodePool<Node>& pool_;
  FreeList<Node> list_;
  std::array<Slot, kMagazines> slots_{};
};

}  // namespace msq::mem
