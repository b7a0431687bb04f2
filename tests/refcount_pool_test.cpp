// Tests for the corrected Valois reference-counting pool (mem/refcount_pool)
// -- including the TR 599 correction scenarios and the pinning cascade that
// makes the scheme impractical (paper section 1).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "mem/refcount_pool.hpp"
#include "tagged/atomic_tagged.hpp"

namespace msq::mem {
namespace {

struct RcNode : RcHeader {
  std::uint64_t payload = 0;
};

TEST(RefCountPool, AllocateHandsOutCountOne) {
  RefCountPool<RcNode> pool(4);
  const std::uint32_t n = pool.try_allocate();
  ASSERT_NE(n, tagged::kNullIndex);
  // (count=1) << 1 | claim=0  ==  2
  EXPECT_EQ(pool.node(n).refct_claim.load(std::memory_order_acquire), 2u);
}

TEST(RefCountPool, ExhaustionReturnsNull) {
  RefCountPool<RcNode> pool(2);
  EXPECT_NE(pool.try_allocate(), tagged::kNullIndex);
  EXPECT_NE(pool.try_allocate(), tagged::kNullIndex);
  EXPECT_EQ(pool.try_allocate(), tagged::kNullIndex);
}

TEST(RefCountPool, ReleaseLastReferenceRecycles) {
  RefCountPool<RcNode> pool(2);
  const std::uint32_t n = pool.try_allocate();
  const std::size_t free_before = pool.unsafe_free_count();
  pool.release(n);
  EXPECT_EQ(pool.unsafe_free_count(), free_before + 1);
  // Claim bit set while parked in the free list.
  EXPECT_EQ(pool.node(n).refct_claim.load(std::memory_order_acquire) & 1u, 1u);
}

TEST(RefCountPool, AddReferenceDefersReclamation) {
  RefCountPool<RcNode> pool(2);
  const std::uint32_t n = pool.try_allocate();
  pool.add_reference(n);  // second holder
  pool.release(n);
  EXPECT_EQ(pool.node(n).refct_claim.load(std::memory_order_acquire), 2u);  // still one ref
  const std::size_t free_before = pool.unsafe_free_count();
  pool.release(n);
  EXPECT_EQ(pool.unsafe_free_count(), free_before + 1);
}

TEST(RefCountPool, SafeReadAcquiresReference) {
  RefCountPool<RcNode> pool(4);
  const std::uint32_t n = pool.try_allocate();
  tagged::AtomicTagged cell;
  cell.store(tagged::TaggedIndex(n, 0), std::memory_order_release);
  const std::uint32_t read = pool.safe_read(cell).index();
  EXPECT_EQ(read, n);
  EXPECT_EQ(pool.node(n).refct_claim.load(std::memory_order_acquire), 4u);  // two refs
  pool.release(n);
  pool.release(n);
}

TEST(RefCountPool, SafeReadOfNullCellIsNull) {
  RefCountPool<RcNode> pool(2);
  tagged::AtomicTagged cell;  // default: NULL
  EXPECT_TRUE(pool.safe_read(cell).is_null());
}

TEST(RefCountPool, SafeReadRetriesWhenCellMoves) {
  // Simulate the stale-read scenario: the cell is redirected between the
  // initial read and validation.  We can't interleave deterministically
  // here (the sim suite does), but we can at least verify the net count is
  // unchanged when safe_read lands on the *new* target.
  RefCountPool<RcNode> pool(4);
  const std::uint32_t a = pool.try_allocate();
  tagged::AtomicTagged cell;
  cell.store(tagged::TaggedIndex(a, 0), std::memory_order_release);
  const std::uint32_t got = pool.safe_read(cell).index();
  EXPECT_EQ(got, a);
  pool.release(a);  // safe_read's reference
  EXPECT_EQ(pool.node(a).refct_claim.load(std::memory_order_acquire), 2u);
  pool.release(a);  // allocation reference
}

TEST(RefCountPool, ReclaimReleasesOutgoingLinkCascade) {
  // Build a -> b through next; releasing a's last reference must also
  // drop a's link reference to b, recycling both.
  RefCountPool<RcNode> pool(4);
  const std::uint32_t a = pool.try_allocate();
  const std::uint32_t b = pool.try_allocate();
  pool.add_reference(b);  // the link a->b
  pool.node(a).next.store(tagged::TaggedIndex(b, 0), std::memory_order_release);
  pool.release(b);  // drop our allocation ref; only the link keeps b alive
  EXPECT_EQ(pool.node(b).refct_claim.load(std::memory_order_acquire), 2u);

  const std::size_t free_before = pool.unsafe_free_count();
  pool.release(a);  // a dies -> link to b released -> b dies too
  EXPECT_EQ(pool.unsafe_free_count(), free_before + 2);
}

TEST(RefCountPool, PinnedNodePinsWholeSuffix) {
  // The paper's impracticality argument: one delayed process holding one
  // reference keeps every successor unreclaimable.
  constexpr std::uint32_t kN = 8;
  RefCountPool<RcNode> pool(kN);
  std::vector<std::uint32_t> chain;
  for (std::uint32_t i = 0; i < 4; ++i) chain.push_back(pool.try_allocate());
  for (std::uint32_t i = 0; i + 1 < chain.size(); ++i) {
    pool.add_reference(chain[i + 1]);
    pool.node(chain[i]).next.store(tagged::TaggedIndex(chain[i + 1], 0), std::memory_order_release);
  }
  // A "delayed process" holds chain[0]; drop all allocation references.
  pool.add_reference(chain[0]);
  for (const std::uint32_t n : chain) pool.release(n);

  // Nothing can be reclaimed: chain[0] is held, and each node's link pins
  // its successor.
  EXPECT_EQ(pool.unsafe_free_count(), kN - chain.size());

  // The delayed process finally releases: the whole chain cascades back.
  pool.release(chain[0]);
  EXPECT_EQ(pool.unsafe_free_count(), kN);
}

TEST(RefCountPool, ConcurrentChurnConservesNodes) {
  constexpr std::uint32_t kN = 32;
  RefCountPool<RcNode> pool(kN);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 20'000; ++i) {
          const std::uint32_t n = pool.try_allocate();
          if (n == tagged::kNullIndex) continue;
          pool.add_reference(n);
          pool.release(n);
          pool.release(n);
        }
      });
    }
  }
  EXPECT_EQ(pool.unsafe_free_count(), kN);
}

TEST(RefCountPool, ConcurrentSafeReadVsRetarget) {
  // Readers safe_read a cell that a writer keeps retargeting between two
  // nodes, releasing the displaced target's link reference each time.  The
  // TR 599 corrections make this safe; count conservation is the oracle.
  RefCountPool<RcNode> pool(8);
  tagged::AtomicTagged cell;
  const std::uint32_t first = pool.try_allocate();
  pool.add_reference(first);  // cell's link
  cell.store(tagged::TaggedIndex(first, 0), std::memory_order_release);
  pool.release(first);  // drop allocation ref; cell holds the node now

  std::atomic<bool> stop{false};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint32_t n = pool.safe_read(cell).index();
          if (n != tagged::kNullIndex) pool.release(n);
        }
      });
    }
    threads.emplace_back([&] {
      for (int i = 0; i < 30'000; ++i) {
        const std::uint32_t fresh = pool.try_allocate();
        if (fresh == tagged::kNullIndex) continue;
        pool.add_reference(fresh);  // the link the cell will hold
        const tagged::TaggedIndex old = cell.load(std::memory_order_acquire);
        cell.store(tagged::TaggedIndex(fresh, old.count() + 1), std::memory_order_release);
        if (!old.is_null()) pool.release(old.index());  // old link ref
        pool.release(fresh);  // allocation ref
      }
      stop.store(true, std::memory_order_release);
    });
  }
  // Tear down: release the cell's final link.
  const tagged::TaggedIndex last = cell.load(std::memory_order_acquire);
  if (!last.is_null()) pool.release(last.index());
  EXPECT_EQ(pool.unsafe_free_count(), 8u);
}

}  // namespace
}  // namespace msq::mem
