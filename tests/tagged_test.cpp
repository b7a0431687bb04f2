// Unit tests for the counted-pointer substrate (tagged/).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "tagged/atomic_tagged.hpp"
#include "tagged/counted_ptr.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::tagged {
namespace {

TEST(TaggedIndex, DefaultIsNullWithZeroCount) {
  const TaggedIndex t;
  EXPECT_TRUE(t.is_null());
  EXPECT_EQ(t.index(), kNullIndex);
  EXPECT_EQ(t.count(), 0u);
}

TEST(TaggedIndex, PacksIndexAndCount) {
  const TaggedIndex t(42, 7);
  EXPECT_EQ(t.index(), 42u);
  EXPECT_EQ(t.count(), 7u);
  EXPECT_FALSE(t.is_null());
}

TEST(TaggedIndex, SuccessorBumpsCounterAndRetargets) {
  const TaggedIndex t(5, 100);
  const TaggedIndex s = t.successor(9);
  EXPECT_EQ(s.index(), 9u);
  EXPECT_EQ(s.count(), 101u);
}

TEST(TaggedIndex, CounterWrapsAround) {
  const TaggedIndex t(1, 0xFFFFFFFFu);
  EXPECT_EQ(t.successor(1).count(), 0u);  // modular, like the paper's counter
}

TEST(TaggedIndex, EqualityIncludesCount) {
  EXPECT_EQ(TaggedIndex(3, 4), TaggedIndex(3, 4));
  EXPECT_NE(TaggedIndex(3, 4), TaggedIndex(3, 5));  // same node, later time
  EXPECT_NE(TaggedIndex(3, 4), TaggedIndex(2, 4));
}

TEST(TaggedIndex, BitsRoundTrip) {
  const TaggedIndex t(123456, 654321);
  EXPECT_EQ(TaggedIndex::from_bits(t.bits()), t);
}

TEST(AtomicTagged, LoadStoreRoundTrip) {
  AtomicTagged cell;
  EXPECT_TRUE(cell.load(std::memory_order_acquire).is_null());
  cell.store(TaggedIndex(8, 2), std::memory_order_release);
  EXPECT_EQ(cell.load(std::memory_order_acquire), TaggedIndex(8, 2));
}

TEST(AtomicTagged, CasSucceedsOnExactMatch) {
  AtomicTagged cell{TaggedIndex(1, 1)};
  EXPECT_TRUE(cell.compare_and_swap(TaggedIndex(1, 1), TaggedIndex(2, 2), std::memory_order_acq_rel));
  EXPECT_EQ(cell.load(std::memory_order_acquire), TaggedIndex(2, 2));
}

TEST(AtomicTagged, CasFailsOnStaleCount) {
  // The ABA defence: same index, older count, must fail.
  AtomicTagged cell{TaggedIndex(1, 5)};
  EXPECT_FALSE(cell.compare_and_swap(TaggedIndex(1, 4), TaggedIndex(2, 6), std::memory_order_acq_rel));
  EXPECT_EQ(cell.load(std::memory_order_acquire), TaggedIndex(1, 5));
}

TEST(AtomicTagged, ConcurrentCasGrantsExactlyOneWinnerPerValue) {
  AtomicTagged cell{TaggedIndex(0, 0)};
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20'000;
  std::vector<std::jthread> threads;
  std::atomic<std::uint64_t> wins{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          const TaggedIndex cur = cell.load(std::memory_order_acquire);
          if (cell.compare_and_swap(cur, cur.successor(cur.index() + 1), std::memory_order_acq_rel)) {
            wins.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  threads.clear();
  EXPECT_EQ(wins.load(std::memory_order_acquire), kThreads * kIncrements);
  // Every successful CAS bumped the counter exactly once.
  EXPECT_EQ(cell.load(std::memory_order_acquire).count(), static_cast<std::uint32_t>(kThreads * kIncrements));
  EXPECT_EQ(cell.load(std::memory_order_acquire).index(), static_cast<std::uint32_t>(kThreads * kIncrements));
}

struct Dummy {
  int payload;
};

TEST(CountedPtr, DefaultIsNull) {
  const CountedPtr<Dummy> p;
  EXPECT_TRUE(p.is_null());
  EXPECT_EQ(p.target(), nullptr);
  EXPECT_EQ(p.count(), 0u);
}

TEST(CountedPtr, NullKeepsItsCount) {
  // The counted null a recycled node's E3 installs (same as TaggedIndex).
  const CountedPtr<Dummy> p(nullptr, 5);
  EXPECT_TRUE(p.is_null());
  EXPECT_EQ(p.count(), 5u);
  EXPECT_NE(p, CountedPtr<Dummy>{});
}

TEST(CountedPtr, SuccessorBumpsCount) {
  Dummy d{1};
  const CountedPtr<Dummy> p{&d, 41};
  const CountedPtr<Dummy> s = p.successor(nullptr);
  EXPECT_EQ(s.target(), nullptr);
  EXPECT_EQ(s.count(), 42u);
}

using Cell = AtomicDoubleWord<CountedPtr<Dummy>>;

TEST(AtomicCountedPtr, LoadStoreRoundTrip) {
  Dummy d{7};
  Cell cell;
  EXPECT_EQ(cell.load(std::memory_order_acquire).target(), nullptr);
  cell.store({&d, 3}, std::memory_order_release);
  EXPECT_EQ(cell.load(std::memory_order_acquire).target(), &d);
  EXPECT_EQ(cell.load(std::memory_order_acquire).count(), 3u);
}

TEST(AtomicCountedPtr, CasIsCountSensitive) {
  Dummy a{0}, b{1};
  Cell cell{{&a, 10}};
  EXPECT_FALSE(cell.compare_and_swap({&a, 9}, {&b, 10}, std::memory_order_acq_rel));   // stale count
  EXPECT_TRUE(cell.compare_and_swap({&a, 10}, {&b, 11}, std::memory_order_acq_rel));
  EXPECT_EQ(cell.load(std::memory_order_acquire).target(), &b);
}

// compare_exchange hands back what it found, so a caller can seed it with
// a stale or torn load_halves() guess and retry; word(i) reaches one half
// alone (CountedPtr keeps its pointer in word 0, its count in word 1).
TEST(AtomicCountedPtr, CompareExchangeReportsTheValueFound) {
  Dummy a{0}, b{1};
  Cell cell{{&a, 10}};
  CountedPtr<Dummy> guess{&a, 9};  // stale count
  EXPECT_FALSE(cell.compare_exchange(guess, {&b, 11}, std::memory_order_acq_rel));
  EXPECT_EQ(guess, (CountedPtr<Dummy>{&a, 10}));
  EXPECT_TRUE(cell.compare_exchange(guess, {&b, 11}, std::memory_order_acq_rel));
  EXPECT_EQ(cell.load_halves(std::memory_order_acquire), (CountedPtr<Dummy>{&b, 11}));
  EXPECT_EQ(cell.word(1).fetch_add(1, std::memory_order_acq_rel), 11u);
  EXPECT_EQ(cell.load(std::memory_order_acquire).count(), 12u);
}

TEST(AtomicCountedPtr, ConcurrentCountMonotonicity) {
  Cell cell{{nullptr, 0}};
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10'000;
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          const CountedPtr<Dummy> cur = cell.load(std::memory_order_acquire);
          if (cell.compare_and_swap(cur, cur.successor(cur.target()), std::memory_order_acq_rel)) break;
        }
      }
    });
  }
  threads.clear();
  EXPECT_EQ(cell.load(std::memory_order_acquire).count(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

// store() racing load(): load() is CAS(0, 0), which WRITES whenever the
// cell holds the all-zero value, so store() must seed its CAS loop with an
// atomic read too.  A plain seed read is a data race that a
// -DMSQ_SANITIZE_THREAD=ON build reports here; in any build, every
// snapshot must be a whole stored value, never a torn mix.
TEST(AtomicCountedPtr, StoreRacingLoadIsAtomic) {
  Dummy d{3};
  Cell cell;
  std::atomic<bool> done{false};
  std::jthread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const CountedPtr<Dummy> seen = cell.load(std::memory_order_acquire);
      if (seen.is_null()) {
        EXPECT_EQ(seen.count(), 0u);
      } else {
        EXPECT_EQ(seen.target(), &d);
        EXPECT_EQ(seen.count() % 2, 1u);
      }
    }
  });
  constexpr std::uint64_t kStores = 20'000;
  for (std::uint64_t i = 1; i <= kStores; ++i) {
    // Odd stores install {&d, i}; even stores the all-zero value the
    // reader's CAS(0, 0) then overwrites with itself.
    cell.store(i % 2 == 1 ? CountedPtr<Dummy>{&d, i} : CountedPtr<Dummy>{},
               std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
}

}  // namespace
}  // namespace msq::tagged
