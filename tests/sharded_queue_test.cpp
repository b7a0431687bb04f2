// ShardedQueue coverage: the documented contract (docs/ALGORITHMS.md,
// "The sharded queue-of-queues") exercised directly --
//  * per-shard FIFO: each consumer's view of one producer decomposes into
//    at most N increasing runs (patience oracle, tests/sharded_oracle.hpp);
//  * work stealing: a consumer homed elsewhere drains a shard whose own
//    consumer stopped;
//  * conservation: nothing lost or duplicated across 200k MPMC pairs;
//  * the empty snapshot: false from try_dequeue means ALL shards drained,
//    including items sitting in non-home shards, and is exact whenever the
//    caller is the only active thread (its linearizability under concurrent
//    calls is proved in tests/sim_sharded_test.cpp);
//  * producer re-homing off a persistently full shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "fault/watchdog.hpp"
#include "obs/counters.hpp"
#include "queues/queues.hpp"
#include "sharded_oracle.hpp"

namespace msq::queues {
namespace {

template <typename Q>
class ShardedQueueTest : public ::testing::Test {
 protected:
  fault::Watchdog watchdog_{std::chrono::seconds(240), "sharded stress"};
};

using ShardedTypes =
    ::testing::Types<ShardedQueue<MsQueue<std::uint64_t>, 1>,
                     ShardedQueue<MsQueue<std::uint64_t>, 2>,
                     ShardedQueue<MsQueue<std::uint64_t>, 4>,
                     ShardedQueue<SegmentQueue<std::uint64_t>, 2>,
                     ShardedQueue<SegmentQueue<std::uint64_t>, 4>,
                     ShardedQueue<RingQueue<std::uint64_t>, 4>>;
TYPED_TEST_SUITE(ShardedQueueTest, ShardedTypes);

TYPED_TEST(ShardedQueueTest, SequentialOpsAreExactFifoWithinOneThread) {
  // One thread never leaves its home shard (no fulls, no steals), so its
  // own enqueue/dequeue stream is plain FIFO whatever N is.
  TypeParam queue(512);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.try_enqueue(i));
  }
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.try_dequeue(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.try_dequeue(out));
}

TYPED_TEST(ShardedQueueTest, DequeueFindsItemsInNonHomeShards) {
  // The empty-snapshot contract's positive half: false is only allowed
  // when EVERY shard is empty, so an item planted in any single shard --
  // chosen here to be a non-home one when N > 1 -- must be found by the
  // stealing sweep, never skipped.
  constexpr std::uint32_t kN = TypeParam::kShards;
  for (std::uint32_t victim = 0; victim < kN; ++victim) {
    TypeParam queue(512);
    ASSERT_TRUE(queue.unsafe_shard(victim).try_enqueue(41u + victim));
    std::uint64_t out = 0;
    ASSERT_TRUE(queue.try_dequeue(out))
        << "reported empty with an item in shard " << victim;
    EXPECT_EQ(out, 41u + victim);
    EXPECT_FALSE(queue.try_dequeue(out));
  }
}

TYPED_TEST(ShardedQueueTest, StealingDrainsShardWhoseConsumerStopped) {
  // Plant items in every shard, then drain from ONE thread only -- the
  // scenario where all other home consumers have stopped.  The single
  // consumer's sweep must steal everything; with obs armed the cross-shard
  // grabs are visible as shard_steal.
  constexpr std::uint32_t kN = TypeParam::kShards;
  constexpr std::uint64_t kPerShard = 50;
  TypeParam queue(512);
  obs::arm();
  const auto before = obs::snapshot();
  for (std::uint32_t s = 0; s < kN; ++s) {
    for (std::uint64_t i = 0; i < kPerShard; ++i) {
      ASSERT_TRUE(queue.unsafe_shard(s).try_enqueue(
          check::encode_value(s, i)));
    }
  }
  std::vector<std::uint64_t> got;
  std::uint64_t out = 0;
  while (queue.try_dequeue(out)) got.push_back(out);
  obs::disarm();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN) * kPerShard);
  // Each shard's items (tagged by "producer" = shard) came out in order.
  const auto order = check::check_per_shard_fifo(got, 1);
  EXPECT_TRUE(order.ok) << "shard " << order.worst_producer
                        << " needed " << order.runs_needed << " runs";
#if MSQ_OBS
  const auto delta = obs::snapshot() - before;
  if (kN > 1) {
    EXPECT_GT(delta[obs::Counter::kShardSteal], 0u)
        << "single consumer drained " << kN << " shards without stealing";
  } else {
    EXPECT_EQ(delta[obs::Counter::kShardSteal], 0u);
  }
#else
  (void)before;
#endif
}

TYPED_TEST(ShardedQueueTest, NoLossOrDuplicationAcross200kPairs) {
  // 4 threads x 50k enqueue/dequeue pairs = 200k pairs of MPMC churn.
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPairs = 50'000;
  TypeParam queue(1024);
  std::vector<std::vector<std::uint64_t>> popped(kThreads);
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        popped[t].reserve(kPairs + 1);
        for (std::uint64_t i = 0; i < kPairs; ++i) {
          while (!queue.try_enqueue(check::encode_value(t, i))) {
            std::this_thread::yield();
          }
          std::uint64_t out = 0;
          if (queue.try_dequeue(out)) popped[t].push_back(out);
        }
      });
    }
  }
  // Quiescent drain, then the multiset check: every encoded value exactly
  // once.  (Global FIFO is NOT asserted -- that is the contract.)
  std::vector<std::uint64_t> all;
  all.reserve(kThreads * kPairs);
  for (auto& p : popped) all.insert(all.end(), p.begin(), p.end());
  std::uint64_t out = 0;
  while (queue.try_dequeue(out)) all.push_back(out);
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPairs);
  std::sort(all.begin(), all.end());
  for (std::uint32_t t = 0, i = 0; t < kThreads; ++t) {
    for (std::uint64_t s = 0; s < kPairs; ++s, ++i) {
      ASSERT_EQ(all[i], check::encode_value(t, s))
          << "lost or duplicated value near index " << i;
    }
  }
}

TYPED_TEST(ShardedQueueTest, PerShardFifoHoldsPerConsumerUnderMpmcLoad) {
  // Dedicated producers/consumers; each consumer's stream, restricted to
  // one producer, must decompose into <= N increasing runs (that producer
  // used at most N shards; each shard is FIFO; one consumer takes from a
  // shard in order).
  constexpr std::uint32_t kProducers = 2;
  constexpr std::uint32_t kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 30'000;
  TypeParam queue(1024);
  std::vector<std::vector<std::uint64_t>> streams(kConsumers);
  std::atomic<std::uint32_t> producers_left{kProducers};
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          while (!queue.try_enqueue(check::encode_value(p, i))) {
            std::this_thread::yield();
          }
        }
        producers_left.fetch_sub(1);
      });
    }
    for (std::uint32_t c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&, c] {
        auto& stream = streams[c];
        stream.reserve(kPerProducer);
        for (;;) {
          std::uint64_t out = 0;
          if (queue.try_dequeue(out)) {
            stream.push_back(out);
          } else if (producers_left.load() == 0) {
            if (!queue.try_dequeue(out)) break;
            stream.push_back(out);
          }
        }
      });
    }
  }
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < kConsumers; ++c) {
    total += streams[c].size();
    const auto order =
        check::check_per_shard_fifo(streams[c], TypeParam::kShards);
    EXPECT_TRUE(order.ok)
        << "consumer " << c << ": producer " << order.worst_producer
        << "'s items needed " << order.runs_needed << " > "
        << TypeParam::kShards << " FIFO runs";
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kProducers) * kPerProducer);
}

TYPED_TEST(ShardedQueueTest, EmptyIsReportedOnlyWhenAllShardsDrained) {
  // Concurrent churn ending in a quiescent coherent-empty check: the LAST
  // false from the draining consumer (producers finished, no other thread
  // running) must coincide with exact conservation -- a stale false from
  // an incoherent sweep would strand items and fail the count.
  constexpr std::uint64_t kItems = 40'000;
  TypeParam queue(1024);
  obs::arm();
  const auto before = obs::snapshot();
  std::atomic<std::uint64_t> popped{0};
  std::atomic<bool> done{false};
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        while (!queue.try_enqueue(i)) std::this_thread::yield();
      }
      done.store(true);
    });
    for (int c = 0; c < 3; ++c) {
      threads.emplace_back([&] {
        std::uint64_t out = 0;
        for (;;) {
          if (queue.try_dequeue(out)) {
            popped.fetch_add(1, std::memory_order_relaxed);
          } else if (done.load()) {
            // Producer finished BEFORE this empty verdict: the verdict
            // claims all shards were simultaneously empty, so nothing may
            // remain.  One confirming look, then trust it.
            if (!queue.try_dequeue(out)) break;
            popped.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  EXPECT_EQ(popped.load(), kItems) << "empty reported with items stranded";
  std::uint64_t out = 0;
  EXPECT_FALSE(queue.try_dequeue(out));
  obs::disarm();
#if MSQ_OBS
  const auto delta = obs::snapshot() - before;
  // The churn's empty verdicts all passed through the double collect;
  // hits + steals must account for every successful dequeue.
  EXPECT_EQ(delta[obs::Counter::kShardHit] +
                delta[obs::Counter::kShardSteal],
            kItems);
#else
  (void)before;
#endif
}

TEST(ShardedQueueRehomeTest, ProducerRehomesOffPersistentlyFullShard) {
  // Two tiny ring shards: fill until the home shard refuses repeatedly.
  // The producer must keep succeeding by spilling to the other shard and,
  // after kRehomeAfter spills, move its home hint there.
  using Q = ShardedQueue<RingQueue<std::uint64_t>, 2>;
  Q queue(64);  // 32 slots per shard
  obs::arm();
  const auto before = obs::snapshot();
  const std::uint32_t home0 = queue.unsafe_home_shard();
  std::uint64_t accepted = 0;
  while (queue.try_enqueue(accepted)) ++accepted;
  obs::disarm();
  EXPECT_GE(accepted, 64u);  // aggregate capacity all reachable via sweep
  EXPECT_NE(queue.unsafe_home_shard(), home0) << "never re-homed";
#if MSQ_OBS
  const auto delta = obs::snapshot() - before;
  EXPECT_GT(delta[obs::Counter::kShardRehome], 0u);
#else
  (void)before;
#endif
  // Still fully functional: drain everything, exact count.
  std::uint64_t out = 0;
  std::uint64_t drained = 0;
  while (queue.try_dequeue(out)) ++drained;
  EXPECT_EQ(drained, accepted);
}

}  // namespace
}  // namespace msq::queues
