// Linearizability tests against real-thread executions (paper section 3.2).
//
// Small histories (few threads x few ops, repeated across many seeds/runs)
// are decided EXACTLY with the Wing-Gong checker; large stress histories are
// screened with the scalable real-time FIFO-order checker.  Both run typed
// over every globally-FIFO queue family (queues::FifoFamilies).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "check/invariants.hpp"
#include "check/lin_check.hpp"
#include "port/clock.hpp"
#include "queue_families.hpp"
#include "queues/queues.hpp"
#include "sharded_oracle.hpp"

namespace msq::queues {
namespace {

template <typename Q>
class QueueLinearizabilityTest : public ::testing::Test {};

TYPED_TEST_SUITE(QueueLinearizabilityTest, FamilyTypes<FifoFamilies>,
                 FamilyNames<FifoFamilies>);

TYPED_TEST(QueueLinearizabilityTest, SmallHistoriesAreExactlyLinearizable) {
  // 3 threads x 4 ops = <= 24 events per round; 50 rounds of real-thread
  // interleavings (parallel where there are cores, preempted otherwise).
  constexpr int kRounds = 50;
  constexpr std::uint32_t kThreads = 3;
  for (int round = 0; round < kRounds; ++round) {
    TypeParam queue(64);
    std::vector<check::ThreadLog> logs;
    for (std::uint32_t t = 0; t < kThreads; ++t) logs.emplace_back(t);
    {
      std::vector<std::jthread> threads;
      for (std::uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          check::ThreadLog& log = logs[t];
          for (std::uint64_t i = 0; i < 2; ++i) {
            const std::uint64_t v = check::encode_value(t, i);
            std::int64_t inv = port::now_ns();
            while (!queue.try_enqueue(v)) {
              std::this_thread::yield();
            }
            log.record(check::OpKind::kEnqueue, v, inv, port::now_ns());
            std::uint64_t out = 0;
            inv = port::now_ns();
            const bool ok = queue.try_dequeue(out);
            log.record(ok ? check::OpKind::kDequeue
                          : check::OpKind::kDequeueEmpty,
                       out, inv, port::now_ns());
          }
        });
      }
    }
    const auto history = check::merge_logs(logs);
    const auto result = check::check_linearizable_exact(history);
    ASSERT_TRUE(result.ok) << "round " << round << ": " << result.diagnosis;
  }
}

TYPED_TEST(QueueLinearizabilityTest, LargeHistorySatisfiesRealTimeFifoOrder) {
  TypeParam queue(512);
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPairs = 15'000;
  std::vector<check::ThreadLog> logs;
  for (std::uint32_t t = 0; t < kThreads; ++t) logs.emplace_back(t);
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        check::ThreadLog& log = logs[t];
        log.reserve(2 * kPairs);
        for (std::uint64_t i = 0; i < kPairs; ++i) {
          const std::uint64_t v = check::encode_value(t, i);
          std::int64_t inv = port::now_ns();
          while (!queue.try_enqueue(v)) {
            std::this_thread::yield();
          }
          log.record(check::OpKind::kEnqueue, v, inv, port::now_ns());
          std::uint64_t out = 0;
          inv = port::now_ns();
          if (queue.try_dequeue(out)) {
            log.record(check::OpKind::kDequeue, out, inv, port::now_ns());
          }
        }
      });
    }
  }
  // Drain what the paired loop left behind.
  {
    check::ThreadLog drain(kThreads);
    std::uint64_t out = 0;
    const std::int64_t inv = port::now_ns();
    while (queue.try_dequeue(out)) {
      drain.record(check::OpKind::kDequeue, out, inv, port::now_ns());
    }
    logs.push_back(drain);
  }
  const auto history = check::merge_logs(logs);
  const auto result = check::check_fifo_order(history);
  EXPECT_TRUE(result.ok) << result.diagnosis;
}

// Multi-shard configurations are deliberately NOT globally FIFO, so they
// get the per-shard-FIFO oracle instead of check_fifo_order: conservation
// over the merged history stays mandatory, and each consumer's view of
// each producer must decompose into at most N FIFO runs.
template <typename Q>
void sharded_history_satisfies_per_shard_fifo() {
  Q queue(512);
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPairs = 15'000;
  std::vector<std::vector<std::uint64_t>> streams(kThreads + 1);
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        streams[t].reserve(kPairs);
        for (std::uint64_t i = 0; i < kPairs; ++i) {
          while (!queue.try_enqueue(check::encode_value(t, i))) {
            std::this_thread::yield();
          }
          std::uint64_t out = 0;
          if (queue.try_dequeue(out)) streams[t].push_back(out);
        }
      });
    }
  }
  std::uint64_t out = 0;
  while (queue.try_dequeue(out)) streams[kThreads].push_back(out);

  // Conservation: exactly kThreads * kPairs distinct values, each once.
  std::vector<std::uint64_t> all;
  for (const auto& s : streams) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPairs);
  ASSERT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
      << "duplicate value dequeued";
  // Per-consumer, per-producer: at most N FIFO runs.
  for (std::size_t c = 0; c < streams.size(); ++c) {
    const auto order = check::check_per_shard_fifo(streams[c], Q::kShards);
    EXPECT_TRUE(order.ok)
        << "consumer " << c << ": producer " << order.worst_producer
        << " needed " << order.runs_needed << " > " << Q::kShards << " runs";
  }
}

TEST(ShardedLinearizabilityTest, MsShardsHoldPerShardFifoContract) {
  sharded_history_satisfies_per_shard_fifo<
      ShardedQueue<MsQueue<std::uint64_t>, 4>>();
}

TEST(ShardedLinearizabilityTest, SegmentShardsHoldPerShardFifoContract) {
  sharded_history_satisfies_per_shard_fifo<
      ShardedQueue<SegmentQueue<std::uint64_t>, 4>>();
}

}  // namespace
}  // namespace msq::queues
