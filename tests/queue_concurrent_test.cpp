// Multi-threaded stress tests, typed over every globally-FIFO queue family
// (queues::FifoFamilies): conservation (nothing lost, duplicated or
// fabricated), per-producer FIFO as observed by each consumer, mixed
// producer/consumer churn through the empty state, and pool exhaustion
// under contention.
//
// Every case runs 4 threads.  With 4 or more cores they run in parallel
// and race on the shared words; with fewer they are also preempted
// mid-operation, the multiprogrammed regime of the paper's Figures 4-5,
// which stresses the blocking windows of the lock-based and MC algorithms.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "fault/watchdog.hpp"
#include "obs/counters.hpp"
#include "queue_families.hpp"
#include "queues/queues.hpp"

namespace msq::queues {
namespace {

constexpr std::uint32_t kCapacity = 256;

template <typename Q>
class QueueConcurrentTest : public ::testing::Test {
 protected:
  // A wedged run (e.g. a blocking queue whose lock holder was preempted
  // forever) aborts with an attributed message instead of hanging ctest.
  fault::Watchdog watchdog_{std::chrono::seconds(240),
                            "queue_concurrent stress"};
  Q queue_{kCapacity};
};

TYPED_TEST_SUITE(QueueConcurrentTest, FamilyTypes<FifoFamilies>,
                 FamilyNames<FifoFamilies>);

TYPED_TEST(QueueConcurrentTest, PairedLoopConservesEveryValue) {
  // The paper's loop shape: every thread enqueues then dequeues, so the
  // queue stays near-empty and the dummy-node transitions churn.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPairs = 30'000;
  obs::arm();
  const auto counters_before = obs::snapshot();
  std::vector<check::ThreadLog> logs;
  for (int t = 0; t < kThreads; ++t) logs.emplace_back(t);
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        check::ThreadLog& log = logs[t];
        for (std::uint64_t i = 0; i < kPairs; ++i) {
          const std::uint64_t value = check::encode_value(t, i);
          while (!this->queue_.try_enqueue(value)) {
            std::this_thread::yield();  // full: a consumer needs the core
          }
          log.record(check::OpKind::kEnqueue, value, 0, 0);
          std::uint64_t out = 0;
          if (this->queue_.try_dequeue(out)) {
            log.record(check::OpKind::kDequeue, out, 0, 0);
          }
        }
      });
    }
  }
  // Drain the remainder single-threaded.
  std::uint64_t out = 0;
  check::ThreadLog drain(kThreads);
  while (this->queue_.try_dequeue(out)) {
    drain.record(check::OpKind::kDequeue, out, 0, 0);
  }
  logs.push_back(drain);

  const auto merged = check::merge_logs(logs);
  const auto conservation = check::check_conservation(merged);
  EXPECT_TRUE(conservation.ok) << conservation.diagnosis;
  // Everything enqueued must eventually have come out.
  std::uint64_t enqueues = 0, dequeues = 0;
  for (const auto& e : merged) {
    enqueues += e.kind == check::OpKind::kEnqueue;
    dequeues += e.kind == check::OpKind::kDequeue;
  }
  EXPECT_EQ(enqueues, static_cast<std::uint64_t>(kThreads) * kPairs);
  EXPECT_EQ(dequeues, enqueues);
  obs::disarm();
#if MSQ_OBS
  // The armed probes must agree with the history exactly: a silently
  // dropped or double-bumped MSQ_COUNT site fails here, not in a bench.
  const auto delta = obs::snapshot() - counters_before;
  EXPECT_EQ(delta[obs::Counter::kEnqueue], enqueues);
  EXPECT_EQ(delta[obs::Counter::kDequeue], dequeues);
  EXPECT_LE(delta[obs::Counter::kCasFail], delta[obs::Counter::kCasAttempt]);
#else
  (void)counters_before;
#endif
}

TYPED_TEST(QueueConcurrentTest, DedicatedProducersAndConsumersKeepFifo) {
  constexpr std::uint32_t kProducers = 2;
  constexpr std::uint32_t kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 40'000;
  std::vector<check::ThreadLog> consumer_logs;
  for (std::uint32_t c = 0; c < kConsumers; ++c) {
    consumer_logs.emplace_back(kProducers + c);
  }
  std::atomic<std::uint32_t> producers_left{kProducers};
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          while (!this->queue_.try_enqueue(check::encode_value(p, i))) {
            std::this_thread::yield();  // bounded queue: wait for consumers
          }
        }
        producers_left.fetch_sub(1);
      });
    }
    for (std::uint32_t c = 0; c < kConsumers; ++c) {
      threads.emplace_back([&, c] {
        check::ThreadLog& log = consumer_logs[c];
        for (;;) {
          std::uint64_t out = 0;
          if (this->queue_.try_dequeue(out)) {
            log.record(check::OpKind::kDequeue, out, 0, 0);
          } else if (producers_left.load() == 0) {
            // One more look to avoid racing the last enqueue.
            if (!this->queue_.try_dequeue(out)) break;
            log.record(check::OpKind::kDequeue, out, 0, 0);
          }
        }
      });
    }
  }
  const auto order = check::check_per_consumer_order(consumer_logs);
  EXPECT_TRUE(order.ok) << order.diagnosis;
  std::uint64_t total = 0;
  for (const auto& log : consumer_logs) total += log.events().size();
  EXPECT_EQ(total, static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

TYPED_TEST(QueueConcurrentTest, ChurnThroughEmptyWithMorePoppersThanPushers) {
  // More consumers than producers keeps the queue mostly empty; the
  // empty-report path races the linking path constantly.
  constexpr std::uint64_t kItems = 60'000;
  std::atomic<std::uint64_t> popped{0};
  std::atomic<bool> done_producing{false};
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        while (!this->queue_.try_enqueue(i)) {
          std::this_thread::yield();
        }
      }
      done_producing.store(true);
    });
    for (int c = 0; c < 3; ++c) {
      threads.emplace_back([&] {
        std::uint64_t out = 0;
        for (;;) {
          if (this->queue_.try_dequeue(out)) {
            popped.fetch_add(1, std::memory_order_relaxed);
          } else if (done_producing.load()) {
            if (!this->queue_.try_dequeue(out)) break;
            popped.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  EXPECT_EQ(popped.load(), kItems);
}

TYPED_TEST(QueueConcurrentTest, ExhaustionUnderContentionRecoversCleanly) {
  if constexpr (!TypeParam::traits.pool_backed) {
    GTEST_SKIP() << "unbounded queue";
  } else {
    std::atomic<std::uint64_t> enq_failures{0};
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> dequeued{0};
    obs::arm();
    const auto counters_before = obs::snapshot();
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
          for (int i = 0; i < 20'000; ++i) {
            // Push hard: 3 enqueues per dequeue drives the pool empty.
            for (int e = 0; e < 3; ++e) {
              if (this->queue_.try_enqueue(1)) {
                enqueued.fetch_add(1, std::memory_order_relaxed);
              } else {
                enq_failures.fetch_add(1, std::memory_order_relaxed);
              }
            }
            std::uint64_t out = 0;
            if (this->queue_.try_dequeue(out)) {
              dequeued.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
    }
    EXPECT_GT(enq_failures.load(), 0u) << "pool never filled; weak test";
    // Conservation despite exhaustion.
    std::uint64_t out = 0;
    std::uint64_t drained = 0;
    while (this->queue_.try_dequeue(out)) ++drained;
    EXPECT_EQ(dequeued.load() + drained, enqueued.load());
    obs::disarm();
#if MSQ_OBS
    const auto delta = obs::snapshot() - counters_before;
    EXPECT_EQ(delta[obs::Counter::kEnqueue], enqueued.load());
    EXPECT_EQ(delta[obs::Counter::kDequeue], dequeued.load() + drained);
    // Every refused enqueue passed a pool refusal (possibly several on the
    // magazine fallback path), never zero.
    EXPECT_GE(delta[obs::Counter::kPoolRefuse], enq_failures.load());
#else
    (void)counters_before;
#endif
    // And the queue must be fully functional afterwards.
    EXPECT_TRUE(this->queue_.try_enqueue(99));
    ASSERT_TRUE(this->queue_.try_dequeue(out));
    EXPECT_EQ(out, 99u);
  }
}

// MsQueue's default allocator under maximal recycling pressure: a 4-item
// queue shared by 4 threads running the paper's loop, so every node cycles
// through the per-thread magazines, their batch flushes and the exhaustion
// sweep hundreds of thousands of times.  An enqueue refused here is
// transient (the free node sits in the magazine of a call in progress), so
// producers retry.  A dequeue is never legitimately empty: the queue holds
// one item per thread between its enqueue and its dequeue, the caller
// included.
TEST(MsQueueMagazine, TinyPoolRecycleStressConservesAndKeepsProducerFifo) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPairs = 200'000;
  fault::Watchdog watchdog(std::chrono::seconds(240),
                           "tiny-pool magazine recycle stress");
  MsQueue<std::uint64_t> queue(4);
  // seen[p * kPairs + seq] counts deliveries of producer p's item seq:
  // conservation is every count exactly 1.
  std::vector<std::atomic<std::uint8_t>> seen(kThreads * kPairs);
  std::atomic<std::uint64_t> fabricated{0}, out_of_order{0}, spurious_empty{0};
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::uint64_t> next_seq(kThreads, 0);  // per producer
        for (std::uint64_t i = 0; i < kPairs; ++i) {
          while (!queue.try_enqueue(check::encode_value(t, i))) {
            std::this_thread::yield();
          }
          std::uint64_t out = 0;
          while (!queue.try_dequeue(out)) {
            spurious_empty.fetch_add(1, std::memory_order_relaxed);
          }
          const std::uint32_t p = check::value_producer(out);
          const std::uint64_t seq = check::value_seq(out);
          if (p >= kThreads || seq >= kPairs) {
            fabricated.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (seq < next_seq[p]) {
            out_of_order.fetch_add(1, std::memory_order_relaxed);
          }
          next_seq[p] = seq + 1;
          seen[p * kPairs + seq].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }
  EXPECT_EQ(fabricated.load(), 0u);
  EXPECT_EQ(out_of_order.load(), 0u) << "a consumer saw a producer's items "
                                        "out of FIFO order";
  EXPECT_EQ(spurious_empty.load(), 0u);
  std::uint64_t lost = 0, duplicated = 0;
  for (const auto& count : seen) {
    const std::uint8_t c = count.load(std::memory_order_relaxed);
    lost += c == 0;
    duplicated += c > 1;
  }
  EXPECT_EQ(lost, 0u);
  EXPECT_EQ(duplicated, 0u);
  std::uint64_t out = 0;
  EXPECT_FALSE(queue.try_dequeue(out));
  EXPECT_EQ(queue.unsafe_free_nodes(), 4u) << "a node leaked in recycling";
}

}  // namespace
}  // namespace msq::queues
