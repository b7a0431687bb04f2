// The lock-based queues are parameterised on their lock type (the paper's
// "machines with non-universal atomic primitives" motivation): verify the
// queues stay correct under every lock in the library, and that the MS
// queue stays correct with backoff disabled (the NullBackoff ablation).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "queues/ms_queue.hpp"
#include "queues/single_lock_queue.hpp"
#include "queues/treiber_stack.hpp"
#include "queues/two_lock_queue.hpp"
#include "sync/mcs_lock.hpp"
#include "sync/tas_lock.hpp"
#include "sync/tatas_lock.hpp"
#include "sync/ticket_lock.hpp"

namespace msq::queues {
namespace {

template <typename Q>
class VariantTest : public ::testing::Test {};

using Variants = ::testing::Types<
    // Two-lock queue across all four locks.
    TwoLockQueue<std::uint64_t, sync::TasLock>,
    TwoLockQueue<std::uint64_t, sync::TatasLock>,
    TwoLockQueue<std::uint64_t, sync::TicketLock>,
    TwoLockQueue<std::uint64_t, sync::McsMutex>,
    // Single-lock queue across the same locks.
    SingleLockQueue<std::uint64_t, sync::TasLock>,
    SingleLockQueue<std::uint64_t, sync::TicketLock>,
    SingleLockQueue<std::uint64_t, sync::McsMutex>,
    // Non-blocking structures with backoff disabled (maximum interleaving).
    MsQueue<std::uint64_t, sync::NullBackoff>,
    MsQueueDw<std::uint64_t, sync::NullBackoff>,
    TreiberStack<std::uint64_t, sync::NullBackoff>>;
TYPED_TEST_SUITE(VariantTest, Variants);

template <typename Q>
bool put(Q& q, std::uint64_t v) {
  if constexpr (requires(Q& x) { x.try_push(v); }) {
    return q.try_push(v);
  } else {
    return q.try_enqueue(v);
  }
}
template <typename Q>
bool get(Q& q, std::uint64_t& v) {
  if constexpr (requires(Q& x) { x.try_pop(v); }) {
    return q.try_pop(v);
  } else {
    return q.try_dequeue(v);
  }
}

TYPED_TEST(VariantTest, SequentialRoundTrips) {
  TypeParam q(64);
  std::uint64_t out = 0;
  EXPECT_FALSE(get(q, out));
  for (std::uint64_t i = 0; i < 32; ++i) ASSERT_TRUE(put(q, i));
  std::uint64_t seen = 0;
  while (get(q, out)) ++seen;
  EXPECT_EQ(seen, 32u);
}

TYPED_TEST(VariantTest, ConcurrentConservationStress) {
  TypeParam q(128);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPairs = 20'000;
  std::atomic<std::uint64_t> in{0}, dropped{0}, taken{0};
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::uint64_t out = 0;
        for (std::uint64_t i = 0; i < kPairs; ++i) {
          if (put(q, check::encode_value(t, i))) {
            in.fetch_add(1, std::memory_order_relaxed);
          } else {
            dropped.fetch_add(1, std::memory_order_relaxed);
          }
          if (get(q, out)) taken.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }
  std::uint64_t out = 0;
  std::uint64_t drained = 0;
  while (get(q, out)) ++drained;
  EXPECT_EQ(in.load(), taken.load() + drained);
}

// The paper's deadlock-avoidance argument for the two-lock queue: because
// the dummy node keeps enqueuers off Head and dequeuers off Tail, no
// operation ever holds both locks, so ANY lock order is safe.  Exercise the
// nastiest pattern: threads alternating roles as fast as possible.
TEST(TwoLockDeadlock, RoleAlternationNeverDeadlocks) {
  TwoLockQueue<std::uint64_t, sync::McsMutex> q(64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::uint64_t out = 0;
        for (int i = 0; i < 30'000 && !stop.load(); ++i) {
          if ((i + t) & 1) {
            q.try_enqueue(i);
          } else {
            q.try_dequeue(out);
          }
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Watchdog: if the workers deadlock, fail rather than hang forever.
    for (int waited = 0; waited < 200; ++waited) {
      if (ops.load() >= 4 * 30'000u) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    stop.store(true);
  }
  EXPECT_EQ(ops.load(), 4 * 30'000u) << "workers stalled -- deadlock?";
}

}  // namespace
}  // namespace msq::queues
