// Single-threaded contract tests, typed over every globally-FIFO queue
// family (queues::FifoFamilies): FIFO order, emptiness reporting, capacity
// behaviour, dummy-node edge cases (empty <-> single-item transitions -- the
// cases the paper says earlier algorithms got wrong or omitted).
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "port/cpu.hpp"
#include "queue_families.hpp"
#include "queues/queues.hpp"

namespace msq::queues {

/// Reads SegmentQueue's private slot layout (the queue names it a friend):
/// which cache line of a segment holds ticket t's slot.
struct SegmentInspector {
  using Queue = SegmentQueue<std::uint64_t>;
  static constexpr std::uint32_t kSlots = Queue::kSlots;

  static constexpr std::uint32_t slot_of(std::uint32_t t) {
    return Queue::slot_of(t);
  }
  /// Line of the first and of the last byte of ticket t's slot.
  static constexpr std::size_t first_line(std::uint32_t t) {
    return slot_offset(t) / port::kCacheLine;
  }
  static constexpr std::size_t last_line(std::uint32_t t) {
    return (slot_offset(t) + sizeof(Queue::Slot) - 1) / port::kCacheLine;
  }

 private:
  static constexpr std::size_t slot_offset(std::uint32_t t) {
    return offsetof(Queue::Segment, slots) + slot_of(t) * sizeof(Queue::Slot);
  }
};

namespace {

constexpr std::uint32_t kCapacity = 64;

template <typename Q>
class QueueBasicTest : public ::testing::Test {
 protected:
  Q queue_{kCapacity};
};

TYPED_TEST_SUITE(QueueBasicTest, FamilyTypes<FifoFamilies>,
                 FamilyNames<FifoFamilies>);

TYPED_TEST(QueueBasicTest, SatisfiesConcurrentQueueConcept) {
  static_assert(ConcurrentQueue<TypeParam>);
  SUCCEED();
}

TYPED_TEST(QueueBasicTest, NewQueueIsEmpty) {
  std::uint64_t out = 0;
  EXPECT_FALSE(this->queue_.try_dequeue(out));
}

TYPED_TEST(QueueBasicTest, SingleItemRoundTrip) {
  ASSERT_TRUE(this->queue_.try_enqueue(42));
  std::uint64_t out = 0;
  ASSERT_TRUE(this->queue_.try_dequeue(out));
  EXPECT_EQ(out, 42u);
  EXPECT_FALSE(this->queue_.try_dequeue(out)) << "queue must be empty again";
}

TYPED_TEST(QueueBasicTest, FifoOrderPreserved) {
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(this->queue_.try_enqueue(i));
  }
  for (std::uint64_t i = 0; i < 32; ++i) {
    std::uint64_t out = 0;
    ASSERT_TRUE(this->queue_.try_dequeue(out));
    EXPECT_EQ(out, i);
  }
}

TYPED_TEST(QueueBasicTest, OptionalDequeueForm) {
  EXPECT_EQ(this->queue_.try_dequeue(), std::nullopt);
  ASSERT_TRUE(this->queue_.try_enqueue(7));
  const std::optional<std::uint64_t> got = this->queue_.try_dequeue();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7u);
}

TYPED_TEST(QueueBasicTest, EmptyToNonEmptyTransitionRepeats) {
  // Exercises the dummy-node special case over and over: the "empty or
  // single-item queue" handling that incompletely-specified predecessors
  // omitted (paper section 1).
  for (std::uint64_t round = 0; round < 1000; ++round) {
    std::uint64_t out = 0;
    EXPECT_FALSE(this->queue_.try_dequeue(out));
    ASSERT_TRUE(this->queue_.try_enqueue(round));
    ASSERT_TRUE(this->queue_.try_dequeue(out));
    EXPECT_EQ(out, round);
  }
}

TYPED_TEST(QueueBasicTest, InterleavedEnqueueDequeue) {
  // Occupancy grows by one per round; 40 rounds stays within the 64-node
  // pool of the bounded queues.
  std::uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(this->queue_.try_enqueue(next_in++));
    for (int i = 0; i < 2; ++i) {
      std::uint64_t out = 0;
      ASSERT_TRUE(this->queue_.try_dequeue(out));
      EXPECT_EQ(out, next_out++);
    }
  }
  // Drain the surplus.
  std::uint64_t out = 0;
  while (this->queue_.try_dequeue(out)) {
    EXPECT_EQ(out, next_out++);
  }
  EXPECT_EQ(next_out, next_in);
}

TYPED_TEST(QueueBasicTest, CapacityBoundIsHonoured) {
  if constexpr (TypeParam::traits.pool_backed) {
    std::uint64_t enqueued = 0;
    while (this->queue_.try_enqueue(enqueued)) {
      ++enqueued;
      ASSERT_LE(enqueued, static_cast<std::uint64_t>(kCapacity) + 1)
          << "queue accepted more items than its pool holds";
    }
    EXPECT_GE(enqueued, kCapacity - 1) << "queue refused well below capacity";
    // Free one slot; enqueue must succeed again.
    std::uint64_t out = 0;
    ASSERT_TRUE(this->queue_.try_dequeue(out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(this->queue_.try_enqueue(enqueued));
  } else {
    // Unbounded (hazard-pointer) variant: accepts far beyond kCapacity.
    for (std::uint64_t i = 0; i < kCapacity * 4; ++i) {
      ASSERT_TRUE(this->queue_.try_enqueue(i));
    }
    std::uint64_t out = 0;
    for (std::uint64_t i = 0; i < kCapacity * 4; ++i) {
      ASSERT_TRUE(this->queue_.try_dequeue(out));
      EXPECT_EQ(out, i);
    }
  }
}

TYPED_TEST(QueueBasicTest, DrainAfterPartialConsumption) {
  for (std::uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(this->queue_.try_enqueue(i));
  std::uint64_t out = 0;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(this->queue_.try_dequeue(out));
  for (std::uint64_t i = 10; i < 15; ++i) ASSERT_TRUE(this->queue_.try_enqueue(i));
  for (std::uint64_t expect = 5; expect < 15; ++expect) {
    ASSERT_TRUE(this->queue_.try_dequeue(out));
    EXPECT_EQ(out, expect);
  }
  EXPECT_FALSE(this->queue_.try_dequeue(out));
}

/// Every slot of a segment is some ticket's, exactly once.
constexpr bool segq_slot_map_is_a_bijection() {
  using I = SegmentInspector;
  std::array<bool, I::kSlots> hit{};
  for (std::uint32_t t = 0; t < I::kSlots; ++t) {
    const std::uint32_t s = I::slot_of(t);
    if (s >= I::kSlots || hit[s]) return false;
    hit[s] = true;
  }
  return true;
}

/// Each slot sits on one line, and tickets t and t + 1 on different ones.
constexpr bool segq_neighbour_tickets_on_distinct_lines() {
  using I = SegmentInspector;
  for (std::uint32_t t = 0; t < I::kSlots; ++t) {
    if (I::first_line(t) != I::last_line(t)) return false;
    if (t + 1 < I::kSlots && I::first_line(t) == I::first_line(t + 1)) {
      return false;
    }
  }
  return true;
}

TEST(SegmentLayout, ConsecutiveTicketsFillDistinctLinesAtNoExtraBytes) {
  static_assert(SegmentInspector::kSlots == 64);
  static_assert(segq_slot_map_is_a_bijection());
  static_assert(segq_neighbour_tickets_on_distinct_lines());
  // The line-aligned slot array fits the padding the segment already had:
  // 19 lines, as before the alignment (bytes_per_item.segq reads 19.01).
  static_assert(SegmentQueue<std::uint64_t>::node_bytes() == 1216);
  // The map is the bit rotation ((t << 4) | (t >> 2)) & 63.
  for (std::uint32_t t = 0; t < SegmentInspector::kSlots; ++t) {
    EXPECT_EQ(SegmentInspector::slot_of(t), ((t << 4) | (t >> 2)) & 63) << t;
  }
}

TEST(QueueTraits, ProgressClassificationMatchesPaper) {
  // Section 1's taxonomy, encoded as traits the harness relies on.
  EXPECT_EQ(MsQueue<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(MsQueueDw<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(MsQueueHp<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(PljQueue<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(ValoisQueue<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(SegmentQueue<int>::traits.progress, Progress::kNonBlocking);
  EXPECT_EQ(TwoLockQueue<int>::traits.progress, Progress::kBlocking);
  EXPECT_EQ(SingleLockQueue<int>::traits.progress, Progress::kBlocking);
  EXPECT_EQ(MellorCrummeyQueue<int>::traits.progress,
            Progress::kLockFreeBlocking);
  EXPECT_EQ(RingQueue<int>::traits.progress, Progress::kLockFreeBlocking);
  // SCQ is bounded like the ring but genuinely non-blocking: a dequeuer
  // overtaking a stalled enqueuer marks the entry unsafe and moves on
  // instead of waiting on the slot handshake.
  EXPECT_EQ(ScqQueue<int>::traits.progress, Progress::kNonBlocking);
  // Values live in the ring: two 16-byte {meta, value} entries per slot.
  static_assert(ScqQueue<std::uint64_t>::node_bytes() == 32);
  // Plus the credit words, fixed whatever the capacity: the depot's cache
  // line and sixteen per-thread slot lines.
  EXPECT_EQ(ScqQueue<std::uint64_t>(1024).resident_bytes(),
            1024 * 32 + 17 * port::kCacheLine);
  // The helping wrapper upgrades the MS core's guarantee to wait-free
  // (ROADMAP item 3; the bound is proven over schedules in
  // tests/sim_wf_test.cpp).
  EXPECT_EQ(WfQueue<int>::traits.progress, Progress::kWaitFree);
  // Its dequeue binding is one queue-wide cell, so a node is the MS node
  // (value, counted next) plus the enqueue stamp.
  static_assert(WfQueue<std::uint64_t>::node_bytes() == 24);
  EXPECT_FALSE(MsQueueHp<int>::traits.pool_backed);
  EXPECT_TRUE(MsQueue<int>::traits.pool_backed);
}

}  // namespace
}  // namespace msq::queues
