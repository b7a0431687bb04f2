// The shared bounded-queue oracle: RingQueue and ScqQueue implement the
// same CONTRACT -- refuse at capacity (kPoolRefuse + kQueueFull per
// refused call), report empty (kDequeueEmpty per miss), deliver FIFO --
// even though one blocks on a stalled peer's slot handshake and the other
// marks the stalled peer's entry unsafe and routes around it.  The oracle
// runs an identical single-threaded script against both and diffs the
// OBSERVABLE story: accepted counts, refusal counts, counter deltas.
//
// Then SCQ's credit slots on real threads: credits cached in the slots of
// threads that have exited stay usable, threads sharing slots conserve
// credits, a credit returned on one thread is stolen by another, and a
// refusal spends no RMW.
//
// The second half pins down the reachability of every scq fault window
// (tools/fault_sites_lint.py closes the loop): the plain operation sites
// fire on ordinary traffic, and the threshold-budget window -- which only
// opens when the tail runs ahead of a scanning dequeuer -- is staged
// deterministically by parking two enqueuers inside their deposit CAS.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/counters.hpp"
#include "port/cpu.hpp"
#include "queues/queues.hpp"

namespace msq {
namespace {

// ---------------------------------------------------------------------------
// The oracle: one script, two queues, identical observable behaviour.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kCapacity = 8;  // power of two: exact for both

/// Everything a bounded queue's user can observe from the shared script.
struct Oracle {
  std::uint64_t accepted = 0;        // enqueues until the first refusal
  std::uint64_t drained = 0;         // dequeues until the first miss
  std::vector<std::uint64_t> order;  // values in dequeue order
  std::uint64_t enq = 0;             // counter deltas over the whole script
  std::uint64_t deq = 0;
  std::uint64_t queue_full = 0;
  std::uint64_t pool_refuse = 0;
  std::uint64_t deq_empty = 0;

  bool operator==(const Oracle& o) const {
    return accepted == o.accepted && drained == o.drained &&
           order == o.order && enq == o.enq && deq == o.deq &&
           queue_full == o.queue_full && pool_refuse == o.pool_refuse &&
           deq_empty == o.deq_empty;
  }
};

/// Two fill/refuse/drain/miss cycles: refusal and emptiness must both be
/// clean (no lost values) and repeatable (the refused/missed calls leave
/// no residue that changes the next cycle).
template <typename Q>
Oracle run_script() {
  Q queue(kCapacity);
  Oracle o;
  obs::arm();
  const auto before = obs::snapshot();
  std::uint64_t next = 100;
  for (int cycle = 0; cycle < 2; ++cycle) {
    std::uint64_t accepted = 0;
    while (queue.try_enqueue(next + accepted)) ++accepted;
    if (cycle == 0) o.accepted = accepted;
    EXPECT_EQ(accepted, kCapacity);
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(queue.try_enqueue(999));  // repeatable refusal
    }
    std::uint64_t out = 0;
    std::uint64_t drained = 0;
    while (queue.try_dequeue(out)) {
      o.order.push_back(out);
      ++drained;
    }
    if (cycle == 0) o.drained = drained;
    for (int i = 0; i < 2; ++i) {
      EXPECT_FALSE(queue.try_dequeue(out));  // repeatable emptiness
    }
    next += accepted;
  }
  const auto delta = obs::snapshot() - before;
  obs::disarm();
  o.enq = delta[obs::Counter::kEnqueue];
  o.deq = delta[obs::Counter::kDequeue];
  o.queue_full = delta[obs::Counter::kQueueFull];
  o.pool_refuse = delta[obs::Counter::kPoolRefuse];
  o.deq_empty = delta[obs::Counter::kDequeueEmpty];
  return o;
}

TEST(BoundedQueueOracle, RingAndScqTellTheSameObservableStory) {
  const Oracle ring = run_script<queues::RingQueue<std::uint64_t>>();
  const Oracle scq = run_script<queues::ScqQueue<std::uint64_t>>();

  // The contract, spelled out once (against ring) so a joint regression
  // in both queues cannot slip through the equality check below.
  EXPECT_EQ(ring.accepted, kCapacity);
  EXPECT_EQ(ring.drained, kCapacity);
  EXPECT_EQ(ring.enq, 2 * kCapacity);
  EXPECT_EQ(ring.deq, 2 * kCapacity);
  EXPECT_EQ(ring.queue_full, 2 * 3u + 2u);  // 3 probes + the stopping call
  EXPECT_EQ(ring.pool_refuse, ring.queue_full);
  EXPECT_EQ(ring.deq_empty, 2 * 2u + 2u);
  ASSERT_EQ(ring.order.size(), 2 * kCapacity);
  for (std::size_t i = 0; i < ring.order.size(); ++i) {
    EXPECT_EQ(ring.order[i], 100 + i) << "FIFO violated at " << i;
  }

  EXPECT_TRUE(ring == scq)
      << "ring and scq disagree on the bounded-queue contract";
}

// ---------------------------------------------------------------------------
// SCQ's read-only empty check.  Once a poll has missed since the last
// deposit, the threshold sits below its armed 3n-1 and the next poll first
// compares tail with head, taking no ticket when tail <= head.  A poll that
// does take a ticket on a quiet ring ends in a tail catch-up, so
// kScqCatchup counts the ticketed polls and the rest were read-only.
// ---------------------------------------------------------------------------

template <typename Fn>
obs::Snapshot counted(Fn&& fn) {
  obs::arm();
  const auto before = obs::snapshot();
  fn();
  const auto delta = obs::snapshot() - before;
  obs::disarm();
  return delta;
}

TEST(ScqEmptyCheck, AnOpenGateCannotHideALaterItem) {
  queues::ScqQueue<std::uint64_t> queue(kCapacity);
  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_enqueue(1));  // the deposit arms the threshold
  ASSERT_TRUE(queue.try_dequeue(out));
  const auto polls = counted([&] {
    for (int i = 0; i < 4; ++i) EXPECT_FALSE(queue.try_dequeue(out));
  });
  // One ticketed miss spent budget; the next three were read-only.
  EXPECT_EQ(polls[obs::Counter::kScqCatchup], 1u);
  EXPECT_EQ(polls[obs::Counter::kDequeueEmpty], 4u);

  // The gate is open now, and an enqueue must still be seen.
  ASSERT_TRUE(queue.try_enqueue(2));
  ASSERT_TRUE(queue.try_dequeue(out));
  EXPECT_EQ(out, 2u);
  EXPECT_FALSE(queue.try_dequeue(out));
}

TEST(ScqEmptyCheck, AFullQueueRefusesThenAcceptsAfterOneDequeue) {
  queues::ScqQueue<std::uint64_t> queue(kCapacity);
  for (std::uint64_t v = 0; v < kCapacity; ++v) {
    ASSERT_TRUE(queue.try_enqueue(v));
  }
  // No credit is left: every refusal is two passes of reads over the
  // credit words, with no ticket, no entry CAS and no catch-up.
  const auto refusals = counted([&] {
    for (int i = 0; i < 4; ++i) EXPECT_FALSE(queue.try_enqueue(99));
  });
  EXPECT_EQ(refusals[obs::Counter::kQueueFull], 4u);
  EXPECT_EQ(refusals[obs::Counter::kScqCatchup], 0u);
  EXPECT_EQ(refusals[obs::Counter::kCasAttempt], 0u);

  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_dequeue(out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(queue.try_enqueue(kCapacity));  // the freed slot is taken
  EXPECT_FALSE(queue.try_enqueue(99));        // and the queue is full again
  for (std::uint64_t v = 1; v <= kCapacity; ++v) {
    ASSERT_TRUE(queue.try_dequeue(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(queue.try_dequeue(out));
}

// The capacity bound under concurrency: with no dequeuer, racing
// enqueuers together land exactly `capacity` values and every other call
// is refused.  A check of tail - head before the ticket would let
// concurrent enqueuers that all pass it overshoot; the credits
// hand out exactly `capacity` deposits.
TEST(ScqCapacity, ConcurrentFillAcceptsExactlyCapacity) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  for (const std::uint32_t capacity : {1u, 2u, 4u, 64u}) {
    queues::ScqQueue<std::uint64_t> queue(capacity);
    std::atomic<bool> go{false};
    std::vector<std::uint64_t> accepted(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kPerThread; ++i) {
          if (queue.try_enqueue(static_cast<std::uint64_t>(t * kPerThread + i))) {
            ++accepted[t];
          }
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& th : threads) th.join();

    std::set<std::uint64_t> drained;
    std::uint64_t out = 0;
    while (queue.try_dequeue(out)) {
      EXPECT_TRUE(drained.insert(out).second) << "duplicate " << out;
    }
    EXPECT_EQ(std::accumulate(accepted.begin(), accepted.end(), 0ull),
              capacity)
        << "capacity " << capacity;
    EXPECT_EQ(drained.size(), capacity) << "capacity " << capacity;
  }
}

TEST(BoundedQueueCapacity, AboveTheLimitThrowsBeforeAllocating) {
  // The rounded-up ring would not fit 32 bits; rounding used to loop
  // forever here.  Nothing is allocated: the check runs first.
  using Scq = queues::ScqQueue<std::uint64_t>;
  using Ring = queues::RingQueue<std::uint64_t>;
  EXPECT_THROW(Scq(Scq::kMaxCapacity + 1), std::length_error);
  EXPECT_THROW(Scq(UINT32_MAX), std::length_error);
  EXPECT_THROW(Ring(Ring::kMaxCapacity + 1), std::length_error);
  EXPECT_THROW(Ring(UINT32_MAX), std::length_error);
  EXPECT_EQ(Scq(kCapacity - 1).capacity(), kCapacity);
  EXPECT_EQ(Ring(kCapacity - 1).capacity(), kCapacity);
}

// ---------------------------------------------------------------------------
// SCQ's credit slots.  A dequeue returns its credit to its own thread's
// slot and an enqueue takes from its own slot, the depot, then the other
// slots, so credits wander between threads; capacity must stay exact.
// ---------------------------------------------------------------------------

/// Enqueue on the calling thread until refused; the count accepted.
std::uint32_t fill(queues::ScqQueue<std::uint64_t>& queue) {
  std::uint32_t accepted = 0;
  while (queue.try_enqueue(accepted)) ++accepted;
  return accepted;
}

/// fill() on a fresh thread, whose slot holds nothing.
std::uint32_t fill_on_fresh_thread(queues::ScqQueue<std::uint64_t>& queue) {
  std::uint32_t accepted = 0;
  std::thread([&] { accepted = fill(queue); }).join();
  return accepted;
}

TEST(ScqCredits, CreditsCachedByExitedThreadsStayUsable) {
  // {capacity, draining threads}: 64/4 leaves 16 credits in each of four
  // slots; 128/2 pushes each slot past the spill bound.
  for (const auto& [capacity, drainers] :
       {std::pair{64u, 4u}, std::pair{128u, 2u}}) {
    queues::ScqQueue<std::uint64_t> queue(capacity);
    ASSERT_EQ(fill(queue), capacity);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < drainers; ++t) {
      threads.emplace_back([&] {
        std::uint64_t out = 0;
        for (std::uint32_t i = 0; i < capacity / drainers; ++i) {
          ASSERT_TRUE(queue.try_dequeue(out));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    // Every credit now sits in an exited thread's slot or the depot.
    EXPECT_EQ(fill_on_fresh_thread(queue), capacity) << "capacity " << capacity;
    const auto refusals = counted([&] { EXPECT_FALSE(queue.try_enqueue(0)); });
    EXPECT_EQ(refusals[obs::Counter::kCasAttempt], 0u);
  }
}

TEST(ScqCredits, TwentyThreadsSharingSixteenSlotsConserveCredits) {
  // More threads than slots, so some slots take returns and steals from
  // two threads at once.  Afterwards every credit must be back: the
  // queue's contents plus a fresh fill make up exactly the capacity.
  constexpr std::uint32_t kCap = 64;
  constexpr int kThreads = 20;
  constexpr int kRounds = 2'000;
  queues::ScqQueue<std::uint64_t> queue(kCap);
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> enqueued(kThreads, 0);
  std::vector<std::uint64_t> dequeued(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t out = 0;
      for (int i = 0; i < kRounds; ++i) {
        // Bursts of up to four, drained by one or two dequeues, so the
        // queue fills, refuses and drains in every slot pattern.
        for (int b = 0; b <= (i + t) % 4; ++b) {
          if (queue.try_enqueue(static_cast<std::uint64_t>(t))) ++enqueued[t];
        }
        for (int b = 0; b <= i % 2; ++b) {
          if (queue.try_dequeue(out)) ++dequeued[t];
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  const std::uint64_t left =
      std::accumulate(enqueued.begin(), enqueued.end(), 0ull) -
      std::accumulate(dequeued.begin(), dequeued.end(), 0ull);
  ASSERT_LE(left, kCap);
  EXPECT_EQ(fill_on_fresh_thread(queue), kCap - left);
  std::uint64_t out = 0;
  std::uint64_t drained = 0;
  while (queue.try_dequeue(out)) ++drained;
  EXPECT_EQ(drained, kCap);
}

TEST(ScqCredits, ACreditReturnedOnAnotherThreadIsStolen) {
  queues::ScqQueue<std::uint64_t> queue(1);
  ASSERT_TRUE(queue.try_enqueue(1));  // the depot's only credit
  std::uint64_t out = 0;
  std::thread([&] { EXPECT_TRUE(queue.try_dequeue(out)); }).join();
  EXPECT_EQ(out, 1u);

  // The credit sits in the dequeuer's slot; a fresh thread's own slot and
  // the depot are empty, so its enqueue succeeds only by stealing.
  fault::FaultPlan plan;
  plan.delay_at("scq.credit_steal", /*yields=*/1);
  plan.arm();
  bool ok = false;
  std::thread([&] { ok = queue.try_enqueue(2); }).join();
  plan.disarm();
  EXPECT_TRUE(ok);
  EXPECT_GT(plan.hits("scq.credit_steal"), 0u);
  EXPECT_FALSE(queue.try_enqueue(3));
}

TEST(ScqCredits, ACreditReturnedBetweenTheCollectsIsTaken) {
  // Park a refusing enqueuer between its two passes, return a credit on
  // this thread, and let it go: the second pass sees this thread's slot
  // move, so the enqueue goes back and takes the credit instead of
  // refusing on the first pass's stale zeros.
  constexpr std::uint32_t kCap = 2;
  queues::ScqQueue<std::uint64_t> queue(kCap);
  ASSERT_EQ(fill(queue), kCap);

  fault::FaultPlan plan;
  plan.halt_at("scq.credit_collect", /*skip=*/0, /*victims=*/1);
  plan.delay_at("scq.credit_steal", /*yields=*/1);
  plan.arm();
  std::atomic<bool> ok{false};
  std::atomic<std::uint32_t> ordinal{0};
  std::thread enqueuer([&] {
    ordinal.store(port::thread_ordinal());
    ok.store(queue.try_enqueue(9));
  });
  plan.wait_for_halted(1);  // first pass read every word zero

  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_dequeue(out));  // the credit lands in our slot
  plan.release_halted();
  enqueuer.join();
  plan.disarm();
  EXPECT_TRUE(ok.load());
  // Unless both ordinals map to one of the 16 slots, the credit was
  // stolen.
  if ((ordinal.load() ^ port::thread_ordinal()) % 16 != 0) {
    EXPECT_GT(plan.hits("scq.credit_steal"), 0u);
  }
  std::uint64_t drained = 0;
  while (queue.try_dequeue(out)) ++drained;
  EXPECT_EQ(drained, kCap);
}

TEST(ScqEmptyCheck, EnqueuePollDequeueRoundsWrapTheRingInFifoOrder) {
  // Each round spends 2 enqueue and 3 dequeue tickets on the ring, so 3n
  // rounds lap its 2n entries several times, each lap with both a
  // ticketed and a read-only empty poll.
  queues::ScqQueue<std::uint64_t> queue(kCapacity);
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  std::uint64_t out = 0;
  for (std::uint32_t round = 0; round < 3 * kCapacity; ++round) {
    ASSERT_TRUE(queue.try_enqueue(next_in++));
    ASSERT_TRUE(queue.try_enqueue(next_in++));
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(queue.try_dequeue(out)) << "round " << round;
      ASSERT_EQ(out, next_out++) << "FIFO violated in round " << round;
    }
    EXPECT_FALSE(queue.try_dequeue(out));  // ticketed: spends budget
    EXPECT_FALSE(queue.try_dequeue(out));  // read-only
  }
  EXPECT_EQ(next_out, 6 * kCapacity);
}

// ---------------------------------------------------------------------------
// Fault-window reachability (the lint's coverage plans).
// ---------------------------------------------------------------------------

// Ordinary traffic crosses every window except the threshold budget: an
// enqueue takes a credit and deposits (scq.faa_enq + scq.enq_cas); a
// dequeue takes a ticket (scq.faa_deq) and consumes; and a dequeue on a
// just-emptied queue advances a stale entry's cycle (scq.deq_mark) then
// drags the lagging tail forward (scq.catchup).
TEST(ScqFaultWindows, OperationAndCatchupWindowsAreReachable) {
  queues::ScqQueue<std::uint64_t> queue(4);
  fault::FaultPlan plan;
  plan.delay_at("scq.enq", /*yields=*/1);
  plan.delay_at("scq.deq", /*yields=*/1);
  plan.delay_at("scq.faa_enq", /*yields=*/1);
  plan.delay_at("scq.enq_cas", /*yields=*/1);
  plan.delay_at("scq.faa_deq", /*yields=*/1);
  plan.delay_at("scq.deq_mark", /*yields=*/1);
  plan.delay_at("scq.catchup", /*yields=*/1);
  plan.arm();
  EXPECT_TRUE(queue.try_enqueue(7));
  std::uint64_t out = 0;
  EXPECT_TRUE(queue.try_dequeue(out));
  EXPECT_EQ(out, 7u);
  EXPECT_FALSE(queue.try_dequeue(out));  // the mark + catch-up dequeue
  plan.disarm();
  EXPECT_GT(plan.hits("scq.enq"), 0u);
  EXPECT_GT(plan.hits("scq.deq"), 0u);
  EXPECT_GT(plan.hits("scq.faa_enq"), 0u);
  EXPECT_GT(plan.hits("scq.enq_cas"), 0u);
  EXPECT_GT(plan.hits("scq.faa_deq"), 0u);
  EXPECT_GT(plan.hits("scq.deq_mark"), 0u);
  EXPECT_GT(plan.hits("scq.catchup"), 0u);
}

// The threshold window only opens when the tail is MORE than one ahead of
// a missing dequeuer -- i.e. some enqueuer has claimed a ticket but not
// yet deposited.  Stage it: park TWO enqueuers inside their deposit CAS
// (tickets claimed, entries still empty), then scan from a dequeuer.  Its
// first miss sees tail two ahead -> spends budget (scq.threshold); its
// second miss reaches the tail -> catch-up path.  This is also the
// non-blocking contrast with RingQueue: the dequeuer RETURNS (empty)
// while both enqueuers are wedged, rather than spinning on their slots.
TEST(ScqFaultWindows, ThresholdBudgetWindowIsReachable) {
  queues::ScqQueue<std::uint64_t> queue(4);
  // Pre-arm the ring's budget: a completed deposit resets it
  // (a fresh empty ring's -1 would short-circuit the scan entirely).
  ASSERT_TRUE(queue.try_enqueue(1));
  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_dequeue(out));

  fault::FaultPlan plan;
  plan.delay_at("scq.threshold", /*yields=*/1);
  plan.halt_at("scq.enq_cas", /*skip=*/0, /*victims=*/2);
  plan.arm();

  std::atomic<bool> ok1{false};
  std::atomic<bool> ok2{false};
  std::thread e1([&] { ok1.store(queue.try_enqueue(11)); });
  std::thread e2([&] { ok2.store(queue.try_enqueue(12)); });
  plan.wait_for_halted(2);  // both parked: tickets taken, deposits pending

  EXPECT_FALSE(queue.try_dequeue(out));  // threshold-certified empty
  EXPECT_GT(plan.hits("scq.threshold"), 0u);

  plan.disarm();
  plan.release_halted();
  e1.join();
  e2.join();
  EXPECT_TRUE(ok1.load());
  EXPECT_TRUE(ok2.load());

  // The resurrected deposits landed: both values drain (ticket order
  // between the two racing enqueuers is theirs to decide).
  std::set<std::uint64_t> drained;
  while (queue.try_dequeue(out)) drained.insert(out);
  EXPECT_EQ(drained, (std::set<std::uint64_t>{11, 12}));
}

}  // namespace
}  // namespace msq
