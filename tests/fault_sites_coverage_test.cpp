// Reachability proofs for the labelled fault sites that no other
// experiment targets, closing the loop tools/fault_sites_lint.py checks:
// every MSQ_PROBE in src/ is either driven by a FaultPlan somewhere under
// tests/ or bench/, or carries an explicit waiver.  Each case here arms a
// plan, steers a workload into the window, and asserts the plan observed
// the site -- so a refactor that makes a window unreachable (or renames
// it out from under its experiment) fails loudly instead of leaving dead
// instrumentation that LOOKS like a proven fault window.
//
// The single-thread sites fire on the ordinary operation path and need
// only a hit count.  The contested sites (segq.kill, wfq.slot_wait,
// wfq.help_wait) are staged deterministically with halt rules: park a
// victim inside the window, drive a peer through the code that can only
// run because the victim is wedged there, then resurrect everyone and
// check conservation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "queues/queues.hpp"

namespace msq {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Single-thread sites: the probe sits on the unconditional operation path.
// ---------------------------------------------------------------------------

TEST(FaultSiteCoverage, TreiberPushCasWindowIsReachable) {
  queues::TreiberStack<std::uint64_t> stack(8);
  fault::FaultPlan plan;
  plan.delay_at("treiber.push_cas", /*yields=*/1);
  plan.arm();
  EXPECT_TRUE(stack.try_push(1));
  plan.disarm();
  EXPECT_GT(plan.hits("treiber.push_cas"), 0u);
  std::uint64_t out = 0;
  EXPECT_TRUE(stack.try_pop(out));
}

TEST(FaultSiteCoverage, MsHeadSwingWindowIsReachable) {
  queues::MsQueue<std::uint64_t> queue(8);
  fault::FaultPlan plan;
  plan.delay_at("ms.D12", /*yields=*/1);
  plan.arm();
  EXPECT_TRUE(queue.try_enqueue(1));
  std::uint64_t out = 0;
  EXPECT_TRUE(queue.try_dequeue(out));
  plan.disarm();
  EXPECT_GT(plan.hits("ms.D12"), 0u);
}

TEST(FaultSiteCoverage, MsDwcasLinkAndHeadSwingWindowsAreReachable) {
  queues::MsQueueDw<std::uint64_t> queue(8);
  fault::FaultPlan plan;
  plan.delay_at("ms.E9", /*yields=*/1);
  plan.delay_at("ms.D12", /*yields=*/1);
  plan.arm();
  EXPECT_TRUE(queue.try_enqueue(1));
  std::uint64_t out = 0;
  EXPECT_TRUE(queue.try_dequeue(out));
  plan.disarm();
  EXPECT_GT(plan.hits("ms.E9"), 0u);
  EXPECT_GT(plan.hits("ms.D12"), 0u);
}

TEST(FaultSiteCoverage, McSwapToLinkWindowIsReachable) {
  queues::MellorCrummeyQueue<std::uint64_t> queue(8);
  fault::FaultPlan plan;
  plan.delay_at("mc.link", /*yields=*/1);
  plan.arm();
  EXPECT_TRUE(queue.try_enqueue(1));
  plan.disarm();
  EXPECT_GT(plan.hits("mc.link"), 0u);
  std::uint64_t out = 0;
  EXPECT_TRUE(queue.try_dequeue(out));
}

TEST(FaultSiteCoverage, TwoLockHeadLockWindowIsReachable) {
  queues::TwoLockQueue<std::uint64_t> queue(8);
  fault::FaultPlan plan;
  plan.delay_at("twolock.H_held", /*yields=*/1);
  plan.arm();
  // Even an empty dequeue takes the head lock and crosses the window.
  std::uint64_t out = 0;
  EXPECT_FALSE(queue.try_dequeue(out));
  plan.disarm();
  EXPECT_GT(plan.hits("twolock.H_held"), 0u);
}

// The constructor installs a pre-drained dummy segment, so the very first
// enqueue takes the append path (segq.close) and the dequeue that drains
// past it swings Head (segq.swing_head).
TEST(FaultSiteCoverage, SegmentCloseAndSwingHeadWindowsAreReachable) {
  queues::SegmentQueue<std::uint64_t> queue(256);
  fault::FaultPlan plan;
  plan.delay_at("segq.close", /*yields=*/1);
  plan.delay_at("segq.swing_head", /*yields=*/1);
  plan.arm();
  EXPECT_TRUE(queue.try_enqueue(7));
  std::uint64_t out = 0;
  EXPECT_TRUE(queue.try_dequeue(out));
  EXPECT_EQ(out, 7u);
  plan.disarm();
  EXPECT_GT(plan.hits("segq.close"), 0u);
  EXPECT_GT(plan.hits("segq.swing_head"), 0u);
}

// The wait-free queue's owner loop always runs at least one helping round
// before its own announcement resolves, so the wait sites fire even with
// no peer in sight.
TEST(FaultSiteCoverage, WfOwnerWaitWindowsAreReachable) {
  queues::WfQueue<std::uint64_t> queue(64);
  fault::FaultPlan plan;
  plan.delay_at("wfq.enq_wait", /*yields=*/1);
  plan.delay_at("wfq.deq_wait", /*yields=*/1);
  plan.arm();
  EXPECT_TRUE(queue.try_enqueue(5));
  std::uint64_t out = 0;
  EXPECT_TRUE(queue.try_dequeue(out));
  EXPECT_EQ(out, 5u);
  plan.disarm();
  EXPECT_GT(plan.hits("wfq.enq_wait"), 0u);
  EXPECT_GT(plan.hits("wfq.deq_wait"), 0u);
}

// ---------------------------------------------------------------------------
// Contested sites: a parked victim opens the window for a peer.
// ---------------------------------------------------------------------------

// segq.kill is the dequeuer's half of the fill race: a ticket whose
// enqueuer has FAA'd but not yet published kFilled must be burned, not
// waited on.  Park the enqueuer exactly there (segq.fill) and let a
// dequeuer collide with the half-filled slot.
TEST(FaultSiteCoverage, SegmentKillWindowIsReachable) {
  fault::Watchdog watchdog(60s, "segq.kill fault-site coverage");
  queues::SegmentQueue<std::uint64_t> queue(256);
  // Seed one value so the live segment has fast-path tickets to race on
  // (the seeding enqueue itself appends a fresh segment, skipping
  // segq.fill, so the victim below is the first thread to reach it).
  ASSERT_TRUE(queue.try_enqueue(1));

  fault::FaultPlan plan;
  plan.halt_at("segq.fill");
  plan.arm();
  std::thread victim([&] { EXPECT_TRUE(queue.try_enqueue(2)); });
  plan.wait_for_halted(1);

  // The victim holds ticket 1 with its slot still kEmpty: draining must
  // deliver the seed, kill the victim's slot, and then read empty.
  std::uint64_t out = 0;
  EXPECT_TRUE(queue.try_dequeue(out));
  EXPECT_EQ(out, 1u);
  EXPECT_FALSE(queue.try_dequeue(out));
  EXPECT_GT(plan.hits("segq.kill"), 0u);

  // Resurrected, the victim's fill-CAS loses to the kill and retries with
  // a fresh ticket; its value must still arrive exactly once.
  plan.release_halted();
  victim.join();
  plan.disarm();
  EXPECT_TRUE(queue.try_dequeue(out));
  EXPECT_EQ(out, 2u);
  EXPECT_FALSE(queue.try_dequeue(out));
}

// wfq.help_wait fires in the helping sweep when a peer's announcement is
// pending at a lower phase: park the announcer and any later operation
// must help it to completion behind its back.
TEST(FaultSiteCoverage, WfHelpWaitWindowIsReachable) {
  fault::Watchdog watchdog(60s, "wfq.help_wait fault-site coverage");
  queues::WfQueue<std::uint64_t> queue(64);
  fault::FaultPlan plan;
  plan.halt_at("wfq.announce");
  plan.arm();
  std::thread victim([&] { EXPECT_TRUE(queue.try_enqueue(11)); });
  plan.wait_for_halted(1);

  EXPECT_TRUE(queue.try_enqueue(22));
  EXPECT_GT(plan.hits("wfq.help_wait"), 0u)
      << "the later enqueue must sweep the parked announcement";

  plan.release_halted();
  victim.join();
  plan.disarm();
  // FIFO: the victim's announcement held the earlier phase.
  std::uint64_t out = 0;
  EXPECT_TRUE(queue.try_dequeue(out));
  EXPECT_EQ(out, 11u);
  EXPECT_TRUE(queue.try_dequeue(out));
  EXPECT_EQ(out, 22u);
  EXPECT_FALSE(queue.try_dequeue(out));
}

// wfq.slot_wait fires when every descriptor slot is busy.  Shrink the
// queue to two slots, park two announcers holding them, and a third
// operation must spin in acquire_slot until a slot frees.
TEST(FaultSiteCoverage, WfSlotWaitWindowIsReachable) {
  fault::Watchdog watchdog(60s, "wfq.slot_wait fault-site coverage");
  queues::WfQueue<std::uint64_t, /*kSlots=*/2> queue(64);
  fault::FaultPlan plan;
  plan.halt_at("wfq.announce", /*skip=*/0, /*victims=*/2);
  plan.arm();
  std::thread v0([&] { EXPECT_TRUE(queue.try_enqueue(1)); });
  std::thread v1([&] { EXPECT_TRUE(queue.try_enqueue(2)); });
  plan.wait_for_halted(2);

  std::thread third([&] { EXPECT_TRUE(queue.try_enqueue(3)); });
  while (plan.hits("wfq.slot_wait") == 0) std::this_thread::yield();
  EXPECT_GT(plan.hits("wfq.slot_wait"), 0u);

  plan.release_halted();
  v0.join();
  v1.join();
  third.join();
  plan.disarm();
  std::uint64_t out = 0, sum = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(queue.try_dequeue(out));
    sum += out;
  }
  EXPECT_EQ(sum, 6u);
  EXPECT_FALSE(queue.try_dequeue(out));
}

}  // namespace
}  // namespace msq
