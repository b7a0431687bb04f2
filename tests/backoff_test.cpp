// Pinning down the backoff policies' window semantics (paper section 4:
// "test-and-test_and_set locks with bounded exponential backoff"): doubling
// per pause(), saturation at max_spins, and reset() forgetting contention
// history.  The window() accessor exists precisely so these semantics are
// testable without timing anything.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "sim/queue_iface.hpp"
#include "sync/backoff.hpp"

namespace msq {
namespace {

TEST(Backoff, WindowStartsAtMinAndDoublesPerPause) {
  sync::Backoff backoff;
  EXPECT_EQ(backoff.window(), backoff.params().min_spins);
  std::uint32_t expected = backoff.params().min_spins;
  // min=4 doubles 8 times to reach max=1024.
  for (int i = 0; i < 8; ++i) {
    backoff.pause();
    expected *= 2;
    EXPECT_EQ(backoff.window(), expected) << "after pause " << i + 1;
  }
  EXPECT_EQ(backoff.window(), backoff.params().max_spins);
}

TEST(Backoff, WindowSaturatesAtMaxAndStaysThere) {
  sync::Backoff backoff(sync::Backoff::Params{.min_spins = 2, .max_spins = 16});
  for (int i = 0; i < 50; ++i) backoff.pause();
  EXPECT_EQ(backoff.window(), 16u);
  backoff.pause();  // saturated: further pauses must not overflow past max
  EXPECT_EQ(backoff.window(), 16u);
}

TEST(Backoff, MaxNotAPowerOfTwoMultipleOfMinStillBounds) {
  // min=4 doubles 4,8,16,32,64 -- the last double overshoots max=48; the
  // policy's contract is "window stops growing once >= max", so the window
  // must never double AGAIN past that point.
  sync::Backoff backoff(sync::Backoff::Params{.min_spins = 4, .max_spins = 48});
  std::uint32_t prev = backoff.window();
  for (int i = 0; i < 20; ++i) {
    backoff.pause();
    const std::uint32_t w = backoff.window();
    EXPECT_LE(w, 2 * 48u) << "window grew after reaching max";
    EXPECT_TRUE(w == prev || w == 2 * prev);
    prev = w;
  }
  EXPECT_EQ(prev, 64u);  // one overshoot, then pinned
}

TEST(Backoff, ResetRestoresMinAfterAnyAmountOfContention) {
  sync::Backoff backoff;
  for (int i = 0; i < 30; ++i) backoff.pause();
  EXPECT_EQ(backoff.window(), backoff.params().max_spins);
  backoff.reset();
  EXPECT_EQ(backoff.window(), backoff.params().min_spins);
  // And the doubling ladder restarts from scratch.
  backoff.pause();
  EXPECT_EQ(backoff.window(), 2 * backoff.params().min_spins);
}

TEST(Backoff, ResetOnFreshBackoffIsANoOp) {
  sync::Backoff backoff;
  backoff.reset();
  EXPECT_EQ(backoff.window(), backoff.params().min_spins);
}

/// The spin counts of `n` consecutive pauses.
std::vector<std::uint64_t> spin_sequence(sync::Backoff& backoff, int n) {
  std::vector<std::uint64_t> spins;
  for (int i = 0; i < n; ++i) spins.push_back(backoff.pause());
  return spins;
}

TEST(Backoff, DefaultJitterDiffersAcrossThreads) {
  // Competing threads must not draw the same pauses, or the jitter would
  // fail to desynchronise them.  12 draws from windows 4..1024: two
  // independent streams coincide with probability far below 2^-60.
  std::vector<std::uint64_t> a, b;
  std::thread([&] {
    sync::Backoff backoff;
    a = spin_sequence(backoff, 12);
  }).join();
  std::thread([&] {
    sync::Backoff backoff;
    b = spin_sequence(backoff, 12);
  }).join();
  EXPECT_NE(a, b);
}

TEST(Backoff, ExplicitSeedIsDeterministic) {
  std::vector<std::uint64_t> a, b;
  std::thread([&] {
    sync::Backoff backoff(sync::Backoff::Params{}, 42);
    a = spin_sequence(backoff, 12);
  }).join();
  sync::Backoff backoff(sync::Backoff::Params{}, 42);
  b = spin_sequence(backoff, 12);
  EXPECT_EQ(a, b);
}

TEST(NullBackoff, PauseAndResetAreCallableNoOps) {
  sync::NullBackoff backoff;
  backoff.pause();  // must not hang, spin unboundedly, or crash
  backoff.reset();
  backoff.pause();
}

TEST(SimBackoff, NextDoublesFromFourUpToMax) {
  sim::SimBackoff backoff(64);
  EXPECT_EQ(backoff.next(), 4.0);
  EXPECT_EQ(backoff.next(), 8.0);
  EXPECT_EQ(backoff.next(), 16.0);
  EXPECT_EQ(backoff.next(), 32.0);
  EXPECT_EQ(backoff.next(), 64.0);
  EXPECT_EQ(backoff.next(), 64.0);  // saturated
  EXPECT_EQ(backoff.next(), 64.0);
}

TEST(SimBackoff, DisabledBackoffChargesUnitCost) {
  // max <= 0 is the ablation knob: every episode costs exactly 1 work unit
  // so retry loops still advance the simulated clock but never spread out.
  sim::SimBackoff backoff(0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(backoff.next(), 1.0);
}

}  // namespace
}  // namespace msq
