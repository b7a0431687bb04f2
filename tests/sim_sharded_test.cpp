// Schedule-exhaustive model of the sharded queue's empty scan, driven
// through DPOR: demonstrates the lost-item race of a naive per-shard sweep
// and proves the ticket double-collect fix (src/queues/sharded_queue.hpp).
//
// The race (ISSUE wording): consumer scans shard A empty; a producer
// enqueues to A; a second consumer -- having SEEN A's new item -- drains
// shard B; the first consumer scans B empty and wrongly reports the whole
// queue empty, although some shard held an item at every instant of its
// operation.  No linearization point for the empty verdict exists.
//
// Model: each shard is one word, count<<32 | item (0 = no item), so an
// enqueue is a single faa that bumps the count AND deposits the item
// atomically.  Making announce+insert one step deliberately carves away
// the orthogonal stalled-enqueuer window (announced before the scan,
// inserted mid-scan), where the real queue's empty verdict can have no
// linearization at all (docs/ALGORITHMS.md, property 4); what remains is
// exactly the scan-ordering race the double collect exists to fix, so the
// guarded consumer must show ZERO violations across the full DPOR sweep
// while the naive consumer must show at least one.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <memory>

#include "sim/engine.hpp"
#include "sim/explore.hpp"

namespace msq::sim {
namespace {

constexpr std::uint64_t kItemMask = 0xffff'ffffu;
constexpr std::uint64_t kCountOne = 1ull << 32;
constexpr std::uint64_t kNoResult = ~0ull;

[[nodiscard]] constexpr std::uint64_t shard_item(std::uint64_t s) noexcept {
  return s & kItemMask;
}
[[nodiscard]] constexpr std::uint64_t shard_count(std::uint64_t s) noexcept {
  return s >> 32;
}

/// Take the observed item out of one shard word, count preserved.  CAS so
/// a racing taker loses cleanly; returns the item or 0.
Task<std::uint64_t> take_item(Proc& p, Addr shard) {
  for (;;) {
    const std::uint64_t s = co_await p.read(shard);
    const std::uint64_t item = shard_item(s);
    if (item == 0) co_return 0;
    co_await p.at("SHARD_TAKE");
    const std::uint64_t seen = co_await p.cas(shard, s, s - item);
    if (seen == s) co_return item;
  }
}

/// The buggy sweep: each shard checked once, in order, no coherence check.
Task<void> naive_dequeue(Proc& p, Addr shard_a, Addr shard_b,
                         std::uint64_t& result) {
  co_await p.at("SCAN_A");
  std::uint64_t item = co_await take_item(p, shard_a);
  if (item != 0) {
    result = item;
    co_return;
  }
  co_await p.at("SCAN_B");
  item = co_await take_item(p, shard_b);
  result = item;  // 0 = reported empty
}

/// The fixed sweep: counts collected before and after; an empty verdict is
/// only returned if no enqueue bumped any count across the whole scan,
/// otherwise the sweep re-runs (sharded_queue.hpp try_dequeue).
Task<void> guarded_dequeue(Proc& p, Addr shard_a, Addr shard_b,
                           std::uint64_t& result) {
  for (;;) {
    co_await p.at("COLLECT");
    const std::uint64_t pre_a = co_await p.read(shard_a);
    const std::uint64_t pre_b = co_await p.read(shard_b);
    co_await p.at("SCAN_A");
    std::uint64_t item = co_await take_item(p, shard_a);
    if (item != 0) {
      result = item;
      co_return;
    }
    co_await p.at("SCAN_B");
    item = co_await take_item(p, shard_b);
    if (item != 0) {
      result = item;
      co_return;
    }
    co_await p.at("VERIFY");
    const std::uint64_t post_a = co_await p.read(shard_a);
    const std::uint64_t post_b = co_await p.read(shard_b);
    if (shard_count(post_a) == shard_count(pre_a) &&
        shard_count(post_b) == shard_count(pre_b)) {
      result = 0;  // coherent: all shards simultaneously empty
      co_return;
    }
    // A ticket moved: an enqueue landed mid-scan; rescan (kEmptyRescan in
    // the real queue).  Terminates: the model's producer enqueues once.
  }
}

/// Single-step enqueue: bump count and deposit the item atomically.
Task<void> enqueue_item(Proc& p, Addr shard, std::uint64_t value) {
  co_await p.at("ENQ");
  co_await p.faa(shard, kCountOne + value);
}

/// The witness of continuous non-emptiness: drains shard B only after
/// seeing shard A non-empty.  If it got B's item, then from time 0 (B
/// pre-loaded) through its take (A already filled) through the consumer's
/// verdict (nobody else empties A), some shard always held an item.
Task<void> steal_after_seeing(Proc& p, Addr shard_a, Addr shard_b,
                              std::uint64_t& got) {
  co_await p.at("PEEK_A");
  const std::uint64_t a = co_await p.read(shard_a);
  if (shard_item(a) == 0) {
    got = 0;
    co_return;
  }
  got = co_await take_item(p, shard_b);
}

constexpr std::uint64_t kItemA = 5;
constexpr std::uint64_t kItemB = 7;

struct ScanWorld {
  Engine engine;
  Addr shard_a = 0;
  Addr shard_b = 0;
  std::uint64_t consumer_result = kNoResult;
  std::uint64_t helper_got = kNoResult;

  explicit ScanWorld(bool guarded) {
    shard_a = engine.memory().alloc(1);
    shard_b = engine.memory().alloc(1);
    // Shard B starts non-empty (count 1, item 7); shard A empty.
    engine.memory().word(shard_b) = kCountOne + kItemB;
    engine.spawn(0, [this, guarded](Proc& p) {
      return guarded ? guarded_dequeue(p, shard_a, shard_b, consumer_result)
                     : naive_dequeue(p, shard_a, shard_b, consumer_result);
    });
    engine.spawn(0, [this](Proc& p) { return enqueue_item(p, shard_a, kItemA); });
    engine.spawn(0, [this](Proc& p) {
      return steal_after_seeing(p, shard_a, shard_b, helper_got);
    });
  }
};

struct SweepStats {
  std::uint64_t schedules = 0;
  std::uint64_t violations = 0;  // empty verdict while provably non-empty
  std::uint64_t empty_verdicts = 0;
};

SweepStats sweep(bool guarded) {
  std::unique_ptr<ScanWorld> world;
  SweepStats stats;
  DporConfig config;
  config.max_steps_per_run = 5'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/3,
      [&]() -> Engine& {
        world = std::make_unique<ScanWorld>(guarded);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        ++stats.schedules;
        ASSERT_NE(world->consumer_result, kNoResult) << "consumer unfinished";
        ASSERT_NE(world->helper_got, kNoResult) << "helper unfinished";
        // Conservation on every schedule: both items end up taken exactly
        // once or still in a shard (values are distinct, so sums decide).
        const std::uint64_t remaining =
            shard_item(engine.memory().peek(world->shard_a)) +
            shard_item(engine.memory().peek(world->shard_b));
        EXPECT_EQ(world->consumer_result + world->helper_got + remaining,
                  kItemA + kItemB);
        if (world->consumer_result == 0) {
          ++stats.empty_verdicts;
          // Helper holding B's item proves the queue was never empty
          // across the consumer's whole operation (see steal_after_seeing).
          if (world->helper_got == kItemB) ++stats.violations;
        }
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_GT(result.schedules_run, 1u) << "DPOR explored no alternatives";
  return stats;
}

TEST(SimShardedScan, NaiveSweepLosesAnItemOnSomeSchedule) {
  const SweepStats stats = sweep(/*guarded=*/false);
  EXPECT_GT(stats.violations, 0u)
      << "the empty-scan race must be reachable: consumer scans A empty, "
         "producer fills A, helper drains B, consumer scans B empty";
  std::cout << "[ SIM      ] naive sweep: " << stats.schedules
            << " schedules, " << stats.empty_verdicts << " empty verdicts, "
            << stats.violations << " non-linearizable\n";
}

TEST(SimShardedScan, TicketDoubleCollectMakesEveryEmptyVerdictCoherent) {
  const SweepStats stats = sweep(/*guarded=*/true);
  EXPECT_EQ(stats.violations, 0u)
      << "a double-collect empty verdict coincided with a provably "
         "non-empty queue";
  // The fix must not simply forbid empty verdicts: schedules where the
  // producer runs after the consumer finishes still (correctly) see A
  // empty... but B starts full, so a correct consumer NEVER reports empty
  // in this world -- it must find kItemA or kItemB.
  EXPECT_EQ(stats.empty_verdicts, 0u)
      << "B holds an item until the helper proves A non-empty, so a "
         "coherent scan always finds something";
  std::cout << "[ SIM      ] guarded sweep: " << stats.schedules
            << " schedules, 0 violations\n";
}

}  // namespace
}  // namespace msq::sim
