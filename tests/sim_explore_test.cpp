// Systematic bounded-preemption exploration (sim/explore.hpp): the paper's
// races and properties checked over EVERY schedule with at most two forced
// context switches, not just random ones.
//
// Headline assertion: the simulated MS queue keeps its structural
// invariants and exact linearizability on every explored schedule.  (The
// free list's ABA search runs on the shipped header under DPOR:
// tests/sim_aba_test.cpp.)
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "check/history.hpp"
#include "check/invariants.hpp"
#include "check/lin_check.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/ms_queue_sim.hpp"
#include "sim/queue_iface.hpp"
#include "sim/workload.hpp"

namespace msq::sim {
namespace {

// --- MS queue over the schedule space ----------------------------------------

Task<void> one_pair(Proc& p, SimQueue& queue, std::uint32_t producer,
                    check::ThreadLog& log, Engine& engine) {
  const std::uint64_t value = check::encode_value(producer, 1);
  auto inv = static_cast<std::int64_t>(engine.total_steps());
  for (;;) {
    const bool ok = co_await queue.enqueue(p, value);
    if (ok) break;
  }
  log.record(check::OpKind::kEnqueue, value, inv,
             static_cast<std::int64_t>(engine.total_steps()));
  inv = static_cast<std::int64_t>(engine.total_steps());
  const std::uint64_t out = co_await queue.dequeue(p);
  log.record(out == kEmpty ? check::OpKind::kDequeueEmpty
                           : check::OpKind::kDequeue,
             out, inv, static_cast<std::int64_t>(engine.total_steps()));
}

struct QueueWorld {
  Engine engine;
  std::unique_ptr<SimQueue> queue;
  std::vector<check::ThreadLog> logs;
  explicit QueueWorld(Algo algo) {
    queue = make_sim_queue(algo, engine, 8);
    logs.reserve(2);
    for (std::uint32_t t = 0; t < 2; ++t) logs.emplace_back(t);
    for (std::uint32_t t = 0; t < 2; ++t) {
      engine.spawn(0, [this, t](Proc& p) {
        return one_pair(p, *queue, t, logs[t], engine);
      });
    }
  }
};

class ExploreAllAlgos : public ::testing::TestWithParam<Algo> {};

INSTANTIATE_TEST_SUITE_P(EveryAlgorithm, ExploreAllAlgos,
                         ::testing::ValuesIn(kAllAlgos),
                         [](const auto& info) {
                           switch (info.param) {
                             case Algo::kSingleLock: return "SingleLock";
                             case Algo::kMc: return "Mc";
                             case Algo::kValois: return "Valois";
                             case Algo::kTwoLock: return "TwoLock";
                             case Algo::kPlj: return "Plj";
                             case Algo::kMs: return "Ms";
                           }
                           return "Unknown";
                         });

TEST_P(ExploreAllAlgos, InvariantsAndLinearizabilityOnEverySchedule) {
  // Two processes, one enqueue/dequeue pair each, EVERY schedule with at
  // most two forced preemptions.  Structural invariants hold after every
  // step for every algorithm; completed schedules must be exactly
  // linearizable.  Blocking algorithms may have schedules that never finish
  // (a preemption into a spinning peer); those are expected for them and
  // forbidden for the non-blocking ones.
  const Algo algo = GetParam();
  const bool non_blocking =
      algo == Algo::kMs || algo == Algo::kPlj || algo == Algo::kValois;
  std::unique_ptr<QueueWorld> world;
  std::uint64_t completed = 0;
  std::uint64_t blocked = 0;
  ExploreConfig config;
  config.max_preemptions = 2;
  config.max_steps_per_run = 3'000;
  const ExploreResult result = explore_schedules(
      config, 2,
      [&]() -> Engine& {
        world = std::make_unique<QueueWorld>(algo);
        return world->engine;
      },
      [&](Engine&) { world->queue->check_invariants(); },
      [&](Engine& engine) {
        if (!engine.all_done()) {
          ASSERT_FALSE(non_blocking)
              << algo_name(algo) << ": schedule blocked (non-blocking!)";
          ++blocked;
          return;
        }
        const auto history = check::merge_logs(world->logs);
        const auto lin = check::check_linearizable_exact(history);
        ASSERT_TRUE(lin.ok) << algo_name(algo) << ": " << lin.diagnosis;
        ++completed;
      });
  EXPECT_FALSE(result.budget_exhausted);
  // run + skipped = the covered placement space (skips are degenerate
  // placements that would replay an already-run schedule).
  EXPECT_GT(completed + result.schedules_skipped, 500u)
      << "schedule space suspiciously small";
  if (non_blocking) {
    EXPECT_EQ(blocked, 0u);
  }
  // Note: round-robin-with-forced-switch schedules never PARK a process
  // permanently (the preempted process gets the CPU back), so even the
  // blocking algorithms usually complete here; `blocked` counts the
  // genuinely wedged schedules if any arise.  No assertion either way.
}

// --- two-word accesses under DPOR --------------------------------------------
//
// A 16-byte CAS touches both words of its pair, so the explorer must order
// it against an access to either half.  ScqQueue reads an entry as two
// 8-byte loads (AtomicDoubleWord::load_halves) and lets the deposit CAS
// validate them: a rival CAS that lands between the two loads makes a torn
// guess, which the deposit CAS must then fail.  An explorer that saw only
// the CAS's first word would take the rival CAS to commute with the second
// load, and never run the torn schedule.

struct TornWorld {
  Engine engine;
  Addr cell = engine.memory().alloc(2);  // {meta, value}, both zero
  std::uint64_t seen[2] = {};
  bool deposited = false;

  static PendingOp cas2(Addr a, std::uint64_t lo, std::uint64_t hi,
                        std::uint64_t new_lo, std::uint64_t new_hi) {
    return {OpKind::kCas2, a, lo, hi, 0, MemOrder::kSeqCst, new_lo, new_hi};
  }

  TornWorld() {
    // The reader: load_halves, then the deposit CAS from what it saw.
    engine.spawn_fiber(0, [this](Proc& p) {
      seen[0] = p.perform({OpKind::kRead, cell});
      seen[1] = p.perform({OpKind::kRead, cell + 1});
      std::uint64_t high = 0;
      const std::uint64_t low = p.perform(cas2(cell, seen[0], seen[1], 2, 2),
                                          &high);
      deposited = low == seen[0] && high == seen[1];
    });
    // The rival: one 16-byte CAS {0, 0} -> {1, 1}.
    engine.spawn_fiber(
        0, [this](Proc& p) { (void)p.perform(cas2(cell, 0, 0, 1, 1)); });
  }
};

TEST(ExploreDpor, ATornLoadHalvesMeetsTheRivalCasAndTheDepositFails) {
  std::unique_ptr<TornWorld> world;
  std::uint64_t torn = 0;
  std::uint64_t two_word_steps = 0;
  const DporResult result = explore_dpor(
      DporConfig{}, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<TornWorld>();
        return world->engine;
      },
      [&](Engine& e) {
        const Engine::LastAccess& a = e.last_access();
        if (a.valid && a.kind == OpKind::kCas2) {
          EXPECT_EQ(a.words, 2);
          ++two_word_steps;
        }
      },
      [&](Engine& e) {
        ASSERT_TRUE(e.all_done());
        if (world->seen[0] == 0 && world->seen[1] == 1) {
          ++torn;
          EXPECT_FALSE(world->deposited) << "a torn guess was deposited";
          EXPECT_EQ(e.memory().peek(world->cell), 1u);
          EXPECT_EQ(e.memory().peek(world->cell + 1), 1u);
        }
      });
  // The rival CAS conflicts with each of the reader's three steps, so
  // there are four traces -- one per place it can land -- and one of them
  // puts it between the two loads.
  EXPECT_EQ(result.schedules_run, 4u);
  EXPECT_EQ(torn, 1u);
  EXPECT_GT(two_word_steps, 0u);
}

}  // namespace
}  // namespace msq::sim
