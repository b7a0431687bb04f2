// Happens-before race detection (check/race.hpp) wired into the simulator,
// and DPOR (sim/explore.hpp) as its schedule driver.
//
// Headline assertions:
//  * an unsynchronized counter increment is reported as a race naming the
//    labelled lines of BOTH conflicting accesses;
//  * a CAS-spin lock whose unlock is an atomic swap is race-free under the
//    rmw sync model, while the same lock with a plain-write unlock races --
//    the memory-order audit the lint enforces textually, demonstrated
//    dynamically;
//  * the simulated MS and two-lock queues report ZERO races across a full
//    DPOR sweep under their declared edges (SyncModel::kFull, modelling the
//    seq_cst pseudo-code), while the naive no-edges model (SyncModel::kNone)
//    flags the Valois and single-lock queues immediately.
// (DPOR against brute force, on the shipped free list: tests/sim_aba_test.cpp.)
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "check/race.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/queue_iface.hpp"
#include "sim/workload.hpp"

namespace msq::sim {
namespace {

using check::SyncModel;

[[nodiscard]] EngineConfig race_config(SyncModel model) {
  EngineConfig config;
  config.race_detect = true;
  config.sync_model = model;
  return config;
}

[[nodiscard]] bool has_label(const check::RaceReport& r, std::string_view l) {
  return std::string_view(r.first_label) == l ||
         std::string_view(r.second_label) == l;
}

// --- the canonical bug: load-modify-store on a shared counter ---------------

Task<void> unsync_increment(Proc& p, Addr counter) {
  co_await p.at("C_READ");
  const std::uint64_t v = co_await p.read(counter);
  co_await p.at("C_WRITE");
  co_await p.write(counter, v + 1);
}

TEST(RaceDetect, UnsynchronizedCounterFlagsRaceWithBothLabels) {
  Engine engine(race_config(SyncModel::kRmw));
  const Addr counter = engine.memory().alloc(1);
  for (int t = 0; t < 2; ++t) {
    engine.spawn(0,
                 [&, counter](Proc& p) { return unsync_increment(p, counter); });
  }
  run_schedule(engine, {}, 1'000, nullptr);

  ASSERT_FALSE(engine.races().empty())
      << "unsynchronized increment not flagged";
  bool saw_labelled_pair = false;
  for (const check::RaceReport& r : engine.races().reports()) {
    EXPECT_EQ(r.addr, counter);
    if (has_label(r, "C_READ") || has_label(r, "C_WRITE")) {
      saw_labelled_pair = true;
      // The report must read like the paper's race catalogue: both sites
      // named, e.g. "P1 read at [C_READ] ... vs P0 write at [C_WRITE]".
      EXPECT_NE(r.format().find("C_"), std::string::npos) << r.format();
    }
  }
  EXPECT_TRUE(saw_labelled_pair)
      << "no report names the C_READ/C_WRITE pseudo-code lines";
}

Task<void> faa_increment(Proc& p, Addr counter) {
  co_await p.at("C_FAA");
  co_await p.faa(counter, 1);
}

TEST(RaceDetect, FetchAndAddCounterIsCleanUnderRmwModel) {
  Engine engine(race_config(SyncModel::kRmw));
  const Addr counter = engine.memory().alloc(1);
  for (int t = 0; t < 2; ++t) {
    engine.spawn(0,
                 [&, counter](Proc& p) { return faa_increment(p, counter); });
  }
  run_schedule(engine, {}, 1'000, nullptr);
  EXPECT_TRUE(engine.races().empty());
  EXPECT_EQ(engine.memory().peek(counter), 2u);
}

// --- memory-order audit, dynamically: the spin-lock unlock ------------------
//
// A CAS-spin lock synchronizes through its word only if the UNLOCK is also
// an atomic RMW (or a release store, which the rmw model approximates with
// swap).  Demoting the unlock to a plain write is exactly the bug the
// atomics lint's explicit-order rule exists to catch in real code; here the
// detector catches it dynamically through the missing happens-before edge.

Task<void> lock_protected_bump(Proc& p, Addr lock, Addr data,
                               bool swap_unlock) {
  for (;;) {
    co_await p.at("L_ACQ");
    const std::uint64_t old = co_await p.cas(lock, 0, 1);
    if (old == 0) break;
  }
  co_await p.at("L_DATA");
  const std::uint64_t v = co_await p.read(data);
  co_await p.write(data, v + 1);
  co_await p.at("L_REL");
  if (swap_unlock) {
    co_await p.swap(lock, 0);  // RMW: carries the release edge
  } else {
    co_await p.write(lock, 0);  // plain write: edge silently dropped
  }
}

std::uint64_t spinlock_races(bool swap_unlock) {
  Engine engine(race_config(SyncModel::kRmw));
  const Addr lock = engine.memory().alloc(1);
  const Addr data = engine.memory().alloc(1);
  for (int t = 0; t < 2; ++t) {
    engine.spawn(0, [&, lock, data](Proc& p) {
      return lock_protected_bump(p, lock, data, swap_unlock);
    });
  }
  run_schedule(engine, {}, 10'000, nullptr);
  EXPECT_EQ(engine.memory().peek(data), 2u);
  return engine.races().observed();
}

TEST(RaceDetect, SpinLockWithSwapUnlockIsClean) {
  EXPECT_EQ(spinlock_races(/*swap_unlock=*/true), 0u);
}

TEST(RaceDetect, SpinLockWithPlainWriteUnlockRaces) {
  EXPECT_GT(spinlock_races(/*swap_unlock=*/false), 0u)
      << "the dropped release edge on unlock must surface as a race";
}

// --- the queues under their declared edges ----------------------------------

Task<void> enqueue_one(Proc& p, SimQueue& queue, std::uint64_t value) {
  for (;;) {
    const bool ok = co_await queue.enqueue(p, value);
    if (ok) break;
  }
}

Task<void> dequeue_one(Proc& p, SimQueue& queue, std::uint64_t& out) {
  out = co_await queue.dequeue(p);
}

/// One producer, one consumer over a fresh simulated queue with race
/// detection under `model`.
struct RaceQueueWorld {
  Engine engine;
  std::unique_ptr<SimQueue> queue;
  std::uint64_t dequeued = kEmpty;

  RaceQueueWorld(Algo algo, SyncModel model) : engine(race_config(model)) {
    queue = make_sim_queue(algo, engine, 8);
    engine.spawn(0, [this](Proc& p) { return enqueue_one(p, *queue, 41); });
    engine.spawn(0, [this](Proc& p) { return dequeue_one(p, *queue, dequeued); });
  }
};

/// Total race observations across a full DPOR sweep of the world.
std::uint64_t races_across_dpor(Algo algo, SyncModel model,
                                std::uint64_t* schedules = nullptr) {
  std::unique_ptr<RaceQueueWorld> world;
  std::uint64_t observed = 0;
  DporConfig config;
  config.max_steps_per_run = 5'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<RaceQueueWorld>(algo, model);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) { observed += engine.races().observed(); });
  EXPECT_FALSE(result.budget_exhausted) << algo_name(algo);
  EXPECT_GT(result.schedules_run, 1u)
      << algo_name(algo) << ": DPOR explored no alternatives";
  if (schedules != nullptr) *schedules = result.schedules_run;
  return observed;
}

TEST(RaceDetect, MsQueueIsCleanUnderDeclaredEdgesAcrossDporSweep) {
  EXPECT_EQ(races_across_dpor(Algo::kMs, SyncModel::kFull), 0u)
      << "the MS queue raced under its declared (seq_cst pseudo-code) edges";
}

TEST(RaceDetect, TwoLockQueueIsCleanUnderDeclaredEdgesAcrossDporSweep) {
  EXPECT_EQ(races_across_dpor(Algo::kTwoLock, SyncModel::kFull), 0u)
      << "the two-lock queue raced under its declared edges";
}

TEST(RaceDetect, NaiveModeFlagsValoisAndSingleLockQueues) {
  // SyncModel::kNone models the naive port that declares NO ordering: every
  // conflicting pair is a race.  The detector must flag the known-racy
  // sharing immediately -- on the plain round-robin schedule, no
  // exploration needed.
  for (const Algo algo : {Algo::kValois, Algo::kSingleLock}) {
    RaceQueueWorld world(algo, SyncModel::kNone);
    run_schedule(world.engine, {}, 10'000, nullptr);
    EXPECT_GT(world.engine.races().observed(), 0u)
        << algo_name(algo) << ": naive mode flagged nothing";
  }
}

}  // namespace
}  // namespace msq::sim
