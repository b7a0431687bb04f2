// The free-list proofs, run on the shipped src/mem/freelist.hpp: Treiber's
// stack over counted pointers (paper section 2), which every pool-backed
// queue recycles its nodes through, and the ABA problem (section 1) its
// counts defeat.  This is a model-build target (MSQ_MODEL=1): every
// FreeList access is one sim::Engine step of the fiber process that makes
// it, and the "fl.no_count" mutant keeps the old count on the top CAS --
// the bare-pointer stack the ABA problem corrupts.  A world is set up, and
// its end state read, by FreeList's own calls made off every fiber (before
// the first step, or once every process is done or crashed), which take no
// step.
//
//  1. AbaProblem: the classic pop race as a directed schedule.
//       stack: Top -> A -> B.
//       P1 starts a pop: reads Top (= A), reads A.next (= B), then STALLS.
//       P2 pops A, pops B, then pushes A back.        (A-B-A on Top)
//       P1 resumes and executes CAS(Top, A, B).
//     With bare pointers the CAS succeeds -- installing B, which P2 owns
//     -- and the structure is corrupt.  With counted pointers the count
//     has advanced, the CAS fails, and P1 retries correctly.
//  2. ExploreAba: the same world over every DPOR schedule: some schedule
//     corrupts the bare-pointer stack, none the counted one.
//  3. Dpor: DPOR reaches exactly the brute-force set of terminal states of
//     a two-popper race, with fewer schedules (the ratio is logged).
//  4. TreiberCrashSweep: a pusher crash-stopped at every step of its push;
//     the survivors still complete, and every node is accounted for.
//  5. SimModel: the off-fiber rule itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "mem/freelist.hpp"
#include "mem/node_pool.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "tagged/atomic_tagged.hpp"

static_assert(MSQ_MODEL, "the free-list proofs run the model build");

namespace msq::sim {
namespace {

struct Node {
  tagged::AtomicTagged next;
};
using List = mem::FreeList<Node>;
constexpr std::uint32_t kNull = List::kNull;

/// A pool of `n` nodes and the free list over them, on the newest engine.
/// The list's constructor pushes node 0 first, so node n - 1 is on top.
struct FreeStack {
  mem::NodePool<Node> pool;
  List list{pool};

  explicit FreeStack(std::uint32_t n) : pool(n) {}

  /// Pop every node, top first.  More pops than nodes means a node came
  /// off twice, so the walk stops there.
  std::vector<std::uint32_t> drain() {
    std::vector<std::uint32_t> nodes;
    while (nodes.size() <= pool.capacity()) {
      const std::uint32_t n = list.try_allocate();
      if (n == kNull) break;
      nodes.push_back(n);
    }
    return nodes;
  }
};

// ---- 1 & 2: the A-B-A ------------------------------------------------------

/// Top -> A -> B.  The victim pops once; the mutator pops twice and pushes
/// its first pop back: the second "A" of A-B-A.
struct AbaWorld {
  static constexpr std::uint32_t kVictim = 0;
  static constexpr std::uint32_t kMutator = 1;
  static constexpr std::uint32_t kA = 1;
  static constexpr std::uint32_t kB = 0;

  Engine engine;
  FreeStack stack{2};
  std::uint32_t victim_got = kNull;
  std::uint32_t first = kNull;
  std::uint32_t second = kNull;

  explicit AbaWorld(const char* mutant)
      : engine(EngineConfig{.mutant = mutant}) {
    engine.spawn_fiber(
        0, [this](Proc&) { victim_got = stack.list.try_allocate(); });
    engine.spawn_fiber(0, [this](Proc&) {
      first = stack.list.try_allocate();
      second = stack.list.try_allocate();
      if (first != kNull) stack.list.free(first);
    });
  }

  /// Corruption by ownership accounting: the final stack holds a node
  /// twice, or a node a process popped and never pushed back.
  [[nodiscard]] bool corrupt(const std::vector<std::uint32_t>& nodes) const {
    std::set<std::uint32_t> seen;
    for (const std::uint32_t n : nodes) {
      if (!seen.insert(n).second || n == victim_got || n == second) {
        return true;
      }
    }
    return false;
  }
};

/// The directed schedule; returns the final stack.
std::vector<std::uint32_t> run_aba_schedule(AbaWorld& w) {
  // The victim reads Top and A.next, and stops before its CAS...
  EXPECT_TRUE(w.engine.step(AbaWorld::kVictim));
  EXPECT_TRUE(w.engine.step(AbaWorld::kVictim));
  EXPECT_STREQ(w.engine.label(AbaWorld::kVictim), "fl.pop_next");
  // ...the mutator performs the full A-B-A...
  while (w.engine.step(AbaWorld::kMutator)) {
  }
  EXPECT_EQ(w.first, AbaWorld::kA);
  EXPECT_EQ(w.second, AbaWorld::kB);
  // ...and the victim attempts CAS(Top, A, B).
  while (w.engine.step(AbaWorld::kVictim)) {
  }
  EXPECT_TRUE(w.engine.all_done());
  return w.stack.drain();
}

TEST(AbaProblem, BarePointersCorruptTheStack) {
  AbaWorld w("fl.no_count");
  const auto final_stack = run_aba_schedule(w);
  // The stale CAS succeeded: the victim "popped" A (again) and installed B
  // -- a node the mutator owns.  Corruption: B surfaced.
  EXPECT_EQ(w.victim_got, AbaWorld::kA);
  ASSERT_FALSE(final_stack.empty());
  EXPECT_EQ(final_stack.front(), AbaWorld::kB)
      << "expected the freed node B to surface -- the ABA corruption";
  EXPECT_TRUE(w.corrupt(final_stack));
}

TEST(AbaProblem, ModificationCountersDefeatTheRace) {
  AbaWorld w(nullptr);
  const auto final_stack = run_aba_schedule(w);
  // The victim's CAS failed (count advanced); it retried and correctly
  // popped the reinstated A, leaving an EMPTY stack.
  EXPECT_EQ(w.victim_got, AbaWorld::kA);
  EXPECT_TRUE(final_stack.empty())
      << "stack should be empty after both pops completed correctly";
}

/// Corrupt schedules of AbaWorld over every DPOR schedule.
std::uint64_t count_corrupt_schedules(const char* mutant) {
  std::unique_ptr<AbaWorld> world;
  std::uint64_t corrupt = 0;
  std::uint64_t checked = 0;
  const DporResult result = explore_dpor(
      DporConfig{}, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<AbaWorld>(mutant);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        ASSERT_TRUE(engine.all_done());
        corrupt += world->corrupt(world->stack.drain()) ? 1 : 0;
        ++checked;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(checked, result.schedules_run);
  EXPECT_GT(checked, 1u) << "DPOR covered suspiciously few schedules";
  std::cout << "[ ABA      ] " << (mutant != nullptr ? mutant : "counted")
            << ": " << result.schedules_run << " schedules + "
            << result.sleep_blocked << " sleep-blocked, " << corrupt
            << " corrupt\n";
  return corrupt;
}

TEST(ExploreAba, SystematicSearchFindsBarePointerCorruption) {
  EXPECT_GT(count_corrupt_schedules("fl.no_count"), 0u)
      << "DPOR failed to find the classic ABA race";
}

TEST(ExploreAba, CountedPointersSurviveTheWholeScheduleSpace) {
  EXPECT_EQ(count_corrupt_schedules(nullptr), 0u)
      << "a schedule corrupted the counted-pointer stack";
}

// ---- 3: DPOR vs brute force -----------------------------------------------

/// Two poppers racing on a stack holding [A, B]: small enough to enumerate
/// EVERY interleaving, contended enough that schedules genuinely differ
/// (who gets A, who gets B, who retries).
struct PopRaceWorld {
  Engine engine;
  FreeStack stack{2};
  std::uint32_t got[2] = {kNull, kNull};

  PopRaceWorld() {
    for (std::uint32_t& out : got) {
      engine.spawn_fiber(0, [this, &out](Proc&) {
        out = stack.list.try_allocate();
      });
    }
  }

  /// Who got what, and the stack left over (read by draining it).
  [[nodiscard]] std::string terminal() {
    std::string s = std::to_string(got[0]) + "/" + std::to_string(got[1]) + ":";
    for (const std::uint32_t n : stack.drain()) s += std::to_string(n) + ",";
    return s;
  }
};

/// Exhaustive DFS over every scheduling choice, by replay.  Complete
/// schedule count lands in `schedules`, terminal states in `states`.
void brute_force_terminals(std::set<std::string>& states,
                           std::uint64_t& schedules) {
  std::vector<std::vector<std::uint32_t>> options;  // enabled procs per depth
  std::vector<std::size_t> pick;                    // chosen index per depth
  schedules = 0;
  for (;;) {
    PopRaceWorld world;
    Engine& engine = world.engine;
    for (std::size_t d = 0; d < pick.size(); ++d) {
      engine.step(options[d][pick[d]]);
    }
    for (;;) {  // extend with first-enabled until everything finishes
      std::vector<std::uint32_t> enabled;
      for (std::uint32_t q = 0; q < engine.process_count(); ++q) {
        if (!engine.done(q)) enabled.push_back(q);
      }
      if (enabled.empty()) break;
      ASSERT_LT(options.size(), 64u) << "brute-force runaway";  // safety net
      options.push_back(enabled);
      pick.push_back(0);
      engine.step(enabled[0]);
    }
    ++schedules;
    states.insert(world.terminal());
    while (!pick.empty()) {  // backtrack to the deepest untried choice
      if (++pick.back() < options.back().size()) break;
      pick.pop_back();
      options.pop_back();
    }
    if (pick.empty()) break;
  }
}

TEST(Dpor, CoversEveryBruteForceTerminalStateWithFewerSchedules) {
  std::set<std::string> brute_states;
  std::uint64_t brute_schedules = 0;
  brute_force_terminals(brute_states, brute_schedules);
  ASSERT_GT(brute_schedules, 0u);
  ASSERT_FALSE(brute_states.empty());

  std::set<std::string> dpor_states;
  std::unique_ptr<PopRaceWorld> world;
  const DporResult result = explore_dpor(
      DporConfig{}, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<PopRaceWorld>();
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine&) { dpor_states.insert(world->terminal()); });

  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(dpor_states, brute_states)
      << "DPOR missed (or invented) a reachable terminal state";
  ASSERT_LT(result.schedules_run, brute_schedules)
      << "DPOR must beat brute-force enumeration";
  std::cout << "[ DPOR     ] brute-force " << brute_schedules
            << " schedules, DPOR " << result.schedules_run << " run + "
            << result.sleep_blocked << " sleep-blocked, "
            << brute_states.size() << " distinct terminal states, reduction "
            << static_cast<double>(brute_schedules) /
                   static_cast<double>(result.schedules_run)
            << "x\n";
}

// ---- 4: crash-stop at every step of a push ---------------------------------

constexpr std::uint32_t kSweepNodes = 4;
constexpr std::uint32_t kChurnRounds = 25;

/// The victim holds one node, popped before the first step, and pushes it
/// back.
struct CrashWorld {
  Engine engine;
  FreeStack stack{kSweepNodes};
  std::uint32_t node = stack.list.try_allocate();
  std::uint32_t victim = engine.spawn_fiber(
      0, [this](Proc&) { stack.list.free(node); });
};

/// Pop a node and push it back, `kChurnRounds` times: a survivor only ever
/// republishes a node it owns, so no node is ever in the stack twice.
void churn(List& list, std::uint64_t& ops) {
  for (std::uint32_t round = 0; round < kChurnRounds;) {
    const std::uint32_t n = list.try_allocate();
    if (n == kNull) continue;
    list.free(n);
    ops += 2;
    ++round;
  }
}

TEST(TreiberCrashSweep, SurvivorsCompleteAtEveryCrashStepOfAPush) {
  // Measure an uncrashed push first.
  std::uint64_t push_steps = 0;
  {
    CrashWorld w;
    while (w.engine.step(w.victim)) ++push_steps;
    ASSERT_GT(push_steps, 0u);
  }

  for (std::uint64_t k = 0; k < push_steps; ++k) {
    std::uint64_t survivor_ops = 0;  // before the world: outlives the fibers
    CrashWorld w;
    for (std::uint64_t s = 0; s < k; ++s) w.engine.step(w.victim);
    ASSERT_FALSE(w.engine.done(w.victim));
    w.engine.crash(w.victim);

    std::uint32_t survivors[2];
    for (std::uint32_t& id : survivors) {
      id = w.engine.spawn_fiber(
          0, [&](Proc&) { churn(w.stack.list, survivor_ops); });
    }
    for (std::uint64_t i = 0; i < 6'000; ++i) {
      if (!w.engine.step_random()) break;
    }
    for (const std::uint32_t id : survivors) {
      ASSERT_TRUE(w.engine.done(id))
          << "a survivor wedged after the victim crashed at push step " << k
          << " (" << w.engine.label(w.victim) << ")";
    }
    EXPECT_EQ(survivor_ops, 4u * kChurnRounds);

    // Every node but the victim's is back, once; the victim's is there
    // too iff its push CAS landed before the crash.
    const auto nodes = w.stack.drain();
    const std::set<std::uint32_t> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), nodes.size()) << "duplicate node in stack";
    for (std::uint32_t n = 0; n < kSweepNodes; ++n) {
      EXPECT_TRUE(n == w.node || unique.contains(n))
          << "node " << n << " lost at crash step " << k;
    }
  }
}

// ---- 5: the off-fiber rule --------------------------------------------------

TEST(SimModel, OffFiberCallsBeforeTheFirstStepTakeNoStep) {
  Engine engine;
  FreeStack stack{4};  // four pushes
  EXPECT_EQ(stack.list.try_allocate(), 3u);
  EXPECT_EQ(stack.list.try_allocate(), 2u);
  EXPECT_EQ(engine.total_steps(), 0u);

  std::uint32_t got = kNull;
  const std::uint32_t id = engine.spawn_fiber(
      0, [&](Proc&) { got = stack.list.try_allocate(); });
  while (engine.step(id)) {
  }
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(engine.total_steps(), 3u);  // load Top, load next, CAS

  // Every process is done: the real code reads the end state, at no step.
  EXPECT_EQ(stack.drain(), std::vector<std::uint32_t>{0});
  EXPECT_EQ(engine.total_steps(), 3u);
}

TEST(SimModelDeathTest, AnOffFiberCallMidRunAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the off-fiber rule is an assert, which NDEBUG removes";
#else
  EXPECT_DEATH(
      {
        Engine engine;
        FreeStack stack{2};
        const std::uint32_t id = engine.spawn_fiber(
            0, [&](Proc&) { (void)stack.list.try_allocate(); });
        engine.step(id);  // the fiber has loaded Top and is mid-pop
        (void)stack.list.try_allocate();
      },
      "off a fiber mid-run");
#endif
}

}  // namespace
}  // namespace msq::sim
