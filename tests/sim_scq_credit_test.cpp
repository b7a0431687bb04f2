// The SCQ credit slots, run on the shipped src/queues/scq_queue.hpp's
// take_credit/return_credit (a model-build target: see
// tests/sim_scq_test.cpp).  Spare credits sit in a depot word and in
// per-thread slot words, and an enqueue refuses only after a double
// collect -- a taking pass that reads every word zero, then a read-only
// pass that finds every word unchanged.  Each word's version bumps on
// every increase, so a word that reads the same zero twice held zero
// between the reads, and at the instant between the passes every credit
// was held by an item or by a call in progress.  The model build has four
// slots and a spill bound of one, and a fiber's slot is its process id.
//
// The claim, checked over every DPOR schedule: a refused enqueue is
// JUSTIFIED -- the ghost count of spare credits (depot plus every slot)
// reached zero at some step inside the refusing call.  The world is
// capacity 2 with one item queued (holding one credit) and the spare
// credit parked in a slot; a refuser, a dequeuer and an enqueuer race.
// Its negative control, the "scq.single_collect" mutant, refuses after the
// taking pass alone, and DPOR finds the schedule that makes that refusal
// unjustified: the dequeuer returns its credit to a slot the refuser
// already swept, and the enqueuer takes the parked credit before the
// refuser reaches its slot.  The spare count never drops to zero, yet the
// refuser saw zero everywhere.
//
// The version is what makes the second pass sound: without it (the
// "scq.no_version" mutant), a pass that reads every word zero twice can be
// fooled twice.  That takes two migrations inside one refusing call, more
// than the DPOR world holds, so a directed schedule over four processes
// shows it: with unversioned words the refuser refuses while a credit is
// spare at every step, and with versions the same schedule sends it back
// to take that credit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "check/history.hpp"
#include "check/lin_check.hpp"
#include "model_world.hpp"
#include "queues/scq_queue.hpp"
#include "scq_inspector.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"

namespace msq::sim {
namespace {

using Queue = queues::ScqQueue<std::uint64_t>;
using Scq = queues::ScqInspector;

constexpr std::uint32_t kHalf = 2;
constexpr std::uint64_t kQueued = 1;  // the prefilled item
constexpr std::uint32_t kRefuser = 0;
constexpr std::uint32_t kDequeuer = 1;
constexpr std::uint32_t kEnqueuer = 2;

/// One enqueue call: its history window and whether it was refused.
struct EnqCall {
  std::int64_t invoke = 0;
  std::int64_t response = 0;
  bool refused = false;
};

struct RefusalWorld {
  Engine engine;
  Queue ring{kHalf};
  std::vector<check::ThreadLog> logs;
  std::vector<EnqCall> enqs;
  std::vector<std::uint32_t> spare;  // [k]: spare credits after k steps
  std::uint32_t peak_unconsumed = 0;

  /// `parked`: the slot holding the spare credit.
  RefusalWorld(const char* mutant, std::uint32_t parked)
      : engine(with_mutant(mutant)) {
    EXPECT_TRUE(ring.try_enqueue(kQueued));
    Scq::park_credit(engine, ring, parked);
    for (std::uint32_t t = 0; t < 4; ++t) logs.emplace_back(t);
    logs[3].record(check::OpKind::kEnqueue, kQueued, -2, -1);
    enqs.reserve(2);
    spare.push_back(Scq::peek_free_credits(engine, ring));
    engine.spawn_fiber(0, [this](Proc& p) { enqueue(p, 7); });
    engine.spawn_fiber(0, [this](Proc& p) { dequeue(p); });
    engine.spawn_fiber(0, [this](Proc& p) { enqueue(p, 8); });
  }

  void enqueue(Proc& p, std::uint64_t v) {
    const std::int64_t inv = invoked_at(p);
    const bool ok = ring.try_enqueue(v);
    const std::int64_t resp = returned_at(p);
    if (ok) logs[p.id()].record(check::OpKind::kEnqueue, v, inv, resp);
    enqs.push_back({inv, resp, !ok});
  }

  void dequeue(Proc& p) {
    const std::int64_t inv = invoked_at(p);
    std::uint64_t v = 0;
    const bool ok = ring.try_dequeue(v);
    logs[p.id()].record(
        ok ? check::OpKind::kDequeue : check::OpKind::kDequeueEmpty,
        ok ? v : 0, inv, returned_at(p));
  }

  void sample() {
    spare.resize(engine.total_steps() + 1, spare.back());
    spare.back() = Scq::peek_free_credits(engine, ring);
    peak_unconsumed =
        std::max(peak_unconsumed, Scq::peek_unconsumed(engine, ring));
  }

  /// A refused call whose window never saw the spare count at zero.
  [[nodiscard]] const EnqCall* unjustified_refusal() const {
    for (const EnqCall& c : enqs) {
      if (!c.refused) continue;
      const auto first = spare.begin() + c.invoke / 2;
      const auto last = spare.begin() + c.response / 2 + 1;
      if (*std::min_element(first, last) > 0) return &c;
    }
    return nullptr;
  }

  /// Label hits at `site` over every process.
  [[nodiscard]] std::uint64_t hits(const char* site) const {
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < engine.process_count(); ++i) {
      n += engine.label_hits(i, site);
    }
    return n;
  }
};

TEST(SimScqCredits, EveryRefusalSawTheSpareCreditsAtZero) {
  // The spare credit parked in the enqueuer's slot (the control's
  // placement), in the dequeuer's (its return then spills), and in the
  // refuser's own.
  for (const std::uint32_t parked : {kEnqueuer, kDequeuer, kRefuser}) {
    SCOPED_TRACE(testing::Message() << "spare credit in slot " << parked);
    std::unique_ptr<RefusalWorld> world;
    std::uint64_t checked = 0;
    std::uint64_t refusals = 0;
    std::uint64_t steals = 0;      // steal CAS attempts on another's slot
    std::uint64_t spills = 0;      // slot overflows moved to the depot
    std::uint64_t recollects = 0;  // second passes that saw a word move
    DporConfig config;
    config.max_steps_per_run = 4'000;
    const DporResult result = explore_dpor(
        config, /*process_count=*/3,
        [&]() -> Engine& {
          world = std::make_unique<RefusalWorld>(nullptr, parked);
          return world->engine;
        },
        [&](Engine&) { world->sample(); },
        [&](Engine& engine) {
          ASSERT_TRUE(engine.all_done()) << "a schedule wedged an SCQ op";
          ASSERT_EQ(world->unjustified_refusal(), nullptr)
              << "refused while a spare credit existed throughout the call";
          ASSERT_LE(world->peak_unconsumed, kHalf) << "ring overfilled";
          const auto history = check::merge_logs(world->logs);
          const auto lin = check::check_linearizable_exact(history);
          ASSERT_TRUE(lin.ok) << lin.diagnosis;
          // Conservation at quiescence: no call holds a credit, so the
          // spare ones and the queued items account for all of them.
          ASSERT_EQ(Scq::peek_free_credits(engine, world->ring) +
                        Scq::peek_unconsumed(engine, world->ring),
                    kHalf);
          std::uint64_t refused = 0;
          for (const EnqCall& c : world->enqs) refused += c.refused ? 1 : 0;
          refusals += refused;
          steals += world->hits("scq.credit_steal");
          spills += Scq::peek_spills(engine, world->ring);
          // Each refusal ends on a second pass that saw nothing move; any
          // other second pass saw a word move and went back to take.
          recollects += world->hits("scq.credit_collect") - refused;
          ++checked;
        });
    EXPECT_FALSE(result.budget_exhausted);
    EXPECT_EQ(checked, result.schedules_run);
    // Few processes touch the same word, so the space is small; the floor
    // only guards against an explorer that stops after one.
    EXPECT_GT(checked, 10u) << "DPOR covered suspiciously few schedules";
    // Not vacuous: some calls refuse, and some second passes see a word
    // move and go back to take the credit that arrived.
    EXPECT_GT(refusals, 0u);
    EXPECT_GT(recollects, 0u);
    if (parked == kEnqueuer) {
      EXPECT_GT(steals, 0u);
    }
    if (parked == kDequeuer) {
      EXPECT_GT(spills, 0u);
    }
  }
}

TEST(SimScqCredits, ASingleCollectRefusesWhileACreditIsSpare) {
  // Stop at the first schedule whose refusal saw no zero: the refuser
  // sweeps its slot, the depot and the dequeuer's slot; the dequeuer
  // returns its credit there; the enqueuer takes the parked credit; the
  // refuser reads the enqueuer's slot empty and gives up.
  struct Found {};
  std::unique_ptr<RefusalWorld> world;
  std::uint64_t schedules = 0;
  bool found = false;
  DporConfig config;
  config.max_steps_per_run = 4'000;
  try {
    (void)explore_dpor(
        config, /*process_count=*/3,
        [&]() -> Engine& {
          world = std::make_unique<RefusalWorld>("scq.single_collect",
                                                 kEnqueuer);
          return world->engine;
        },
        [&](Engine&) { world->sample(); },
        [&](Engine&) {
          ++schedules;
          if (world->unjustified_refusal() != nullptr) {
            found = true;
            throw Found{};
          }
        });
  } catch (const Found&) {
  }
  ASSERT_TRUE(found) << "no single-collect schedule refused with a spare "
                        "credit across "
                     << schedules << " schedules";
  // The witness: the refuser's call saw the dequeuer's return and the
  // enqueuer's take, and the spare count stayed at one or more.
  const EnqCall* refusal = world->unjustified_refusal();
  ASSERT_NE(refusal, nullptr);
  EXPECT_GE(*std::min_element(world->spare.begin() + refusal->invoke / 2,
                              world->spare.begin() + refusal->response / 2 + 1),
            1u);
}

// ---- the version bump: a directed two-migration schedule -----------------

/// Capacity 4: three items queued and the spare credit in the enqueuer's
/// slot.  The refuser (slot 0) enqueues; the dequeuer (slot 1) dequeues,
/// then enqueues; the enqueuer (slot 2) enqueues; a fourth process, which
/// also owns slot 0, dequeues.  (A bystander that never runs takes
/// ordinal 3, so the fourth's ordinal 4 maps to slot 0 of four.)
struct TwoMigrationWorld {
  static constexpr std::uint32_t kFourth = 4;

  Engine engine;
  Queue ring{4};
  bool refuser_ok = false;
  std::uint32_t min_spare = 1;

  explicit TwoMigrationWorld(const char* mutant)
      : engine(with_mutant(mutant)) {
    for (std::uint64_t v = 1; v <= 3; ++v) EXPECT_TRUE(ring.try_enqueue(v));
    Scq::park_credit(engine, ring, kEnqueuer);
    engine.spawn_fiber(0, [this](Proc&) { refuser_ok = ring.try_enqueue(7); });
    engine.spawn_fiber(0, [this](Proc&) {
      std::uint64_t v = 0;
      (void)ring.try_dequeue(v);
      (void)ring.try_enqueue(8);
    });
    engine.spawn_fiber(0, [this](Proc&) { (void)ring.try_enqueue(9); });
    engine.spawn_fiber(0, [](Proc&) {});  // the bystander
    engine.spawn_fiber(0, [this](Proc&) {
      std::uint64_t v = 0;
      (void)ring.try_dequeue(v);
    });
  }

  /// run_past, watching the spare count after every step.
  void past(std::uint32_t id, const char* site, int n = 1) {
    while (n > 0) {
      ASSERT_TRUE(engine.step(id)) << "proc " << id << " finished early";
      min_spare = std::min(min_spare, Scq::peek_free_credits(engine, ring));
      if (engine.last_access().valid &&
          std::strcmp(engine.label(id), site) == 0) {
        --n;
      }
    }
  }

  /// Two migrations inside the refuser's call, each a return to a word it
  /// has read and then a take from a word it has not, so the spare count
  /// never drops to zero.
  void run() {
    past(kRefuser, "scq.credit_load", 3);  // pass 1: slot 0, depot, slot 1
    past(kDequeuer, "scq.credit_return");  // dequeue 1; credit to slot 1
    past(kEnqueuer, "scq.credit_take");    // take the parked credit
    past(kRefuser, "scq.credit_load", 2);  // pass 1: slots 2 and 3
    past(kRefuser, "scq.credit_collect", 2);  // pass 2: slot 0, the depot
    past(kFourth, "scq.credit_return");    // dequeue 2; credit to slot 0
    past(kDequeuer, "scq.credit_take");    // its enqueue takes slot 1's
    past(kRefuser, "scq.credit_collect");  // pass 2: slot 1
    std::uint32_t guard = 0;  // then the refuser's call runs to its end
    while (engine.step(kRefuser)) ASSERT_LT(++guard, 200u);
  }
};

TEST(SimScqCredits, WithoutVersionsADoubleCollectRefusesWhileACreditIsSpare) {
  TwoMigrationWorld w("scq.no_version");
  w.run();
  EXPECT_FALSE(w.refuser_ok);
  EXPECT_GE(w.min_spare, 1u) << "the refusal would be justified";
  EXPECT_EQ(Scq::peek_free_credits(w.engine, w.ring), 1u);  // slot 0's
}

TEST(SimScqCredits, TheVersionSendsTheSameScheduleBackForTheSpareCredit) {
  TwoMigrationWorld w(nullptr);
  w.run();
  // Slot 1 reads {1, 0} where the first pass read {0, 0}: a word moved,
  // so the refuser goes back and takes slot 0's credit.
  EXPECT_TRUE(w.refuser_ok);
  EXPECT_EQ(w.engine.label_hits(kRefuser, "scq.credit_collect"), 1u);
  EXPECT_EQ(Scq::peek_free_credits(w.engine, w.ring), 0u);
}

}  // namespace
}  // namespace msq::sim
