// The SCQ credit slots (src/sim/scq_ring_sim.hpp, mirroring
// src/queues/scq_queue.hpp's take_credit/return_credit): spare credits sit
// in a depot word and in per-thread slot words, and an enqueue refuses only
// after a double collect -- a taking pass that reads every word zero, then
// a read-only pass that finds every word unchanged.  Each word's version
// bumps on every increase, so a word that reads the same zero twice held
// zero between the reads, and at the instant between the passes every
// credit was held by an item or by a call in progress.
//
// The claim, checked over every DPOR schedule: a refused enqueue is
// JUSTIFIED -- the ghost count of spare credits (depot plus every slot)
// reached zero at some step inside the refusing call.  The world is
// capacity 2 with one item queued (holding one credit) and the spare
// credit parked in a slot; a refuser, a dequeuer and an enqueuer race.
// Its negative control refuses after the taking pass alone, and DPOR
// finds the schedule that makes that refusal unjustified: the dequeuer
// returns its credit to a slot the refuser already swept, and the
// enqueuer takes the parked credit before the refuser reaches its slot.
// The spare count never drops to zero, yet the refuser saw zero
// everywhere.
//
// The version is what makes the second pass sound: without it, a pass
// that reads every word zero twice can be fooled twice.  That takes two
// migrations inside one refusing call, more than the DPOR world holds, so
// a directed schedule over four processes shows it: with unversioned
// words the refuser refuses while a credit is spare at every step, and
// with versions the same schedule sends it back to take that credit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/history.hpp"
#include "check/lin_check.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/scq_ring_sim.hpp"
#include "sim/task.hpp"

namespace msq::sim {
namespace {

constexpr std::uint32_t kHalf = 2;
constexpr std::uint32_t kQueued = 1;  // the prefilled item
constexpr std::uint32_t kRefuser = 0;
constexpr std::uint32_t kDequeuer = 1;
constexpr std::uint32_t kEnqueuer = 2;

// History clock in half-steps, as in tests/sim_scq_test.cpp: after k
// memory ops a response reads 2k and an invocation 2k + 1.
std::int64_t invoked_at(Proc& p) {
  return 2 * static_cast<std::int64_t>(p.engine().total_steps()) + 1;
}
std::int64_t returned_at(Proc& p) {
  return 2 * static_cast<std::int64_t>(p.engine().total_steps());
}

/// One enqueue call: its history window and whether it was refused.
struct EnqCall {
  std::int64_t invoke = 0;
  std::int64_t response = 0;
  bool refused = false;
};

struct RefusalWorld {
  Engine engine;
  SimScqRing ring;
  std::vector<check::ThreadLog> logs;
  std::vector<EnqCall> enqs;
  std::vector<std::uint32_t> spare;  // [k]: spare credits after k ops
  std::uint32_t peak_unconsumed = 0;

  /// `parked`: the slot holding the spare credit.
  RefusalWorld(SimScqRing::Variant variant, std::uint32_t parked)
      : ring(engine, kHalf, /*mo=*/nullptr, variant) {
    ring.prefill(engine, kQueued);
    ring.park_credit(engine, parked);
    for (std::uint32_t t = 0; t < 4; ++t) logs.emplace_back(t);
    logs[3].record(check::OpKind::kEnqueue, kQueued, -2, -1);
    enqs.reserve(2);
    spare.push_back(ring.peek_free_credits(engine));
    engine.spawn(0, [this](Proc& p) { return enqueue(p, 7); });
    engine.spawn(0, [this](Proc& p) { return dequeue(p); });
    engine.spawn(0, [this](Proc& p) { return enqueue(p, 8); });
  }

  Task<void> enqueue(Proc& p, std::uint32_t v) {
    const std::int64_t inv = invoked_at(p);
    const SimScqRing::Enq r = co_await ring.enqueue(p, v);
    const std::int64_t resp = returned_at(p);
    if (r == SimScqRing::Enq::kDone) {
      logs[p.id()].record(check::OpKind::kEnqueue, v, inv, resp);
    }
    enqs.push_back({inv, resp, r == SimScqRing::Enq::kFull});
  }

  Task<void> dequeue(Proc& p) {
    const std::int64_t inv = invoked_at(p);
    const std::uint32_t r = co_await ring.dequeue(p);
    logs[p.id()].record(r == SimScqRing::kBottom ? check::OpKind::kDequeueEmpty
                                                 : check::OpKind::kDequeue,
                        r == SimScqRing::kBottom ? 0 : r, inv, returned_at(p));
  }

  void sample() {
    spare.resize(engine.total_steps() + 1, spare.back());
    spare.back() = ring.peek_free_credits(engine);
    peak_unconsumed = std::max(peak_unconsumed, ring.peek_unconsumed(engine));
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
    SimScqRing::Stats paths;
    DporConfig config;
    config.max_steps_per_run = 4'000;
    const DporResult result = explore_dpor(
        config, /*process_count=*/3,
        [&]() -> Engine& {
          world = std::make_unique<RefusalWorld>(
              SimScqRing::Variant::kFaithful, parked);
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
          ASSERT_EQ(world->ring.peek_free_credits(engine) +
                        world->ring.peek_unconsumed(engine),
                    kHalf);
          for (const EnqCall& c : world->enqs) refusals += c.refused ? 1 : 0;
          const SimScqRing::Stats& s = world->ring.stats();
          paths.steals += s.steals;
          paths.spills += s.spills;
          paths.recollects += s.recollects;
          ++checked;
        });
    EXPECT_FALSE(result.budget_exhausted);
    EXPECT_EQ(checked, result.schedules_run);
    // Few processes touch the same word, so the space is small (18
    // schedules with the credit in the enqueuer's slot); the floor only
    // guards against an explorer that stops after one.
    EXPECT_GT(checked, 10u) << "DPOR covered suspiciously few schedules";
    // Not vacuous: some calls refuse, and some second passes see a word
    // move and go back to take the credit that arrived.
    EXPECT_GT(refusals, 0u);
    EXPECT_GT(paths.recollects, 0u);
    if (parked == kEnqueuer) {
      EXPECT_GT(paths.steals, 0u);
    }
    if (parked == kDequeuer) {
      EXPECT_GT(paths.spills, 0u);
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
          world = std::make_unique<RefusalWorld>(
              SimScqRing::Variant::kSingleCollect, kEnqueuer);
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

// Free coroutine helpers: spawn() lambdas must not be coroutines
// themselves (their captures would dangle with the temporary lambda).
Task<void> enq_into(Proc& p, SimScqRing& ring, std::uint32_t v,
                    SimScqRing::Enq& out) {
  out = co_await ring.enqueue(p, v);
}

Task<void> deq_into(Proc& p, SimScqRing& ring, std::uint32_t& out) {
  out = co_await ring.dequeue(p);
}

Task<void> deq_then_enq(Proc& p, SimScqRing& ring, std::uint32_t v,
                        std::uint32_t& got, SimScqRing::Enq& out) {
  got = co_await ring.dequeue(p);
  out = co_await ring.enqueue(p, v);
}

/// Capacity 4: three items queued and the spare credit in the enqueuer's
/// slot.  The refuser (slot 0) enqueues; the dequeuer (slot 1) dequeues,
/// then enqueues; the enqueuer (slot 2) enqueues; a fourth process, which
/// also owns slot 0, dequeues.
struct TwoMigrationWorld {
  static constexpr std::uint32_t kFourth = 3;

  Engine engine;
  SimScqRing ring;
  SimScqRing::Enq refuser = SimScqRing::Enq::kGaveUp;
  SimScqRing::Enq dequeuer_enq = SimScqRing::Enq::kGaveUp;
  SimScqRing::Enq enqueuer = SimScqRing::Enq::kGaveUp;
  std::uint32_t dequeuer_got = 0;
  std::uint32_t fourth_got = 0;
  std::uint32_t min_spare = 1;

  explicit TwoMigrationWorld(SimScqRing::Variant variant)
      : ring(engine, /*half=*/4, /*mo=*/nullptr, variant) {
    for (std::uint32_t v = 1; v <= 3; ++v) ring.prefill(engine, v);
    ring.park_credit(engine, kEnqueuer);
    engine.spawn(0, [this](Proc& p) { return enq_into(p, ring, 7, refuser); });
    engine.spawn(0, [this](Proc& p) {
      return deq_then_enq(p, ring, 8, dequeuer_got, dequeuer_enq);
    });
    engine.spawn(0, [this](Proc& p) { return enq_into(p, ring, 9, enqueuer); });
    engine.spawn(0, [this](Proc& p) { return deq_into(p, ring, fourth_got); });
  }

  void step_n(std::uint32_t id, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(engine.step(id)) << "proc " << id << " finished early";
      min_spare = std::min(min_spare, ring.peek_free_credits(engine));
    }
  }

  /// Two migrations inside the refuser's call, each a return to a word it
  /// has read and then a take from a word it has not, so the spare count
  /// never drops to zero.
  void run() {
    step_n(kRefuser, 3);   // pass 1: slot 0, depot, slot 1 read zero
    step_n(kDequeuer, 5);  // dequeue 1; its credit goes to slot 1
    step_n(kEnqueuer, 2);  // take the parked credit from slot 2
    step_n(kRefuser, 1);   // pass 1: slot 2 reads zero
    step_n(kRefuser, 2);   // pass 2: slot 0 and the depot read zero
    step_n(kFourth, 5);    // dequeue 2; its credit goes to slot 0
    step_n(kDequeuer, 2);  // its enqueue takes slot 1's credit back
    step_n(kRefuser, 2);   // pass 2: slot 1 and slot 2 read zero
    std::uint32_t guard = 0;  // then the refuser's call runs to its end
    while (engine.step(kRefuser)) ASSERT_LT(++guard, 100u);
  }
};

TEST(SimScqCredits, WithoutVersionsADoubleCollectRefusesWhileACreditIsSpare) {
  TwoMigrationWorld w(SimScqRing::Variant::kNoVersion);
  w.run();
  EXPECT_EQ(w.refuser, SimScqRing::Enq::kFull);
  EXPECT_GE(w.min_spare, 1u) << "the refusal would be justified";
  EXPECT_EQ(w.ring.peek_free_credits(w.engine), 1u);  // slot 0's
}

TEST(SimScqCredits, TheVersionSendsTheSameScheduleBackForTheSpareCredit) {
  TwoMigrationWorld w(SimScqRing::Variant::kFaithful);
  w.run();
  // Slot 1 reads {1, 0} where the first pass read {0, 0}: a word moved,
  // so the refuser goes back and takes slot 0's credit.
  EXPECT_EQ(w.refuser, SimScqRing::Enq::kDone);
  EXPECT_EQ(w.ring.stats().recollects, 1u);
  EXPECT_EQ(w.ring.peek_free_credits(w.engine), 0u);
}

}  // namespace
}  // namespace msq::sim
