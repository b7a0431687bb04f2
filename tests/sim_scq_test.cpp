// The SCQ proofs, run on the shipped src/queues/scq_queue.hpp: this is a
// model-build target (MSQ_MODEL=1), so every ScqQueue access is one
// sim::Engine step of the fiber process that makes it, every MSQ_PROBE a
// label the engine counts, and the MSQ_MUTANT hooks switch in the negative
// controls.
// Five movements:
//
//  1. DPOR over a producer/consumer world: EVERY schedule terminates, and
//     no dequeue call ever exceeds the derived round bound
//     threshold_init * (1 + deposits) + 1 -- livelock-freedom as an
//     exhaustively checked property, not a benchmark anecdote.
//
//  2. The livelock the threshold exists to kill, replayed as a directed
//     schedule under the "scq.no_threshold" mutant: a stopped second
//     enqueuer keeps the tail two ahead of the head, and a dequeuer and a
//     lagging enqueuer then chase each other around the ring FOREVER --
//     each round the dequeuer's cycle-advance invalidates the enqueuer's
//     pending deposit CAS, and the enqueuer's fresh ticket keeps the tail
//     ahead of the dequeuer's empty check.  Head and tail both advance;
//     neither op completes.  (This is the SCQ paper's argument for why
//     "infinite array" FAA queues need a budget; the segment queue escapes
//     it by appending segments instead of wrapping.)
//
//  3. The SAME choreography with the threshold: the dequeuer's budget
//     decrements strike 0 within threshold_init rounds, it returns empty,
//     and both enqueuers then complete and their values drain FIFO.
//
//  4. The read-only empty check (taken once a dequeuer has missed since
//     the last deposit: load head, then tail, empty if tail <= head),
//     proved over every DPOR schedule of a 3-process world -- exact
//     linearizability with empties, FIFO, no loss, no duplicate -- and its
//     negative control, "scq.tail_first": the same check reading tail
//     BEFORE head reports empty on a ring that holds an item at every
//     instant of the call.
//
//  5. The capacity bound: with capacity 1, two enqueuers and a dequeuer,
//     no schedule ever holds more than one unconsumed value, every
//     schedule is linearizable with no loss or duplicate, and the credit
//     (depot, per-process slots, steal) is conserved.  Its negative
//     control, "scq.no_credits": refusing on a read-only
//     `tail - head >= n` instead of taking a credit lets both enqueuers
//     pass the check and overfill.  (tests/sim_scq_credit_test.cpp proves
//     every refusal justified.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

/// One dequeue round: the label before each head FAA.
constexpr const char* kDeqRound = "scq.faa_deq";

/// Every process finished, or halted where a test bounded it.
[[nodiscard]] bool quiescent(const Engine& e) {
  for (std::uint32_t i = 0; i < e.process_count(); ++i) {
    if (!e.done(i) && !e.is_crashed(i)) return false;
  }
  return true;
}

// ---- movement 1: DPOR termination + round bound ------------------------

constexpr std::uint32_t kHalf = 1;       // ring of 2 entries, 1 value
constexpr std::uint32_t kValues = 2;     // producer deposits {1, 2}
constexpr std::uint32_t kAttempts = 3;   // consumer's bounded tries
constexpr std::uint32_t kEnqRounds = 5;  // producer's tickets per value

struct ScqWorld {
  Engine engine;
  Queue ring{kHalf};
  std::vector<std::uint64_t> got;
  std::uint64_t max_rounds = 0;  // FAA rounds of the worst dequeue call

  // A capacity-1 ring has one credit, so value 2 is refused until the
  // consumer drains value 1.  A consumer that keeps advancing the
  // producer's entry can send its deposit round the ring again and again,
  // so the producer halts mid-call once it has taken more tickets than
  // kEnqRounds for each value (a refusal takes none): a pending enqueue
  // holding its credit, which keeps DPOR finite.
  ScqWorld() {
    got.reserve(kAttempts);
    const std::uint32_t producer = engine.spawn_fiber(0, [this](Proc&) {
      for (std::uint64_t v = 1; v <= kValues; ++v) {
        if (!ring.try_enqueue(v)) break;  // refused: give up
      }
    });
    engine.crash_at_label(producer, "scq.faa_enq",
                          kValues * kEnqRounds + 1);
    engine.spawn_fiber(0, [this](Proc& p) {
      for (std::uint32_t i = 0; i < kAttempts; ++i) {
        const std::uint64_t before = p.engine().label_hits(p.id(), kDeqRound);
        std::uint64_t v = 0;
        if (ring.try_dequeue(v)) got.push_back(v);
        max_rounds = std::max(
            max_rounds, p.engine().label_hits(p.id(), kDeqRound) - before);
      }
    });
  }
};

TEST(SimScqDpor, EveryScheduleTerminatesWithinTheThresholdRoundBound) {
  // Round bound per dequeue call: the first round is free; each further
  // round spends one unit of a budget that starts at threshold_init and is
  // re-armed (at most) once per deposit -- so
  //   rounds <= threshold_init * (1 + kValues) + 1.
  const std::uint64_t kRoundBound = (3 * kHalf - 1) * (1 + kValues) + 1;

  std::unique_ptr<ScqWorld> world;
  std::uint64_t checked = 0;
  std::uint64_t worst_rounds = 0;
  DporConfig config;
  config.max_steps_per_run = 4'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/2,
      [&]() -> Engine& {
        world = std::make_unique<ScqWorld>();
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        // Termination of every schedule IS the livelock-freedom claim:
        // movement 2 shows the identical ring without the threshold has
        // schedules that never finish.  The consumer never halts.
        ASSERT_TRUE(quiescent(engine)) << "a schedule wedged an SCQ op";
        ASSERT_TRUE(engine.done(1));
        // The consumer saw a sub-multiset of {1, 2} in FIFO order.  (The
        // producer may have been refused, or halted, on value 2, so only
        // prefix-FIFO is guaranteed, not delivery.)
        ASSERT_LE(world->got.size(), kValues);
        for (std::size_t i = 0; i < world->got.size(); ++i) {
          ASSERT_EQ(world->got[i], i + 1)
              << "duplicate, invented, or reordered value";
        }
        ASSERT_LE(world->max_rounds, kRoundBound);
        worst_rounds = std::max(worst_rounds, world->max_rounds);
        ++checked;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_GT(checked, 100u) << "DPOR covered suspiciously few schedules";
  EXPECT_EQ(checked, result.schedules_run);
  // The bound is not vacuous: some schedule actually needs > 1 round.
  EXPECT_GT(worst_rounds, 1u);
}

// ---- movements 2 & 3: the directed chase choreography ------------------

/// Capacity 2 (4 entries, two credits, one for each enqueuer): enqueuer E2
/// stops right after its tail FAA (keeping tail >= head + 2 for good),
/// enqueuer E1 chases a deposit, dequeuer D chases a value that is never
/// deposited.
struct ChaseWorld {
  Engine engine;
  Queue ring{2};
  bool e1_ok = false;
  bool e2_ok = false;
  bool deq_ok = true;

  // Proc ids, in spawn order.
  static constexpr std::uint32_t kE2 = 0;
  static constexpr std::uint32_t kE1 = 1;
  static constexpr std::uint32_t kD = 2;

  explicit ChaseWorld(const char* mutant) : engine(with_mutant(mutant)) {
    engine.spawn_fiber(0, [this](Proc&) { e2_ok = ring.try_enqueue(7); });
    engine.spawn_fiber(0, [this](Proc&) { e1_ok = ring.try_enqueue(5); });
    engine.spawn_fiber(0, [this](Proc&) {
      std::uint64_t v = 0;
      deq_ok = ring.try_dequeue(v);
    });
  }

  /// E2 takes a credit and ticket 0 and stops (tail 1); E1 takes a credit
  /// and ticket 1 and loads its entry's two halves (tail 2); D scans
  /// tickets 0 and 1, advancing both entries' cycles past E1's pending
  /// deposit.
  void prologue() {
    ASSERT_TRUE(run_past(engine, kE2, "scq.enq_faa_tail"));
    ASSERT_TRUE(run_past(engine, kE1, "scq.enq_entry_load", 2));
    ASSERT_TRUE(run_past(engine, kD, "scq.deq_mark_cas", 2));
  }

  /// One round of the chase: E1's deposit CAS fails (D advanced the
  /// entry's cycle), it takes a fresh ticket and loads that entry; D sees
  /// the tail still ahead, takes a fresh ticket, and advances the very
  /// entry E1 is about to CAS.  False once D has returned.
  bool chase_round() {
    EXPECT_TRUE(run_past(engine, kE1, "scq.enq_entry_load", 2));
    return run_past(engine, kD, "scq.deq_mark_cas");
  }
};

TEST(SimScqLivelock, WithoutTheThresholdTheChaseNeverTerminates) {
  ChaseWorld w("scq.no_threshold");
  w.prologue();

  // Head and tail each move +1 per round; the gap never closes and
  // neither op completes -- run any number of rounds you like.
  constexpr std::uint32_t kRounds = 6;
  for (std::uint32_t k = 1; k <= kRounds; ++k) {
    ASSERT_TRUE(w.chase_round()) << "the dequeuer returned in round " << k;
    EXPECT_EQ(Scq::peek_head(w.engine, w.ring), 2u + k);
    EXPECT_EQ(Scq::peek_tail(w.engine, w.ring), 2u + k);
  }
  EXPECT_FALSE(w.engine.done(ChaseWorld::kE1));
  EXPECT_FALSE(w.engine.done(ChaseWorld::kD));
  EXPECT_FALSE(w.engine.all_done());
}

TEST(SimScqLivelock, TheThresholdEndsTheSameChaseAndTheRingRecovers) {
  ChaseWorld w(nullptr);
  // Model "an earlier enqueue/dequeue pair completed": the budget sits at
  // threshold_init (a fresh empty ring's -1 would short-circuit D before
  // the chase even starts -- itself a liveness win, but not the mechanism
  // under test).
  Scq::arm_threshold(w.engine, w.ring);
  const auto threshold_init =
      static_cast<std::uint64_t>(Scq::threshold_init(w.ring));
  ASSERT_EQ(threshold_init, 5u);  // capacity 2: 3n-1
  w.prologue();

  // D's budget decrements hit 0 within threshold_init rounds and its
  // dequeue returns empty instead of chasing forever.
  for (std::uint32_t k = 1; k <= threshold_init + 1; ++k) {
    if (!w.chase_round()) break;
  }
  ASSERT_TRUE(w.engine.done(ChaseWorld::kD));
  EXPECT_FALSE(w.deq_ok);
  EXPECT_LE(w.engine.label_hits(ChaseWorld::kD, kDeqRound),
            threshold_init + 2);

  // With the chase broken, both enqueuers complete unaided...
  std::uint32_t guard = 0;
  while (w.engine.step(ChaseWorld::kE1)) ASSERT_LT(++guard, 400u);
  while (w.engine.step(ChaseWorld::kE2)) ASSERT_LT(++guard, 400u);
  ASSERT_TRUE(w.engine.all_done());
  EXPECT_TRUE(w.e1_ok);
  EXPECT_TRUE(w.e2_ok);
  // ... E1's deposit re-armed the budget ...
  EXPECT_EQ(Scq::peek_threshold(w.engine, w.ring),
            static_cast<std::int64_t>(threshold_init));

  // ... and the ring drains FIFO: E1 deposited before E2's retry landed.
  std::vector<std::uint64_t> drained;
  const std::uint32_t drainer = w.engine.spawn_fiber(0, [&](Proc&) {
    for (int i = 0; i < 2; ++i) {
      std::uint64_t v = 0;
      if (w.ring.try_dequeue(v)) drained.push_back(v);
    }
  });
  while (w.engine.step(drainer)) ASSERT_LT(++guard, 800u);
  ASSERT_EQ(drained, (std::vector<std::uint64_t>{5, 7}));
}

// ---- movement 4: the read-only empty check ------------------------------

/// A logged dequeue; true iff it returned empty without taking a ticket
/// (the read-only check's verdict).
bool logged_deq(Proc& p, Queue& ring, check::ThreadLog& log) {
  const std::int64_t inv = invoked_at(p);
  const std::uint64_t rounds = p.engine().label_hits(p.id(), kDeqRound);
  std::uint64_t v = 0;
  const bool ok = ring.try_dequeue(v);
  log.record(ok ? check::OpKind::kDequeue : check::OpKind::kDequeueEmpty,
             ok ? v : 0, inv, returned_at(p));
  return !ok && p.engine().label_hits(p.id(), kDeqRound) == rounds;
}

/// Logs an accepted enqueue; a refusal leaves no event (the checker's
/// queue is unbounded) and is counted in `refused` instead.
void logged_enq(Proc& p, Queue& ring, std::uint64_t v, check::ThreadLog& log,
                std::uint32_t& refused) {
  const std::int64_t inv = invoked_at(p);
  if (ring.try_enqueue(v)) {
    log.record(check::OpKind::kEnqueue, v, inv, returned_at(p));
  } else {
    ++refused;
  }
}

/// Capacity 2 (4 entries) prefilled with 1; p0 dequeues, p1 enqueues 2,
/// p2 dequeues.  The budget sits one miss below armed ("a dequeuer has
/// missed since the last deposit"), so each dequeue opens with the
/// read-only empty check.  Records the history for the exact checker and
/// the ring's unclaimed items after every step.
struct EmptyCheckWorld {
  static constexpr std::uint64_t kPrefill = 1;
  static constexpr std::uint64_t kEnqueued = 2;

  Engine engine;
  Queue ring{2};
  std::vector<check::ThreadLog> logs;
  std::vector<std::size_t> occupancy;  // [k]: unclaimed items after k steps
  bool read_only_empty[2] = {false, false};  // p0, p2
  std::uint32_t refused = 0;

  explicit EmptyCheckWorld(const char* mutant) : engine(with_mutant(mutant)) {
    EXPECT_TRUE(ring.try_enqueue(kPrefill));
    Scq::arm_threshold(engine, ring, /*misses=*/1);
    for (std::uint32_t t = 0; t < 4; ++t) logs.emplace_back(t);
    // The prefill as a completed enqueue preceding every call.
    logs[3].record(check::OpKind::kEnqueue, kPrefill, -2, -1);
    occupancy.push_back(Scq::peek_unclaimed(engine, ring).size());
    engine.spawn_fiber(0, [this](Proc& p) {
      read_only_empty[0] = logged_deq(p, ring, logs[0]);
    });
    engine.spawn_fiber(0, [this](Proc& p) {
      logged_enq(p, ring, kEnqueued, logs[1], refused);
    });
    engine.spawn_fiber(0, [this](Proc& p) {
      read_only_empty[1] = logged_deq(p, ring, logs[2]);
    });
  }

  void sample() {
    occupancy.resize(engine.total_steps() + 1, occupancy.back());
    occupancy.back() = Scq::peek_unclaimed(engine, ring).size();
  }

  /// An empty verdict whose call saw the ring hold an unclaimed item at
  /// every instant from invocation to response, or nullptr.  The proof's
  /// claim is the converse: at the tail read, tail <= head leaves no
  /// ticket >= head that a deposit could occupy.
  [[nodiscard]] const check::Event* empty_on_a_nonempty_ring(
      const std::vector<check::Event>& history) const {
    for (const check::Event& e : history) {
      if (e.kind != check::OpKind::kDequeueEmpty) continue;
      const auto first = occupancy.begin() + e.invoke_ns / 2;
      const auto last = occupancy.begin() + e.response_ns / 2 + 1;
      if (std::all_of(first, last, [](std::size_t n) { return n > 0; })) {
        return &e;
      }
    }
    return nullptr;
  }
};

TEST(SimScqEmptyCheck, EveryScheduleIsLinearizableFifoWithNoLossOrDuplicate) {
  std::unique_ptr<EmptyCheckWorld> world;
  std::uint64_t checked = 0;
  std::uint64_t read_only_empty_by[2] = {0, 0};  // p0, p2
  DporConfig config;
  config.max_steps_per_run = 4'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/3,
      [&]() -> Engine& {
        world = std::make_unique<EmptyCheckWorld>(nullptr);
        return world->engine;
      },
      [&](Engine&) { world->sample(); },
      [&](Engine& engine) {
        ASSERT_TRUE(engine.all_done()) << "a schedule wedged an SCQ op";
        ASSERT_EQ(world->refused, 0u);
        const auto history = check::merge_logs(world->logs);
        const auto lin = check::check_linearizable_exact(history);
        ASSERT_TRUE(lin.ok) << lin.diagnosis;
        ASSERT_EQ(world->empty_on_a_nonempty_ring(history), nullptr);

        // No loss, no duplicate: what was dequeued plus what the ring
        // still holds is exactly {prefill, enqueued}.
        std::vector<std::uint64_t> seen =
            Scq::peek_unclaimed(engine, world->ring);
        bool got_prefill = false;
        bool got_enqueued = false;
        for (const check::Event& e : history) {
          if (e.kind != check::OpKind::kDequeue) continue;
          seen.push_back(e.value);
          got_prefill |= e.value == EmptyCheckWorld::kPrefill;
          got_enqueued |= e.value == EmptyCheckWorld::kEnqueued;
        }
        std::sort(seen.begin(), seen.end());
        ASSERT_EQ(seen, (std::vector<std::uint64_t>{
                            EmptyCheckWorld::kPrefill,
                            EmptyCheckWorld::kEnqueued}));
        // FIFO: the prefill went in strictly first, so it leaves first.
        ASSERT_TRUE(got_prefill || !got_enqueued)
            << "dequeued the later item while the earlier one stayed";
        for (int d = 0; d < 2; ++d) {
          read_only_empty_by[d] += world->read_only_empty[d] ? 1 : 0;
        }
        ++checked;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(checked, result.schedules_run);
  EXPECT_GT(checked, 100u) << "DPOR covered suspiciously few schedules";
  // Not vacuous: the read-only check returned empty on some schedules, and
  // the world is symmetric in its two dequeuers, so each must be seen
  // doing it (an explorer that loses traces sees only one).
  EXPECT_GT(read_only_empty_by[0], 0u);
  EXPECT_GT(read_only_empty_by[1], 0u);
}

TEST(SimScqEmptyCheck, ReadingTailBeforeHeadReportsANonEmptyRingEmpty) {
  // Stop at the first schedule where the tail-first mutant says empty
  // while the ring held an unclaimed item throughout the call, and no
  // linearization excuses it: A reads tail (1); C enqueues 2 (tail 2); B
  // dequeues the prefill (head 1); A reads head (1), so tail <= head.
  // (An empty verdict can also overlap a dequeue that is still running;
  // that one linearizes before the verdict and is no witness.)
  struct Found {};
  std::unique_ptr<EmptyCheckWorld> world;
  std::vector<check::Event> witness;
  std::uint64_t schedules = 0;
  DporConfig config;
  config.max_steps_per_run = 4'000;
  try {
    (void)explore_dpor(
        config, /*process_count=*/3,
        [&]() -> Engine& {
          world = std::make_unique<EmptyCheckWorld>("scq.tail_first");
          return world->engine;
        },
        [&](Engine&) { world->sample(); },
        [&](Engine&) {
          ++schedules;
          const auto history = check::merge_logs(world->logs);
          if (world->empty_on_a_nonempty_ring(history) != nullptr &&
              !check::check_linearizable_exact(history).ok) {
            witness = history;
            throw Found{};
          }
        });
  } catch (const Found&) {
  }
  ASSERT_FALSE(witness.empty())
      << "no tail-first schedule hid an item across " << schedules
      << " schedules";
  // The witness is the choreography above: inside the empty call, the
  // enqueue of 2 completes, then the dequeue of the prefill starts (its
  // ticket draw is what moves head past the tail A read).
  const auto event = [&](check::OpKind kind, std::uint64_t value) {
    const auto it = std::find_if(
        witness.begin(), witness.end(), [&](const check::Event& e) {
          return e.kind == kind &&
                 (kind == check::OpKind::kDequeueEmpty || e.value == value);
        });
    EXPECT_NE(it, witness.end());
    return it == witness.end() ? check::Event{} : *it;
  };
  const check::Event empty = event(check::OpKind::kDequeueEmpty, 0);
  const check::Event enq = event(check::OpKind::kEnqueue,
                                 EmptyCheckWorld::kEnqueued);
  const check::Event deq = event(check::OpKind::kDequeue,
                                 EmptyCheckWorld::kPrefill);
  EXPECT_LT(empty.invoke_ns, enq.invoke_ns);
  EXPECT_LT(enq.response_ns, deq.invoke_ns);
  EXPECT_LT(deq.invoke_ns, empty.response_ns);
}

// ---- movement 5: the capacity bound --------------------------------------

/// Capacity 1 (two entries, one credit): p0 and p1 enqueue 1 and 2, p2
/// dequeues twice.  Records the accepted history and, after every step,
/// the most unconsumed values the ring ever held.
struct CapacityWorld {
  Engine engine;
  Queue ring{1};
  std::vector<check::ThreadLog> logs;
  std::uint32_t refused = 0;
  std::uint32_t peak_unconsumed = 0;

  explicit CapacityWorld(const char* mutant) : engine(with_mutant(mutant)) {
    for (std::uint32_t t = 0; t < 3; ++t) logs.emplace_back(t);
    engine.spawn_fiber(
        0, [this](Proc& p) { logged_enq(p, ring, 1, logs[0], refused); });
    engine.spawn_fiber(
        0, [this](Proc& p) { logged_enq(p, ring, 2, logs[1], refused); });
    engine.spawn_fiber(0, [this](Proc& p) {
      for (int i = 0; i < 2; ++i) (void)logged_deq(p, ring, logs[2]);
    });
  }

  void sample() {
    peak_unconsumed =
        std::max(peak_unconsumed, Scq::peek_unconsumed(engine, ring));
  }
};

TEST(SimScqCapacity, CreditsNeverLetTheRingHoldMoreThanCapacity) {
  std::unique_ptr<CapacityWorld> world;
  std::uint64_t checked = 0;
  std::uint64_t with_refusal = 0;
  std::uint64_t both_accepted = 0;
  DporConfig config;
  config.max_steps_per_run = 4'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/3,
      [&]() -> Engine& {
        world = std::make_unique<CapacityWorld>(nullptr);
        return world->engine;
      },
      [&](Engine&) { world->sample(); },
      [&](Engine& engine) {
        ASSERT_TRUE(engine.all_done()) << "a schedule wedged an SCQ op";
        ASSERT_LE(world->peak_unconsumed, 1u) << "ring overfilled";
        const auto history = check::merge_logs(world->logs);
        const auto lin = check::check_linearizable_exact(history);
        ASSERT_TRUE(lin.ok) << lin.diagnosis;

        // No loss, no duplicate: dequeued plus still-held is exactly the
        // accepted set.
        std::vector<std::uint64_t> accepted;
        std::vector<std::uint64_t> seen =
            Scq::peek_unclaimed(engine, world->ring);
        for (const check::Event& e : history) {
          if (e.kind == check::OpKind::kEnqueue) {
            accepted.push_back(e.value);
          } else if (e.kind == check::OpKind::kDequeue) {
            seen.push_back(e.value);
          }
        }
        std::sort(accepted.begin(), accepted.end());
        std::sort(seen.begin(), seen.end());
        ASSERT_EQ(seen, accepted);
        ASSERT_EQ(accepted.size() + world->refused, 2u);
        // Conservation at quiescence: spare credits (depot and slots)
        // plus queued items make up the capacity.
        ASSERT_EQ(Scq::peek_free_credits(engine, world->ring) +
                      Scq::peek_unconsumed(engine, world->ring),
                  1u);
        with_refusal += world->refused > 0 ? 1 : 0;
        both_accepted += accepted.size() == 2 ? 1 : 0;
        ++checked;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(checked, result.schedules_run);
  EXPECT_GT(checked, 100u) << "DPOR covered suspiciously few schedules";
  // Not vacuous: some schedules refuse an enqueue at capacity, and some
  // accept both because the dequeuer freed the slot in between.
  EXPECT_GT(with_refusal, 0u);
  EXPECT_GT(both_accepted, 0u);
}

TEST(SimScqCapacity, AReadOnlyTailMinusHeadCheckOverfillsTheRing) {
  // Stop at the first schedule that holds two unconsumed values in a
  // capacity-1 ring: both enqueuers read tail - head = 0 < 1 before
  // either takes a ticket, then both deposit.
  struct Found {};
  std::unique_ptr<CapacityWorld> world;
  std::uint64_t schedules = 0;
  bool overfilled = false;
  DporConfig config;
  config.max_steps_per_run = 4'000;
  try {
    (void)explore_dpor(
        config, /*process_count=*/3,
        [&]() -> Engine& {
          world = std::make_unique<CapacityWorld>("scq.no_credits");
          return world->engine;
        },
        [&](Engine&) { world->sample(); },
        [&](Engine&) {
          ++schedules;
          if (world->peak_unconsumed > 1) {
            overfilled = true;
            throw Found{};
          }
        });
  } catch (const Found&) {
  }
  EXPECT_TRUE(overfilled) << "no schedule overfilled the ring across "
                          << schedules << " schedules";
}

// ---- the header's own labels --------------------------------------------

TEST(SimScqLabels, FreezeAtLabelStopsAnEnqueueRightBeforeItsDepositCas) {
  // MSQ_PROBE("scq.enq_cas") is a label of the fiber that reaches it, and a
  // step of its own once a freeze rule names it: the enqueuer stops with
  // its credit and ticket taken and the entry not yet written.
  Engine engine;
  Queue ring(2);
  bool ok = false;
  const std::uint32_t enq =
      engine.spawn_fiber(0, [&](Proc&) { ok = ring.try_enqueue(42); });
  engine.freeze_at_label(enq, "scq.enq_cas");
  std::uint32_t guard = 0;
  while (engine.step_random()) ASSERT_LT(++guard, 100u);
  EXPECT_FALSE(engine.done(enq));
  EXPECT_STREQ(engine.label(enq), "scq.enq_cas");
  EXPECT_EQ(Scq::peek_tail(engine, ring), 1u);
  EXPECT_EQ(Scq::peek_unconsumed(engine, ring), 0u);
  EXPECT_EQ(Scq::peek_free_credits(engine, ring), 1u);

  engine.freeze_at_label(enq, nullptr);
  engine.unfreeze(enq);
  while (engine.step_random()) ASSERT_LT(++guard, 200u);
  EXPECT_TRUE(engine.done(enq));
  EXPECT_TRUE(ok);
  EXPECT_EQ(Scq::peek_unclaimed(engine, ring), std::vector<std::uint64_t>{42});
  EXPECT_EQ(engine.label_hits(enq, "scq.enq_cas"), 1u);
}

// ---- single-process sanity: fill, refuse, drain FIFO through the remap ---

TEST(SimScqBasic, FillRefusesAtCapacityThenDrainsInOrder) {
  Engine engine;
  Queue ring(4);
  std::vector<bool> enq;
  std::vector<std::uint64_t> out;
  std::uint32_t empties = 0;
  // 5 enqueues (the 5th refuses), 5 dequeues (the 5th misses), then one
  // credit's worth more: one more lap.
  engine.spawn_fiber(0, [&](Proc&) {
    auto deq = [&] {
      std::uint64_t v = 0;
      if (ring.try_dequeue(v)) {
        out.push_back(v);
      } else {
        ++empties;
      }
    };
    for (std::uint64_t v = 0; v < 5; ++v) enq.push_back(ring.try_enqueue(v));
    for (int i = 0; i < 5; ++i) deq();
    enq.push_back(ring.try_enqueue(9));
    deq();
  });
  std::uint32_t guard = 0;
  while (engine.step_random()) ASSERT_LT(++guard, 4'000u);
  ASSERT_TRUE(engine.all_done());
  EXPECT_EQ(enq, (std::vector<bool>{true, true, true, true, false, true}));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 2, 3, 9}));
  EXPECT_EQ(empties, 1u);
  EXPECT_EQ(Scq::peek_unconsumed(engine, ring), 0u);
}

}  // namespace
}  // namespace msq::sim
