// The SCQ proofs (src/sim/scq_ring_sim.hpp, mirroring the direct ring of
// src/queues/scq_queue.hpp), in five movements:
//
//  1. DPOR over a producer/consumer world: EVERY schedule terminates, and
//     no dequeue call ever exceeds the derived round bound
//     threshold_init * (1 + deposits) + 1 -- livelock-freedom as an
//     exhaustively checked property, not a benchmark anecdote.
//
//  2. The livelock the threshold exists to kill, replayed as a directed
//     schedule with `Variant::kNoThreshold`: a frozen second enqueuer
//     keeps the tail two ahead of the head, and a dequeuer + lagging
//     enqueuer then chase each other around the ring FOREVER -- each round
//     the dequeuer's cycle-advance invalidates the enqueuer's pending
//     deposit CAS, and the enqueuer's fresh ticket keeps the tail ahead of
//     the dequeuer's empty check.  Head and tail both advance; neither op
//     completes.  (This is the SCQ paper's argument for why "infinite
//     array" FAA queues need a budget; the segment queue escapes it by
//     appending segments instead of wrapping.)
//
//  3. The SAME choreography with the threshold armed: the dequeuer's
//     budget decrements strike 0 within threshold_init rounds, it returns
//     empty, and both enqueuers then complete and their values drain FIFO.
//
//  4. The read-only empty check (taken once a dequeuer has missed since
//     the last deposit: load head, then tail, empty if tail <= head),
//     proved over every DPOR schedule of a 3-process world -- exact
//     linearizability with empties, FIFO, no loss, no duplicate -- and its
//     negative control: the same check reading tail BEFORE head reports
//     empty on a ring that holds an item at every instant of the call.
//
//  5. The capacity bound: with capacity 1, two enqueuers and a dequeuer,
//     no schedule ever holds more than one unconsumed value, every
//     schedule is linearizable with no loss or duplicate, and the credit
//     (depot, per-process slots, steal) is conserved.  Its negative
//     control: refusing on a read-only `tail - head >= n` instead of
//     taking a credit lets both enqueuers pass the check and overfill.
//     (tests/sim_scq_credit_test.cpp proves every refusal justified.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/history.hpp"
#include "check/lin_check.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/scq_ring_sim.hpp"
#include "sim/task.hpp"

namespace msq::sim {
namespace {

// ---- movement 1: DPOR termination + round bound ------------------------

constexpr std::uint32_t kHalf = 1;          // ring of 2 entries, 1 value
constexpr std::uint32_t kValues = 2;        // producer deposits {1, 2}
constexpr std::uint32_t kAttempts = 3;      // consumer's bounded tries
constexpr std::uint32_t kEnqBudget = 5;     // producer FAA-round budget

struct ScqWorld {
  Engine engine;
  SimScqRing ring;
  bool enq_ok[kValues] = {false, false};
  std::vector<std::uint32_t> got;

  ScqWorld() : ring(engine, kHalf) {
    got.reserve(kAttempts);
    engine.spawn(0, [this](Proc& p) { return producer(p); });
    engine.spawn(0, [this](Proc& p) { return consumer(p); });
  }

  // A half=1 ring has one credit, so value 2 is refused until the consumer
  // drains value 1; the FAA-round budget keeps schedules where a consumer
  // keeps advancing the producer's entry finite for DPOR.
  Task<void> producer(Proc& p) {
    for (std::uint32_t v = 0; v < kValues; ++v) {
      const SimScqRing::Enq r = co_await ring.enqueue(p, v + 1, kEnqBudget);
      enq_ok[v] = r == SimScqRing::Enq::kDone;
      if (!enq_ok[v]) break;  // refused or budget ran dry: give up
    }
  }

  Task<void> consumer(Proc& p) {
    for (std::uint32_t i = 0; i < kAttempts; ++i) {
      const std::uint32_t r = co_await ring.dequeue(p);
      if (r != SimScqRing::kBottom) got.push_back(r);
    }
  }
};

TEST(SimScqDpor, EveryScheduleTerminatesWithinTheThresholdRoundBound) {
  // Round bound per dequeue call: the first round is free; each further
  // round spends one unit of a budget that starts at threshold_init and is
  // re-armed (at most) once per deposit -- so
  //   rounds <= threshold_init * (1 + kValues) + 1.
  const std::int64_t kRoundBound =
      (3 * static_cast<std::int64_t>(kHalf) - 1) * (1 + kValues) + 1;

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
        // movement 2 shows the identical world without the threshold has
        // schedules that never finish.
        ASSERT_TRUE(engine.all_done()) << "a schedule wedged an SCQ op";
        // The consumer saw a sub-multiset of {1, 2} in FIFO order.  (The
        // producer may have been refused, or given its bounded budget up,
        // on value 2, so only prefix-FIFO is guaranteed, not delivery.)
        ASSERT_LE(world->got.size(), kValues);
        for (std::size_t i = 0; i < world->got.size(); ++i) {
          ASSERT_EQ(world->got[i], i + 1)
              << "duplicate, invented, or reordered value";
        }
        const std::uint64_t rounds = world->ring.stats().max_deq_rounds;
        ASSERT_LE(rounds, static_cast<std::uint64_t>(kRoundBound));
        if (rounds > worst_rounds) worst_rounds = rounds;
        ++checked;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_GT(checked, 100u) << "DPOR covered suspiciously few schedules";
  EXPECT_EQ(checked, result.schedules_run);
  // The bound is not vacuous: some schedule actually needs > 1 round.
  EXPECT_GT(worst_rounds, 1u);
}

// ---- movements 2 & 3: the directed chase choreography ------------------

// Free coroutine helpers: spawn() lambdas must NOT be coroutines
// themselves (their captures would dangle with the temporary lambda);
// plain lambdas calling these copy the arguments into the frame.
Task<void> enq_into(Proc& p, SimScqRing& ring, std::uint32_t v, bool& ok) {
  ok = co_await ring.enqueue(p, v) == SimScqRing::Enq::kDone;
}

Task<void> deq_into(Proc& p, SimScqRing& ring, std::uint32_t& out) {
  out = co_await ring.dequeue(p);
}

Task<void> drain_n(Proc& p, SimScqRing& ring, int n,
                   std::vector<std::uint32_t>& out) {
  for (int i = 0; i < n; ++i) {
    const std::uint32_t r = co_await ring.dequeue(p);
    if (r != SimScqRing::kBottom) out.push_back(r);
  }
}

/// half=2 world (4 entries, two credits, one for each enqueuer): enqueuer
/// E2 freezes right after its tail FAA (keeping tail >= head + 2
/// forever), enqueuer E1 chases a deposit, dequeuer D chases a value that
/// is never deposited.
struct ChaseWorld {
  Engine engine;
  SimScqRing ring;
  bool e1_ok = false;
  bool e2_ok = false;
  std::uint32_t deq_result = 0xDEADBEEFu;

  // Proc ids, in spawn order.
  static constexpr std::uint32_t kE2 = 0;
  static constexpr std::uint32_t kE1 = 1;
  static constexpr std::uint32_t kD = 2;

  explicit ChaseWorld(bool threshold_enabled)
      : ring(engine, /*half=*/2, /*mo=*/nullptr,
             threshold_enabled ? SimScqRing::Variant::kFaithful
                               : SimScqRing::Variant::kNoThreshold) {
    if (threshold_enabled) {
      // Model "an earlier enqueue/dequeue pair completed": the budget sits
      // at threshold_init (a fresh empty ring's -1 would short-circuit D
      // before the chase even starts -- itself a liveness win, but not the
      // mechanism under test).
      ring.arm_threshold(engine);
    }
    engine.spawn(0, [this](Proc& p) { return enq_into(p, ring, 7, e2_ok); });
    engine.spawn(0, [this](Proc& p) { return enq_into(p, ring, 5, e1_ok); });
    engine.spawn(0,
                 [this](Proc& p) { return deq_into(p, ring, deq_result); });
  }

  void step_n(std::uint32_t id, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(engine.step(id)) << "proc " << id << " finished early";
    }
  }
};

TEST(SimScqLivelock, WithoutTheThresholdTheChaseNeverTerminates) {
  ChaseWorld w(/*threshold_enabled=*/false);

  // Prologue: E2 takes a credit and ticket 0 and freezes (tail=1).  E1
  // takes a credit and ticket 1 and loads its entry (tail=2).  D scans
  // tickets 0 and 1, advancing both entries' cycles past E1's pending
  // deposit.  Each credit comes from the depot: the enqueuer reads its
  // own (empty) slot, then the depot, then CASes the depot.
  w.step_n(ChaseWorld::kE2, 4);  // credit: slot, depot, CAS; FAA tail -> 1
  w.step_n(ChaseWorld::kE1, 5);  // credit: slot, depot, CAS; FAA; load
  w.step_n(ChaseWorld::kD, 7);   // FAA h=0, load, advance; tail check;
                                 // FAA h=1, load, advance

  // The sustained chase: per round E1 fails its deposit CAS (D advanced
  // the entry's cycle), takes a fresh ticket, reloads; D sees tail still
  // ahead, takes a fresh ticket, and advances the very entry E1 is about
  // to CAS.  Head and tail each move +1 per round; the gap never closes
  // and neither op completes -- run any number of rounds you like.
  constexpr std::uint32_t kRounds = 6;
  for (std::uint32_t k = 1; k <= kRounds; ++k) {
    w.step_n(ChaseWorld::kE1, 3);  // CAS-fail, FAA, load
    w.step_n(ChaseWorld::kD, 4);   // tail check, FAA, load, CAS-advance
    EXPECT_EQ(w.ring.peek_head(w.engine), 2u + k);
    EXPECT_EQ(w.ring.peek_tail(w.engine), 2u + k);
  }
  EXPECT_FALSE(w.engine.done(ChaseWorld::kE1));
  EXPECT_FALSE(w.engine.done(ChaseWorld::kD));
  EXPECT_FALSE(w.engine.all_done());
}

TEST(SimScqLivelock, TheThresholdEndsTheSameChaseAndTheRingRecovers) {
  ChaseWorld w(/*threshold_enabled=*/true);
  const auto threshold_init =
      static_cast<std::uint64_t>(w.ring.threshold_init());
  ASSERT_EQ(threshold_init, 5u);  // half=2: 3n-1

  // Same prologue as above; D pays one extra op for the fast-path read and
  // one per losing round for the budget decrement.
  w.step_n(ChaseWorld::kE2, 4);
  w.step_n(ChaseWorld::kE1, 5);
  w.step_n(ChaseWorld::kD, 9);  // fast-path read; round h=0 (+decrement);
                                // round h=1

  // Chase rounds: D's budget decrements hit 0 within threshold_init
  // rounds and its dequeue returns empty instead of chasing forever.
  std::uint32_t d_steps = 0;
  for (std::uint32_t k = 1; k <= threshold_init + 1; ++k) {
    if (w.engine.done(ChaseWorld::kD)) break;
    w.step_n(ChaseWorld::kE1, 3);
    for (std::uint32_t i = 0; i < 5 && w.engine.step(ChaseWorld::kD); ++i) {
      ++d_steps;
    }
  }
  ASSERT_TRUE(w.engine.done(ChaseWorld::kD));
  EXPECT_EQ(w.deq_result, SimScqRing::kBottom);
  EXPECT_LE(w.ring.stats().max_deq_rounds, threshold_init + 2);

  // With the chase broken, both enqueuers complete unaided...
  std::uint32_t guard = 0;
  while (w.engine.step(ChaseWorld::kE1)) ASSERT_LT(++guard, 200u);
  while (w.engine.step(ChaseWorld::kE2)) ASSERT_LT(++guard, 200u);
  ASSERT_TRUE(w.engine.all_done());
  EXPECT_TRUE(w.e1_ok);
  EXPECT_TRUE(w.e2_ok);
  // ... E1's deposit re-armed the budget ...
  EXPECT_EQ(w.ring.peek_threshold(w.engine),
            static_cast<std::int64_t>(threshold_init));

  // ... and the ring drains FIFO: E1 deposited before E2's retry landed.
  std::vector<std::uint32_t> drained;
  const std::uint32_t drainer = w.engine.spawn(
      0, [&](Proc& p) { return drain_n(p, w.ring, 2, drained); });
  while (w.engine.step(drainer)) ASSERT_LT(++guard, 400u);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 5u);
  EXPECT_EQ(drained[1], 7u);
}

// ---- movement 4: the read-only empty check ------------------------------

// History clock in half-steps.  A call's first memory op runs in the same
// resume that invokes it, but its response is recorded on a LATER resume,
// possibly right before a peer's invocation with no op in between.  After
// k memory ops a response reads 2k and an invocation 2k + 1, so such a
// pair is strictly ordered; k = clock / 2 either way.
std::int64_t invoked_at(Proc& p) {
  return 2 * static_cast<std::int64_t>(p.engine().total_steps()) + 1;
}
std::int64_t returned_at(Proc& p) {
  return 2 * static_cast<std::int64_t>(p.engine().total_steps());
}

Task<void> logged_deq(Proc& p, SimScqRing& ring, check::ThreadLog& log) {
  const std::int64_t inv = invoked_at(p);
  const std::uint32_t r = co_await ring.dequeue(p);
  log.record(r == SimScqRing::kBottom ? check::OpKind::kDequeueEmpty
                                      : check::OpKind::kDequeue,
             r == SimScqRing::kBottom ? 0 : r, inv, returned_at(p));
}

/// Logs an accepted enqueue; a refusal leaves no event (the checker's
/// queue is unbounded) and is counted in `refused` instead.
Task<void> logged_enq(Proc& p, SimScqRing& ring, std::uint32_t v,
                      check::ThreadLog& log, std::uint32_t* refused = nullptr) {
  const std::int64_t inv = invoked_at(p);
  const SimScqRing::Enq r = co_await ring.enqueue(p, v);
  if (r == SimScqRing::Enq::kDone) {
    log.record(check::OpKind::kEnqueue, v, inv, returned_at(p));
  } else if (refused != nullptr) {
    ++*refused;
  }
}

/// A 4-entry ring (room for 2 values) prefilled with 1; p0 dequeues, p1
/// enqueues 2, p2 dequeues.  The budget sits one miss below armed ("a
/// dequeuer has missed since the last deposit"), so each dequeue opens
/// with the read-only empty check.  Records the history for the exact
/// checker and the ring's unclaimed items after every memory op.
struct EmptyCheckWorld {
  static constexpr std::uint32_t kPrefill = 1;
  static constexpr std::uint32_t kEnqueued = 2;

  Engine engine;
  SimScqRing ring;
  std::vector<check::ThreadLog> logs;
  std::vector<std::size_t> occupancy;  // [k]: unclaimed items after k ops

  explicit EmptyCheckWorld(SimScqRing::Variant variant)
      : ring(engine, /*half=*/2, /*mo=*/nullptr, variant) {
    ring.prefill(engine, kPrefill);
    ring.arm_threshold(engine, /*misses=*/1);
    for (std::uint32_t t = 0; t < 4; ++t) logs.emplace_back(t);
    // The prefill as a completed enqueue preceding every call.
    logs[3].record(check::OpKind::kEnqueue, kPrefill, -2, -1);
    occupancy.push_back(ring.peek_unclaimed(engine).size());
    engine.spawn(0, [this](Proc& p) { return logged_deq(p, ring, logs[0]); });
    engine.spawn(
        0, [this](Proc& p) { return logged_enq(p, ring, kEnqueued, logs[1]); });
    engine.spawn(0, [this](Proc& p) { return logged_deq(p, ring, logs[2]); });
  }

  void sample() {
    occupancy.resize(engine.total_steps() + 1, occupancy.back());
    occupancy.back() = ring.peek_unclaimed(engine).size();
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
        world = std::make_unique<EmptyCheckWorld>(
            SimScqRing::Variant::kFaithful);
        return world->engine;
      },
      [&](Engine&) { world->sample(); },
      [&](Engine& engine) {
        ASSERT_TRUE(engine.all_done()) << "a schedule wedged an SCQ op";
        const auto history = check::merge_logs(world->logs);
        const auto lin = check::check_linearizable_exact(history);
        ASSERT_TRUE(lin.ok) << lin.diagnosis;
        ASSERT_EQ(world->empty_on_a_nonempty_ring(history), nullptr);

        // No loss, no duplicate: what was dequeued plus what the ring
        // still holds is exactly {prefill, enqueued}.
        std::vector<std::uint32_t> seen = world->ring.peek_unclaimed(engine);
        bool got_prefill = false;
        bool got_enqueued = false;
        for (const check::Event& e : history) {
          if (e.kind != check::OpKind::kDequeue) continue;
          seen.push_back(static_cast<std::uint32_t>(e.value));
          got_prefill |= e.value == EmptyCheckWorld::kPrefill;
          got_enqueued |= e.value == EmptyCheckWorld::kEnqueued;
        }
        std::sort(seen.begin(), seen.end());
        ASSERT_EQ(seen, (std::vector<std::uint32_t>{
                            EmptyCheckWorld::kPrefill,
                            EmptyCheckWorld::kEnqueued}));
        // FIFO: the prefill went in strictly first, so it leaves first.
        ASSERT_TRUE(got_prefill || !got_enqueued)
            << "dequeued the later item while the earlier one stayed";
        if (world->ring.stats().read_only_empties > 0) {
          // The other dequeuer holds ticket 0 and so the prefill: the
          // schedule's one empty verdict is the read-only one.
          for (const check::Event& e : history) {
            if (e.kind == check::OpKind::kDequeueEmpty) {
              ++read_only_empty_by[e.thread == 0 ? 0 : 1];
            }
          }
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
  // Stop at the first schedule where the tail-first variant says empty
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
          world = std::make_unique<EmptyCheckWorld>(
              SimScqRing::Variant::kTailFirst);
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
/// dequeues twice.  Records the accepted history and, after every memory
/// op, the most unconsumed values the ring ever held.
struct CapacityWorld {
  Engine engine;
  SimScqRing ring;
  std::vector<check::ThreadLog> logs;
  std::uint32_t refused = 0;
  std::uint32_t peak_unconsumed = 0;

  explicit CapacityWorld(SimScqRing::Variant variant)
      : ring(engine, /*half=*/1, /*mo=*/nullptr, variant) {
    for (std::uint32_t t = 0; t < 3; ++t) logs.emplace_back(t);
    engine.spawn(0, [this](Proc& p) {
      return logged_enq(p, ring, 1, logs[0], &refused);
    });
    engine.spawn(0, [this](Proc& p) {
      return logged_enq(p, ring, 2, logs[1], &refused);
    });
    engine.spawn(0, [this](Proc& p) { return drain_logged(p); });
  }

  Task<void> drain_logged(Proc& p) {
    for (int i = 0; i < 2; ++i) co_await logged_deq(p, ring, logs[2]);
  }

  void sample() {
    const std::uint32_t n = ring.peek_unconsumed(engine);
    if (n > peak_unconsumed) peak_unconsumed = n;
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
        world = std::make_unique<CapacityWorld>(
            SimScqRing::Variant::kFaithful);
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
        std::vector<std::uint32_t> accepted;
        std::vector<std::uint32_t> seen = world->ring.peek_unclaimed(engine);
        for (const check::Event& e : history) {
          if (e.kind == check::OpKind::kEnqueue) {
            accepted.push_back(static_cast<std::uint32_t>(e.value));
          } else if (e.kind == check::OpKind::kDequeue) {
            seen.push_back(static_cast<std::uint32_t>(e.value));
          }
        }
        std::sort(accepted.begin(), accepted.end());
        std::sort(seen.begin(), seen.end());
        ASSERT_EQ(seen, accepted);
        ASSERT_EQ(accepted.size() + world->refused, 2u);
        // Conservation at quiescence: spare credits (depot and slots)
        // plus queued items make up the capacity.
        ASSERT_EQ(world->ring.peek_free_credits(engine) +
                      world->ring.peek_unconsumed(engine),
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
          world = std::make_unique<CapacityWorld>(
              SimScqRing::Variant::kNoCredits);
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

// ---- single-proc sanity: fill, refuse, drain FIFO through the remap ------

Task<void> fill_drain_lap(Proc& p, SimScqRing& ring,
                          std::vector<SimScqRing::Enq>& enq,
                          std::vector<std::uint32_t>& out) {
  for (std::uint32_t v = 0; v < 5; ++v) {
    enq.push_back(co_await ring.enqueue(p, v));
  }
  for (int i = 0; i < 5; ++i) {
    out.push_back(co_await ring.dequeue(p));
  }
  // Refill one credit's worth and take it back: one more lap.
  enq.push_back(co_await ring.enqueue(p, 9));
  out.push_back(co_await ring.dequeue(p));
}

TEST(SimScqRingBasic, FillRefusesAtCapacityThenDrainsInOrder) {
  Engine engine;
  SimScqRing ring(engine, /*half=*/4);
  std::vector<SimScqRing::Enq> enq;
  std::vector<std::uint32_t> out;
  // 5 enqueues (the 5th refuses), 5 dequeues (the 5th misses), one lap.
  engine.spawn(0, [&](Proc& p) { return fill_drain_lap(p, ring, enq, out); });
  std::uint32_t guard = 0;
  while (engine.step_random()) ASSERT_LT(++guard, 2'000u);
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(enq.size(), 6u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(enq[i], SimScqRing::Enq::kDone);
  }
  EXPECT_EQ(enq[4], SimScqRing::Enq::kFull);
  EXPECT_EQ(enq[5], SimScqRing::Enq::kDone);
  ASSERT_EQ(out.size(), 6u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(out[4], SimScqRing::kBottom);
  EXPECT_EQ(out[5], 9u);
  EXPECT_EQ(ring.peek_unconsumed(engine), 0u);
}

}  // namespace
}  // namespace msq::sim
