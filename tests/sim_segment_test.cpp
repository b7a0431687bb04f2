// The segment-queue proofs, run on the shipped src/queues/segment_queue.hpp:
// this is a model-build target (MSQ_MODEL=1), so every SegmentQueue access
// is one sim::Engine step of the fiber process that makes it, every
// MSQ_PROBE a label, and two MSQ_MUTANT hooks switch in the negative
// controls.  The model build gives a segment two slots, so these short
// worlds fill, append, retire and reuse segments.  A world is set up, and
// its end state read, by the queue's own calls made off every fiber.
//
//  1. The slot handshake: a dequeuer that wins a ticket whose enqueuer is
//     still in flight KILLS the slot (exchange kEmpty -> kTaken); the
//     enqueuer's commit CAS fails and it retries with a fresh ticket.
//     Neither side ever waits on the other -- the non-blocking argument.
//
//  2. The one-ticket claim: when a dequeuer's reads show exactly one
//     claimable ticket it claims it by CAS, not fetch_add.  DPOR over a
//     producer of {1, 2} and two one-call pollers, or one poller calling
//     three times, proves the queue a linearizable FIFO with no loss or
//     duplicate, and over a prefilled item and three pollers that no
//     loser kills a slot -- under "segq.faa_claim", the fetch_add
//     claim, a loser does.  A directed schedule pins that a loser re-reads
//     rather than answering empty: in the DPOR world an enqueue's recorded
//     response always shares a step with the producer's next ticket, so no
//     history there can show that bug.
//
//  3. The overshooting ticket: an enqueue takes its ticket by fetch_add
//     with no load first, so two enqueuers racing for a segment's last
//     ticket send the loser past the segment before it reads `next`.  DPOR
//     over that race beside a polling dequeuer proves the history a
//     linearizable FIFO with no loss or duplicate.
//
//  4. The stale-FAA hazard: a modification counter defends a CAS (the
//     sim_aba_test scenario) but CANNOT defend an unconditional
//     fetch-and-add.  A dequeuer that read a segment's tickets and stalls
//     may wake to find that segment drained, retired and appended again as
//     a new generation; its fetch_add then draws a ticket of the new
//     generation.  The hazard cell, published and re-validated before the
//     tickets are read, keeps a held segment out of the free list.
//     "segq.no_hazard" publishes nothing, and the same schedule breaks FIFO.
//
// The worlds allocate segments from the shared mem::FreeList that the
// default magazines batch over: every allocator access is then a step the
// explorer sees, and a segment one process retires can be the next one
// another process appends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "check/history.hpp"
#include "check/lin_check.hpp"
#include "mem/freelist.hpp"
#include "model_world.hpp"
#include "queues/segment_queue.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"

static_assert(MSQ_MODEL, "the segment-queue proofs run the model build");

namespace msq::sim {
namespace {

using Queue = queues::SegmentQueue<std::uint64_t, mem::FreeList>;
constexpr std::uint32_t kCapacity = 6;  // four segments of two slots

/// Step `id` until it stops at probe `label`, before the access after it
/// (freeze_at_label makes the probe a step of its own).  False if it
/// finished first.
[[nodiscard]] bool run_to(Engine& e, std::uint32_t id, const char* label) {
  e.freeze_at_label(id, label);
  const std::uint64_t hits = e.label_hits(id, label);
  while (e.label_hits(id, label) == hits) {
    if (!e.step(id)) return false;
  }
  return true;
}

/// Run `id` to the end of its body.
void finish(Engine& e, std::uint32_t id) {
  e.freeze_at_label(id, nullptr);
  e.unfreeze(id);
  while (e.step(id)) {
  }
}

// ---- 1: the slot kill handshake -----------------------------------------

void run_kill_handshake(const char* mutant) {
  Engine engine(with_mutant(mutant));
  Queue q(kCapacity);
  // 1 in and out: the tail segment's slot 1 is the next ticket.
  std::uint64_t got = 0;
  ASSERT_TRUE(q.try_enqueue(1));
  ASSERT_TRUE(q.try_dequeue(got));

  bool enq_ok = false;
  bool deq_ok = true;
  const std::uint32_t enq =
      engine.spawn_fiber(0, [&](Proc&) { enq_ok = q.try_enqueue(42); });
  const std::uint32_t deq =
      engine.spawn_fiber(0, [&](Proc&) { deq_ok = q.try_dequeue(got); });

  // The enqueuer claims ticket 1, writes its value, stalls before the
  // commit CAS.
  ASSERT_TRUE(run_to(engine, enq, "segq.fill"));

  // A dequeuer arrives, wins ticket 1, finds the slot unfilled -- and must
  // KILL it and report empty rather than wait for the stalled enqueuer.
  finish(engine, deq);
  EXPECT_FALSE(deq_ok) << "dequeuer must not block on a stalled peer";
  EXPECT_EQ(engine.label_hits(deq, "segq.kill"), 1u) << "slot 1 not killed";

  // The enqueuer resumes: its commit CAS fails, and with the segment's
  // tickets spent it lands on a fresh one, slot 0 of a segment it appends.
  finish(engine, enq);
  EXPECT_TRUE(enq_ok);
  EXPECT_EQ(engine.label_hits(enq, "segq.fill"), 1u);
  EXPECT_EQ(engine.label_hits(enq, "segq.close"), 1u)
      << "enqueuer must recover onto a fresh slot";

  // A second dequeue finds exactly one item: nothing lost, nothing
  // duplicated across the kill/retry exchange.
  EXPECT_TRUE(q.try_dequeue(got));
  EXPECT_EQ(got, 42u);
  EXPECT_FALSE(q.try_dequeue(got));
}

// The in-flight kill is the progress mechanism, not a herd artefact: the
// one-ticket CAS claim makes it exactly as the fetch_add claim does.
TEST(SegmentHandshake, DequeuerKillsStalledEnqueuerSlotAndBothRecover) {
  {
    SCOPED_TRACE("one-ticket CAS claim");
    run_kill_handshake(nullptr);
  }
  {
    SCOPED_TRACE("fetch_add claim");
    run_kill_handshake("segq.faa_claim");
  }
}

// A lost claim CAS proves only that a peer took the one ticket the loser
// saw; the producer may have filled more since.  So the loser re-reads
// instead of answering empty: here the queue holds an item at every
// instant of A's call, and A must come back with item 2.
TEST(SegmentHandshake, ALostClaimRereadsAndTakesTheNextItem) {
  Engine engine;
  Queue q(kCapacity);
  ASSERT_TRUE(q.try_enqueue(1));

  std::uint64_t a_got = 0;
  std::uint64_t b_got = 0;
  bool a_ok = false;
  bool b_ok = false;
  bool produced = false;
  const std::uint32_t a =
      engine.spawn_fiber(0, [&](Proc&) { a_ok = q.try_dequeue(a_got); });
  const std::uint32_t producer =
      engine.spawn_fiber(0, [&](Proc&) { produced = q.try_enqueue(2); });
  const std::uint32_t b =
      engine.spawn_fiber(0, [&](Proc&) { b_ok = q.try_dequeue(b_got); });

  // A moves Head onto item 1's segment and reads deq 0, enq 1: one
  // claimable ticket.  It stops before its claim CAS.
  ASSERT_TRUE(run_to(engine, a, "segq.faa_deq"));
  // The producer fills slot 1, then B takes item 1 by fetch_add (it sees
  // two claimable tickets).
  finish(engine, producer);
  ASSERT_TRUE(produced);
  finish(engine, b);
  ASSERT_TRUE(b_ok);
  ASSERT_EQ(b_got, 1u);
  // A's CAS on deq 0 fails; it re-reads and claims ticket 1.
  finish(engine, a);
  EXPECT_EQ(engine.label_hits(a, "segq.faa_deq"), 2u) << "A's claim won";
  EXPECT_TRUE(a_ok) << "the loser answered empty on a non-empty queue";
  EXPECT_EQ(a_got, 2u);
}

// ---- 2: the one-ticket claim under DPOR ---------------------------------

/// Thread ids 0..pollers-1 poll `calls` times each; thread `pollers`
/// produces (or, with no producer, stands for the prefill's completed
/// enqueue of 1).
struct ClaimWorld {
  Engine engine;
  Queue q{kCapacity};
  std::uint32_t pollers;
  std::vector<check::ThreadLog> logs;
  std::vector<std::vector<std::uint64_t>> got;  // per poller, in call order
  std::vector<std::uint64_t> claims_seen;       // per poller: faa_deq hits
  std::uint64_t lost_claims = 0;  // claim CASes that failed
  bool take_after_kill = false;   // a call took an item after an earlier
                                  // call of its poller killed a slot

  ClaimWorld(const char* mutant, std::uint32_t poller_count,
             std::uint32_t calls, std::uint64_t produced, bool prefilled)
      : engine(with_mutant(mutant)),
        pollers(poller_count),
        got(poller_count),
        claims_seen(poller_count, 0) {
    for (std::uint32_t t = 0; t <= pollers; ++t) logs.emplace_back(t);
    if (prefilled && q.try_enqueue(1)) {
      logs[pollers].record(check::OpKind::kEnqueue, 1, -2, -1);
    }
    for (std::uint32_t t = 0; t < pollers; ++t) {
      engine.spawn_fiber(0, [this, t, calls](Proc& p) { poll(p, t, calls); });
    }
    if (produced > 0) {
      engine.spawn_fiber(0, [this, produced](Proc& p) {
        produce(p, produced, logs[pollers]);
      });
    }
  }

  /// Enqueues 1..n in order; stops at the first item the pool refuses,
  /// which then never enters the history.
  void produce(Proc& p, std::uint64_t n, check::ThreadLog& log) {
    for (std::uint64_t v = 1; v <= n; ++v) {
      const std::int64_t inv = invoked_at(p);
      if (!q.try_enqueue(v)) return;
      log.record(check::OpKind::kEnqueue, v, inv, returned_at(p));
    }
  }

  void poll(Proc& p, std::uint32_t t, std::uint32_t calls) {
    for (std::uint32_t c = 0; c < calls; ++c) {
      const bool killed_before = p.engine().label_hits(t, "segq.kill") > 0;
      const std::int64_t inv = invoked_at(p);
      std::uint64_t v = 0;
      const bool ok = q.try_dequeue(v);
      logs[t].record(
          ok ? check::OpKind::kDequeue : check::OpKind::kDequeueEmpty,
          ok ? v : 0, inv, returned_at(p));
      if (!ok) continue;
      got[t].push_back(v);
      take_after_kill |= killed_before;
    }
  }

  /// on_step: the access right after a poller's segq.faa_deq probe is its
  /// claim, made in the same step, so a step that raises that poller's
  /// hits and ends in a failed CAS is a lost claim.  (A fetch_add that
  /// overshoots the segment also retries; it is not counted.)
  void observe_step() {
    const Engine::LastAccess& a = engine.last_access();
    if (!a.valid || (a.kind != OpKind::kCas && a.kind != OpKind::kFaa)) return;
    for (std::uint32_t t = 0; t < pollers; ++t) {
      const std::uint64_t hits = engine.label_hits(t, "segq.faa_deq");
      if (hits == claims_seen[t]) continue;
      claims_seen[t] = hits;
      if (a.kind == OpKind::kCas && !a.is_write) ++lost_claims;
    }
  }

  /// Slots killed by every process so far.
  [[nodiscard]] std::uint64_t kills() const {
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < engine.process_count(); ++i) {
      n += engine.label_hits(i, "segq.kill");
    }
    return n;
  }

  /// What the queue still holds, in FIFO order: dequeued off every fiber
  /// once all processes are done.
  [[nodiscard]] std::vector<std::uint64_t> drain() {
    std::vector<std::uint64_t> left;
    std::uint64_t v = 0;
    while (left.size() <= kCapacity && q.try_dequeue(v)) left.push_back(v);
    return left;
  }
};

/// What a claim world's schedules showed, beyond passing every check.
struct ClaimCoverage {
  std::uint64_t schedules = 0;
  std::uint64_t with_empty = 0;          // some call answered empty
  std::uint64_t with_lost_claim = 0;     // some claim CAS failed
  std::uint64_t with_all_delivered = 0;  // every item landed and left
  std::uint64_t with_kill = 0;           // a poller killed a slot
  std::uint64_t with_second_append = 0;  // ...and the producer appended
  std::uint64_t with_one_poller_pair = 0;  // one poller took 1, then 2
  std::uint64_t with_take_after_kill = 0;  // a call took after a kill
};

/// Explores every DPOR schedule of a producer of {1, 2} and `pollers`
/// pollers making `calls` calls each.  Each must be a linearizable FIFO
/// history, empty verdicts included, in which every landed item was
/// dequeued exactly once or is still queued, no item left while an
/// earlier one stayed behind, and each poller saw its items in producer
/// order.  The two shapes the suite runs -- two one-call pollers, and one
/// poller calling three times -- stand in for the mirror's two pollers of
/// two calls each: on the real header that world's schedules run past the
/// budget (one poller calling twice beside a one-call poller exhausted
/// 1.5M schedules in four minutes).
ClaimCoverage explore_claim_world(const char* mutant, std::uint32_t pollers,
                                  std::uint32_t calls) {
  constexpr std::uint64_t kProduced = 2;
  const std::uint32_t producer = pollers;
  std::unique_ptr<ClaimWorld> world;
  ClaimCoverage cover;
  DporConfig config;
  config.max_schedules = 2'000'000;
  config.max_steps_per_run = 4'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/pollers + 1,
      [&]() -> Engine& {
        world = std::make_unique<ClaimWorld>(mutant, pollers, calls,
                                             kProduced, /*prefilled=*/false);
        return world->engine;
      },
      [&](Engine&) { world->observe_step(); },
      [&](Engine& engine) {
        ASSERT_TRUE(engine.all_done()) << "a schedule wedged a segq op";
        const auto history = check::merge_logs(world->logs);
        const auto lin = check::check_linearizable_exact(history);
        ASSERT_TRUE(lin.ok) << lin.diagnosis;

        // No loss, no duplicate: what was dequeued plus what the queue
        // still holds is exactly what landed.
        const std::vector<std::uint64_t> left = world->drain();
        std::vector<std::uint64_t> landed;
        std::vector<std::uint64_t> dequeued;
        for (const check::Event& e : history) {
          if (e.kind == check::OpKind::kEnqueue) landed.push_back(e.value);
          if (e.kind == check::OpKind::kDequeue) dequeued.push_back(e.value);
        }
        std::vector<std::uint64_t> seen = dequeued;
        seen.insert(seen.end(), left.begin(), left.end());
        std::sort(landed.begin(), landed.end());
        std::sort(seen.begin(), seen.end());
        ASSERT_EQ(seen, landed);
        // Producer order: the queue keeps what is left rising, no value
        // leaves while an earlier one stays queued, and each poller sees
        // its items rising.
        ASSERT_TRUE(std::is_sorted(left.begin(), left.end()));
        if (!left.empty() && !dequeued.empty()) {
          ASSERT_LT(*std::max_element(dequeued.begin(), dequeued.end()),
                    left.front())
              << "a later item left while an earlier one stayed";
        }
        for (const std::vector<std::uint64_t>& mine : world->got) {
          ASSERT_TRUE(std::is_sorted(mine.begin(), mine.end()))
              << "a poller saw the producer's items out of order";
          if (mine.size() == kProduced) ++cover.with_one_poller_pair;
        }
        if (dequeued.size() < pollers * calls) ++cover.with_empty;
        if (world->lost_claims > 0) ++cover.with_lost_claim;
        if (left.empty() && landed.size() == kProduced) {
          ++cover.with_all_delivered;
        }
        if (world->kills() > 0) {
          ++cover.with_kill;
          if (engine.label_hits(producer, "segq.close") > 1) {
            ++cover.with_second_append;
          }
        }
        if (world->take_after_kill) ++cover.with_take_after_kill;
        ++cover.schedules;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(cover.schedules, result.schedules_run);
  std::cout << "[ DPOR     ] " << (mutant != nullptr ? mutant : "shipped")
            << ", " << pollers << " poller(s) x " << calls
            << " call(s): " << cover.schedules << " schedules, "
            << cover.with_kill << " killing a slot, "
            << cover.with_second_append
            << " of them sending the producer to append, "
            << cover.with_lost_claim << " losing a claim CAS\n";
  return cover;
}

/// Not vacuous: empties, full deliveries, and kills that send the producer
/// down the append path all occur.
void expect_covered(const ClaimCoverage& cover) {
  EXPECT_GT(cover.schedules, 100u) << "DPOR covered suspiciously few schedules";
  EXPECT_GT(cover.with_empty, 0u);
  EXPECT_GT(cover.with_all_delivered, 0u);
  EXPECT_GT(cover.with_second_append, 0u);
}

// The world from the claim's statement: one producer of {1, 2}, two
// pollers.  Two pollers that both read one claimable ticket race for it by
// CAS, and the loser re-reads.
TEST(SegmentClaimDpor, EveryScheduleIsLinearizableFifoWithNoLossOrDuplicate) {
  const ClaimCoverage cover = explore_claim_world(nullptr, 2, 1);
  expect_covered(cover);
  EXPECT_GT(cover.with_lost_claim, 0u) << "no schedule lost a claim CAS";
}

// The fetch_add claim, the baseline the CAS claim must match.  (A test of
// its own: under TSan each world takes minutes.)
TEST(SegmentClaimDpor, FetchAddClaimIsLinearizableFifoToo) {
  const ClaimCoverage cover = explore_claim_world("segq.faa_claim", 2, 1);
  expect_covered(cover);
  EXPECT_EQ(cover.with_lost_claim, 0u) << "the mutant made a claim CAS";
}

// One poller calling three times, under both claims: it must see 1 before
// 2, and a call made after an earlier one killed the producer's slot (and
// so sent it to append) must still take the item the producer lands next.
// Three calls, because the first item always lands pre-seeded in slot 0 of
// a segment the producer appends: only a second call can kill a slot, and
// only a third comes after it.
TEST(SegmentClaimDpor, OnePollerSeesTheItemsInOrderAcrossKillsAndAppends) {
  for (const char* mutant : {static_cast<const char*>(nullptr),
                             "segq.faa_claim"}) {
    SCOPED_TRACE(mutant != nullptr ? mutant : "one-ticket CAS claim");
    const ClaimCoverage cover = explore_claim_world(mutant, 1, 3);
    expect_covered(cover);
    EXPECT_GT(cover.with_one_poller_pair, 0u);
    EXPECT_GT(cover.with_take_after_kill, 0u);
  }
}

/// Runs every schedule of three pollers racing for one prefilled item;
/// returns how many schedules killed a slot.
std::uint64_t schedules_killing_a_slot(const char* mutant) {
  constexpr std::uint32_t kPollers = 3;
  std::unique_ptr<ClaimWorld> world;
  std::uint64_t killing = 0;
  std::uint64_t checked = 0;
  const DporResult result = explore_dpor(
      DporConfig{}, /*process_count=*/kPollers,
      [&]() -> Engine& {
        world = std::make_unique<ClaimWorld>(mutant, kPollers, /*calls=*/1,
                                             /*produced=*/0,
                                             /*prefilled=*/true);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        ASSERT_TRUE(engine.all_done());
        const auto history = check::merge_logs(world->logs);
        ASSERT_TRUE(check::check_linearizable_exact(history).ok);
        // Exactly one poller takes the item; the others answer empty.
        std::uint64_t taken = 0;
        for (const check::Event& e : history) {
          if (e.kind == check::OpKind::kDequeue) ++taken;
        }
        ASSERT_EQ(taken, 1u);
        ASSERT_TRUE(world->drain().empty());
        // No producer runs here, so any kill is of a slot the producer
        // would fill next.
        if (world->kills() > 0) ++killing;
        ++checked;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(checked, result.schedules_run);
  EXPECT_GT(checked, 10u) << "DPOR covered suspiciously few schedules";
  std::cout << "[ DPOR     ] " << (mutant != nullptr ? mutant : "shipped")
            << ": " << checked << " schedules, " << killing
            << " killing a slot\n";
  return killing;
}

// split's regime in miniature: the item is already filled when the pollers
// arrive, so a slot past it can only be one the producer fills next.  No
// schedule of the one-ticket claim touches such a slot.
TEST(SegmentClaimDpor, OneTicketCasLosersKillNoSlotInAnySchedule) {
  EXPECT_EQ(schedules_killing_a_slot(nullptr), 0u);
}

// Negative control: with the fetch_add claim the losers draw tickets past
// the item and kill the producer's next slots.
TEST(SegmentClaimDpor, FetchAddLosersKillTheProducersNextSlot) {
  EXPECT_GT(schedules_killing_a_slot("segq.faa_claim"), 0u);
}

// ---- 3: the overshooting enqueue ticket ---------------------------------

/// Item 1 went in and out as ticket 0 of the tail segment, so the segment
/// has one ticket left.  Enqueuers 0 and 1 (items 2 and 3) race for it
/// with the bare fetch_add: the loser draws ticket 2, past the segment,
/// and only then reads `next` -- null, so it appends, or set by a peer, so
/// it helps Tail on.  Thread 2 polls `calls` times; a poll that kills the
/// winner's slot sends the winner past the segment too.  Thread 3's log
/// holds the setup calls and, timed after every call, the drain off every
/// fiber, so the linearizability check covers what the queue still holds.
struct OvershootWorld {
  static constexpr std::uint32_t kEnqueuers = 2;
  static constexpr std::uint32_t kPoller = kEnqueuers;
  Engine engine;
  Queue q{kCapacity};
  std::vector<check::ThreadLog> logs;

  explicit OvershootWorld(std::uint32_t calls) {
    for (std::uint32_t t = 0; t <= kPoller + 1; ++t) logs.emplace_back(t);
    std::uint64_t v = 0;
    if (q.try_enqueue(1)) {
      logs.back().record(check::OpKind::kEnqueue, 1, -4, -3);
    }
    if (q.try_dequeue(v)) {
      logs.back().record(check::OpKind::kDequeue, v, -2, -1);
    }
    for (std::uint32_t t = 0; t < kEnqueuers; ++t) {
      engine.spawn_fiber(0, [this, t](Proc& p) {
        const std::uint64_t v = 2 + t;
        const std::int64_t inv = invoked_at(p);
        if (q.try_enqueue(v)) {
          logs[t].record(check::OpKind::kEnqueue, v, inv, returned_at(p));
        }
      });
    }
    engine.spawn_fiber(0, [this, calls](Proc& p) {
      for (std::uint32_t c = 0; c < calls; ++c) {
        const std::int64_t inv = invoked_at(p);
        std::uint64_t v = 0;
        const bool ok = q.try_dequeue(v);
        logs[kPoller].record(
            ok ? check::OpKind::kDequeue : check::OpKind::kDequeueEmpty,
            ok ? v : 0, inv, returned_at(p));
      }
    });
  }

  /// Enqueue fetch_adds that drew a ticket past their segment: every other
  /// one is followed by its fill probe.
  [[nodiscard]] std::uint64_t overshoots() const {
    std::uint64_t n = 0;
    for (std::uint32_t t = 0; t < kEnqueuers; ++t) {
      n += engine.label_hits(t, "segq.faa_enq") -
           engine.label_hits(t, "segq.fill");
    }
    return n;
  }

  /// Append attempts (link CASes) by the enqueuers.  An overshoot that
  /// makes none found the successor already linked and helped Tail on.
  [[nodiscard]] std::uint64_t appends() const {
    std::uint64_t n = 0;
    for (std::uint32_t t = 0; t < kEnqueuers; ++t) {
      n += engine.label_hits(t, "segq.close");
    }
    return n;
  }

  /// Dequeues what is left, logged after every call has returned.
  void drain() {
    std::int64_t at = 2 * static_cast<std::int64_t>(engine.total_steps()) + 2;
    std::uint64_t v = 0;
    for (std::uint32_t n = 0; n <= kCapacity && q.try_dequeue(v); ++n) {
      logs.back().record(check::OpKind::kDequeue, v, at, at + 1);
      at += 2;
    }
  }
};

// The enqueue takes its ticket by fetch_add with no load first, so a
// segment's counter runs past kSlots.  In every schedule of the race for
// the last ticket beside a polling dequeuer the whole history -- prefill,
// calls, and the drain -- is a linearizable FIFO in which each item is
// dequeued exactly once; schedules where the loser overshoots and then
// appends, and where an overshooter finds the successor already linked,
// both occur.  (A poller calling twice makes 898,642 schedules, which pass
// but take 109 s natively: too many for a sanitizer build's timeout.)
TEST(SegmentOvershootDpor, ARaceForTheLastTicketOvershootsAndLosesNothing) {
  constexpr std::uint32_t kCalls = 1;
  std::unique_ptr<OvershootWorld> world;
  std::uint64_t checked = 0;
  std::uint64_t with_empty = 0;
  std::uint64_t with_overshoot = 0;
  std::uint64_t with_help = 0;  // an overshooter found `next` set
  DporConfig config;
  config.max_schedules = 2'000'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/OvershootWorld::kPoller + 1,
      [&]() -> Engine& {
        world = std::make_unique<OvershootWorld>(kCalls);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        ASSERT_TRUE(engine.all_done()) << "a schedule wedged a segq op";
        world->drain();
        const auto history = check::merge_logs(world->logs);
        const auto lin = check::check_linearizable_exact(history);
        ASSERT_TRUE(lin.ok) << lin.diagnosis;
        std::vector<std::uint64_t> landed;
        std::vector<std::uint64_t> taken;
        bool empty = false;
        for (const check::Event& e : history) {
          if (e.kind == check::OpKind::kEnqueue) landed.push_back(e.value);
          if (e.kind == check::OpKind::kDequeue) taken.push_back(e.value);
          empty |= e.kind == check::OpKind::kDequeueEmpty;
        }
        std::sort(landed.begin(), landed.end());
        std::sort(taken.begin(), taken.end());
        ASSERT_EQ(landed, (std::vector<std::uint64_t>{1, 2, 3}));
        ASSERT_EQ(taken, landed);
        if (empty) ++with_empty;
        if (world->overshoots() > 0) ++with_overshoot;
        if (world->overshoots() > world->appends()) ++with_help;
        ++checked;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(checked, result.schedules_run);
  EXPECT_GT(checked, 100u) << "DPOR covered suspiciously few schedules";
  EXPECT_GT(with_overshoot, 0u) << "no fetch_add ran past the segment";
  EXPECT_GT(with_help, 0u);
  EXPECT_GT(with_empty, 0u);
  std::cout << "[ DPOR     ] overshoot world, poller x " << kCalls
            << " call(s): " << checked << " schedules, " << with_overshoot
            << " overshooting, " << with_help
            << " with an overshooter helping, " << with_empty
            << " answering empty\n";
}

// ---- 4: stale FAA vs. the hazard cell -----------------------------------

struct StaleFaa {
  std::uint64_t victim_got = 0;       // what the stalled call returned
  std::vector<std::uint64_t> others;  // the mutator's items, then the rest
};

/// Items 1 and 2 fill one segment.  The victim dequeuer moves Head onto it,
/// reads its tickets (two claimable) and stalls before its fetch_add.  The
/// mutator then dequeues 1 and 2, enqueues 3 and 4 (appending a segment),
/// dequeues 3 (retiring the drained one) and enqueues 5, which appends
/// again -- with the newest freed segment when nothing protects it.  The
/// victim resumes; the queue is drained off every fiber at the end.
StaleFaa run_stale_faa(const char* mutant) {
  StaleFaa out;
  Engine engine(with_mutant(mutant));
  Queue q(kCapacity);
  EXPECT_TRUE(q.try_enqueue(1));
  EXPECT_TRUE(q.try_enqueue(2));

  bool victim_ok = false;
  const std::uint32_t victim = engine.spawn_fiber(
      0, [&](Proc&) { victim_ok = q.try_dequeue(out.victim_got); });
  const std::uint32_t mutator = engine.spawn_fiber(0, [&](Proc&) {
    const auto take = [&] {
      std::uint64_t v = 0;
      if (q.try_dequeue(v)) out.others.push_back(v);
    };
    take();
    take();
    EXPECT_TRUE(q.try_enqueue(3));
    EXPECT_TRUE(q.try_enqueue(4));
    take();
    EXPECT_TRUE(q.try_enqueue(5));
  });

  EXPECT_TRUE(run_to(engine, victim, "segq.faa_deq"));
  finish(engine, mutator);
  EXPECT_EQ(out.others, (std::vector<std::uint64_t>{1, 2, 3}));
  finish(engine, victim);
  EXPECT_TRUE(victim_ok);
  std::uint64_t v = 0;
  while (out.others.size() <= kCapacity && q.try_dequeue(v)) {
    out.others.push_back(v);
  }
  return out;
}

// Negative control: with counted pointers alone the victim's fetch_add
// draws ticket 0 of the segment's new generation and returns 5 while 4,
// enqueued before it, is still queued.
TEST(SegmentStaleFaa, CountersAloneCannotDefendFaaAnItemLeavesOutOfOrder) {
  const StaleFaa run = run_stale_faa("segq.no_hazard");
  const bool fifo = run.victim_got == 4 &&
                    run.others == std::vector<std::uint64_t>{1, 2, 3, 5};
  EXPECT_FALSE(fifo) << "the stale fetch_add went unnoticed";
  EXPECT_EQ(run.victim_got, 5u);
}

// The victim's hazard cell holds the segment, so the retire parks it in
// limbo and the mutator appends another one.  The victim's fetch_add runs
// past the parked segment's last slot, it re-reads, and it takes 4, the
// FIFO head; the drained queue holds every other item exactly once.
TEST(SegmentStaleFaa, ValidateBeforeFaaParksTheSegmentAndTakesTheFifoItem) {
  const StaleFaa run = run_stale_faa(nullptr);
  EXPECT_EQ(run.victim_got, 4u);
  EXPECT_EQ(run.others, (std::vector<std::uint64_t>{1, 2, 3, 5}));
}

}  // namespace
}  // namespace msq::sim
