// Directed, deterministic schedules for the two mechanisms that make the
// FAA segment queue (src/queues/segment_queue.hpp) correct:
//
//  1. The slot handshake: a dequeuer that wins a ticket whose enqueuer is
//     still in flight KILLS the slot (exchange kEmpty -> kTaken); the
//     enqueuer's commit CAS fails and it retries with a fresh ticket.
//     Neither side ever waits on the other -- the non-blocking argument.
//
//  2. The stale-FAA hazard: a modification counter defends a CAS (the
//     sim_aba_test scenario) but CANNOT defend an unconditional
//     fetch-and-add -- validating *after* the FAA detects the recycling
//     but has already consumed a ticket the new segment generation never
//     handed out, stranding an item forever.  Validating *before* the FAA
//     (the hazard-cell publish/re-read handshake) closes the window.
//     This is why the segment queue needs per-queue hazard cells on top of
//     the counted pointers that suffice for ms_queue.
//
//  3. The one-ticket claim: when a dequeuer's reads show exactly one
//     claimable ticket it claims it by CAS, not fetch_add.  DPOR over a
//     producer and two pollers proves the claim keeps the segment a
//     linearizable FIFO with no loss or duplicate, and over a prefilled
//     item and three pollers that no loser kills a slot -- the fetch_add
//     claim, the negative control, kills one.  A directed schedule pins
//     that a loser re-reads rather than answering empty: in the DPOR
//     world an enqueue's recorded response always shares a step with the
//     producer's next ticket, so no history there can show that bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "check/history.hpp"
#include "check/lin_check.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/task.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {
namespace {

constexpr std::uint64_t kEmpty = 0;
constexpr std::uint64_t kFilled = 1;
constexpr std::uint64_t kTaken = 2;
constexpr std::uint64_t kNone = ~0ull;

// ---- scenario 1: the slot kill handshake ------------------------------

/// How a dequeuer claims its ticket: always by fetch_add, or by CAS when
/// its reads show exactly one claimable ticket (segment_queue.hpp).
enum class Claim { kFaa, kOneTicketCas };

/// One simulated segment: enq/deq tickets plus per-slot {state, value}.
/// It never appends a successor: an enqueuer whose ticket runs past the
/// last slot gives its item up, where the real queue would append.
struct SimSegment {
  std::uint64_t slots;
  Claim claim;
  Addr enq;
  Addr deq;
  Addr state;  // `slots` consecutive words
  Addr value;  // `slots` consecutive words
  // Host-side tally (not simulated memory): claim CASes lost to a peer.
  std::uint64_t claim_fails = 0;

  explicit SimSegment(Engine& engine, std::uint64_t slot_count = 2,
                      Claim claim_form = Claim::kFaa)
      : slots(slot_count),
        claim(claim_form),
        enq(engine.memory().alloc(1)),
        deq(engine.memory().alloc(1)),
        state(engine.memory().alloc(static_cast<std::size_t>(slot_count))),
        value(engine.memory().alloc(static_cast<std::size_t>(slot_count))) {}

  /// Place `v` in the next free slot before any process runs.
  void prefill(Engine& engine, std::uint64_t v) {
    const std::uint64_t t = engine.memory().word(enq)++;
    engine.memory().word(value + static_cast<Addr>(t)) = v;
    engine.memory().word(state + static_cast<Addr>(t)) = kFilled;
  }
};

Task<void> seg_enqueue(Proc& p, SimSegment& s, std::uint64_t v,
                       std::uint64_t& landed_slot) {
  for (;;) {
    const std::uint64_t t = co_await p.faa(s.enq, 1);
    if (t >= s.slots) {
      landed_slot = kNone;  // segment full (would append in the real queue)
      co_return;
    }
    co_await p.write(s.value + static_cast<Addr>(t), v);
    co_await p.at("FILL_CAS");
    const std::uint64_t old =
        co_await p.cas(s.state + static_cast<Addr>(t), kEmpty, kFilled);
    if (old == kEmpty) {
      landed_slot = t;
      co_return;
    }
    // Slot was killed by an impatient dequeuer: take a fresh ticket.
  }
}

Task<void> seg_dequeue(Proc& p, SimSegment& s, std::uint64_t& out) {
  for (;;) {
    const std::uint64_t d = co_await p.read(s.deq);
    const std::uint64_t e = co_await p.read(s.enq);
    const std::uint64_t limit = e < s.slots ? e : s.slots;
    if (d >= limit) {
      out = kNone;
      co_return;
    }
    std::uint64_t t = d;
    if (s.claim == Claim::kOneTicketCas && limit - d == 1) {
      const std::uint64_t old = co_await p.cas(s.deq, d, d + 1);
      if (old != d) {
        ++s.claim_fails;
        continue;  // a peer claimed it: re-read, write nothing
      }
    } else {
      t = co_await p.faa(s.deq, 1);
      if (t >= s.slots) continue;
    }
    const std::uint64_t prev =
        co_await p.swap(s.state + static_cast<Addr>(t), kTaken);
    if (prev == kFilled) {
      out = co_await p.read(s.value + static_cast<Addr>(t));
      co_return;
    }
    // Killed an in-flight enqueuer's slot; burn onwards.
  }
}

void run_kill_handshake(Claim claim) {
  Engine engine;
  SimSegment seg(engine, /*slot_count=*/2, claim);

  std::uint64_t landed = kNone;
  std::uint64_t first_got = 0, second_got = 0;
  const auto enq = engine.spawn(
      0, [&](Proc& p) { return seg_enqueue(p, seg, 42, landed); });

  // Enqueuer claims ticket 0, writes its value, stalls before the commit.
  engine.freeze_at_label(enq, "FILL_CAS");
  while (!engine.done(enq) && engine.step(enq)) {
    if (std::string_view(engine.label(enq)) == "FILL_CAS") break;
  }
  ASSERT_EQ(engine.memory().peek(seg.enq), 1u) << "ticket 0 must be claimed";

  // A dequeuer arrives, wins ticket 0, finds the slot unfilled -- and must
  // KILL it and report empty rather than wait for the stalled enqueuer.
  const auto deq1 = engine.spawn(
      0, [&](Proc& p) { return seg_dequeue(p, seg, first_got); });
  while (engine.step(deq1)) {
  }
  EXPECT_EQ(first_got, kNone) << "dequeuer must not block on a stalled peer";
  EXPECT_EQ(engine.memory().peek(seg.state), kTaken) << "slot 0 must be killed";

  // The enqueuer resumes: its commit CAS fails, it retries with ticket 1.
  engine.freeze_at_label(enq, nullptr);
  engine.unfreeze(enq);
  while (engine.step(enq)) {
  }
  EXPECT_EQ(landed, 1u) << "enqueuer must recover onto a fresh slot";
  EXPECT_EQ(engine.memory().peek(seg.state + 1), kFilled);

  // A second dequeuer now finds exactly one item: nothing lost, nothing
  // duplicated across the kill/retry exchange.
  const auto deq2 = engine.spawn(
      0, [&](Proc& p) { return seg_dequeue(p, seg, second_got); });
  while (engine.step(deq2)) {
  }
  EXPECT_EQ(second_got, 42u);
}

// The in-flight kill is the progress mechanism, not a herd artefact: the
// one-ticket CAS claim makes it exactly as the fetch_add claim does.
TEST(SegmentHandshake, DequeuerKillsStalledEnqueuerSlotAndBothRecover) {
  {
    SCOPED_TRACE("fetch_add claim");
    run_kill_handshake(Claim::kFaa);
  }
  {
    SCOPED_TRACE("one-ticket CAS claim");
    run_kill_handshake(Claim::kOneTicketCas);
  }
}

// A lost claim CAS proves only that a peer took the one ticket the loser
// saw; the producer may have filled more since.  So the loser re-reads
// instead of answering empty: here the queue holds an item at every
// instant of A's call, and A must come back with item 2.
TEST(SegmentHandshake, ALostClaimRereadsAndTakesTheNextItem) {
  Engine engine;
  SimSegment seg(engine, /*slot_count=*/4, Claim::kOneTicketCas);
  seg.prefill(engine, 1);

  std::uint64_t a_got = 0, b_got = 0, landed = kNone;
  const auto a = engine.spawn(
      0, [&](Proc& p) { return seg_dequeue(p, seg, a_got); });
  const auto producer = engine.spawn(
      0, [&](Proc& p) { return seg_enqueue(p, seg, 2, landed); });
  const auto b = engine.spawn(
      0, [&](Proc& p) { return seg_dequeue(p, seg, b_got); });

  // A reads deq 0 and enq 1: one claimable ticket.
  ASSERT_TRUE(engine.step(a));
  ASSERT_TRUE(engine.step(a));
  // The producer fills slot 1, then B takes item 1 by fetch_add (it sees
  // two claimable tickets).
  while (engine.step(producer)) {
  }
  ASSERT_EQ(landed, 1u);
  while (engine.step(b)) {
  }
  ASSERT_EQ(b_got, 1u);
  // A's CAS on deq 0 fails; it re-reads and claims ticket 1.
  while (engine.step(a)) {
  }
  EXPECT_EQ(seg.claim_fails, 1u);
  EXPECT_EQ(a_got, 2u) << "the loser answered empty on a non-empty queue";
}

// ---- scenario 2: stale FAA vs. validate-before-FAA --------------------

/// A one-slot "queue": a counted head pointer (always at segment index 7,
/// only the counter advances on recycling) plus one segment generation.
struct MiniQueue {
  Addr head;   // TaggedIndex bits
  Addr enq;
  Addr deq;
  Addr state;
  Addr value;

  explicit MiniQueue(Engine& engine)
      : head(engine.memory().alloc(1)),
        enq(engine.memory().alloc(1)),
        deq(engine.memory().alloc(1)),
        state(engine.memory().alloc(1)),
        value(engine.memory().alloc(1)) {
    engine.memory().word(head) = tagged::TaggedIndex(7, 0).bits();
    engine.memory().word(enq) = 1;  // generation 0 holds one item
    engine.memory().word(state) = kFilled;
    engine.memory().word(value) = 7;
  }
};

/// Counted-pointer-only discipline: FAA first, validate the counter after.
/// The validation *detects* the recycling but the ticket is already gone.
Task<void> naive_dequeue(Proc& p, MiniQueue& q, std::uint64_t& out) {
  const std::uint64_t h = co_await p.read(q.head);
  co_await p.at("STALE_FAA");
  const std::uint64_t t = co_await p.faa(q.deq, 1);
  const std::uint64_t h2 = co_await p.read(q.head);
  if (h2 != h) {
    out = kNone;  // "safely" aborted -- but ticket t is burned
    co_return;
  }
  const std::uint64_t enq = co_await p.read(q.enq);
  if (t >= enq) {
    out = kNone;
    co_return;
  }
  const std::uint64_t prev = co_await p.swap(q.state, kTaken);
  out = prev == kFilled ? co_await p.read(q.value) : kNone;
}

/// Hazard-cell discipline: publish, re-read, and only FAA once the head is
/// revalidated (segment_queue.hpp's Protector::protect handshake).
Task<void> guarded_dequeue(Proc& p, MiniQueue& q, Addr hazard,
                           std::uint64_t& out) {
  std::uint64_t h = co_await p.read(q.head);
  for (;;) {
    co_await p.write(hazard, h);
    co_await p.at("REVALIDATE");
    const std::uint64_t h2 = co_await p.read(q.head);
    if (h2 == h) break;
    h = h2;  // retarget and re-validate against the current head
  }
  const std::uint64_t t = co_await p.faa(q.deq, 1);
  const std::uint64_t enq = co_await p.read(q.enq);
  if (t >= enq) {
    out = kNone;
    co_return;
  }
  const std::uint64_t prev = co_await p.swap(q.state, kTaken);
  out = prev == kFilled ? co_await p.read(q.value) : kNone;
}

/// Mutator: dequeue the generation-0 item legitimately, then recycle the
/// segment in place (reset tickets, enqueue 99, bump the head counter) --
/// the same index, a new generation, exactly what the free list enables.
Task<void> drain_and_recycle(Proc& p, MiniQueue& q, bool& ok) {
  const std::uint64_t t = co_await p.faa(q.deq, 1);
  const std::uint64_t prev = co_await p.swap(q.state, kTaken);
  ok = (t == 0 && prev == kFilled) && co_await p.read(q.value) == 7;
  // Recycle: reset as the new exclusive owner would (reset-at-alloc).
  co_await p.write(q.state, kEmpty);
  co_await p.write(q.enq, 0);
  co_await p.write(q.deq, 0);
  const std::uint64_t h = co_await p.read(q.head);
  co_await p.cas(q.head, h, tagged::TaggedIndex::from_bits(h).successor(7).bits());
  // New generation's first enqueue: item 99 into slot 0.
  const std::uint64_t e = co_await p.faa(q.enq, 1);
  co_await p.write(q.value, 99);
  co_await p.cas(q.state + static_cast<Addr>(e), kEmpty, kFilled);
}

template <bool Guarded>
std::uint64_t run_stale_faa_scenario(Engine& engine, MiniQueue& q,
                                     std::uint64_t& victim_got) {
  const Addr hazard = engine.memory().alloc(1);
  const char* stall = Guarded ? "REVALIDATE" : "STALE_FAA";
  const auto victim = engine.spawn(0, [&](Proc& p) {
    if constexpr (Guarded) {
      return guarded_dequeue(p, q, hazard, victim_got);
    } else {
      return naive_dequeue(p, q, victim_got);
    }
  });
  // Victim reads head (generation 0) and stalls just before the FAA
  // (naive) / just before the revalidating re-read (guarded).
  engine.freeze_at_label(victim, stall);
  while (!engine.done(victim) && engine.step(victim)) {
    if (std::string_view(engine.label(victim)) == stall) break;
  }
  // The world moves on: item dequeued, segment recycled, item 99 added.
  bool mutator_ok = false;
  const auto mutator = engine.spawn(
      0, [&](Proc& p) { return drain_and_recycle(p, q, mutator_ok); });
  while (engine.step(mutator)) {
  }
  EXPECT_TRUE(mutator_ok);
  // Victim resumes against the recycled generation.
  engine.freeze_at_label(victim, nullptr);
  engine.unfreeze(victim);
  while (engine.step(victim)) {
  }
  // A fresh dequeuer tells us whether item 99 is still reachable.
  std::uint64_t fresh_got = 0;
  const auto fresh = engine.spawn(0, [&](Proc& p) {
    return guarded_dequeue(p, q, engine.memory().alloc(1), fresh_got);
  });
  while (engine.step(fresh)) {
  }
  return fresh_got;
}

TEST(SegmentStaleFaa, CountersAloneCannotDefendFaaItemIsStranded) {
  Engine engine;
  MiniQueue q(engine);
  std::uint64_t victim_got = 0;
  const std::uint64_t fresh_got =
      run_stale_faa_scenario<false>(engine, q, victim_got);
  // The victim detected the counter change -- too late: its FAA consumed
  // the new generation's only dequeue ticket.  Item 99 is enqueued,
  // unreachable, and the queue reports empty: a linearizability violation
  // no retry will ever repair.
  EXPECT_EQ(victim_got, kNone);
  EXPECT_EQ(fresh_got, kNone) << "stranded item went unnoticed";
  EXPECT_EQ(engine.memory().peek(q.state), kFilled)
      << "item 99 must be visibly stranded in its slot";
}

TEST(SegmentStaleFaa, ValidateBeforeFaaTakesTheRecycledGenerationSafely) {
  Engine engine;
  MiniQueue q(engine);
  std::uint64_t victim_got = 0;
  const std::uint64_t fresh_got =
      run_stale_faa_scenario<true>(engine, q, victim_got);
  // The guarded victim revalidated BEFORE the FAA, saw the new generation,
  // and consumed item 99 correctly; the fresh dequeuer sees a clean empty.
  EXPECT_EQ(victim_got, 99u);
  EXPECT_EQ(fresh_got, kNone);
  EXPECT_EQ(engine.memory().peek(q.state), kTaken);
}

// ---- scenario 3: the one-ticket claim under DPOR ----------------------

// History clock in half-steps, as in sim_scq_test: after k memory ops a
// response reads 2k and an invocation 2k + 1, so a response and a later
// invocation with no op between them stay strictly ordered.
std::int64_t invoked_at(Proc& p) {
  return 2 * static_cast<std::int64_t>(p.engine().total_steps()) + 1;
}
std::int64_t returned_at(Proc& p) {
  return 2 * static_cast<std::int64_t>(p.engine().total_steps());
}

/// Enqueues 1..n in order; stops at the first item the segment cannot
/// take, which then never enters the history.
Task<void> logged_producer(Proc& p, SimSegment& s, std::uint64_t n,
                           check::ThreadLog& log) {
  for (std::uint64_t v = 1; v <= n; ++v) {
    const std::int64_t inv = invoked_at(p);
    std::uint64_t landed = kNone;
    co_await seg_enqueue(p, s, v, landed);
    if (landed == kNone) co_return;
    log.record(check::OpKind::kEnqueue, v, inv, returned_at(p));
  }
}

Task<void> logged_poller(Proc& p, SimSegment& s, std::uint64_t calls,
                         check::ThreadLog& log) {
  for (std::uint64_t i = 0; i < calls; ++i) {
    const std::int64_t inv = invoked_at(p);
    std::uint64_t got = kNone;
    co_await seg_dequeue(p, s, got);
    log.record(got == kNone ? check::OpKind::kDequeueEmpty
                            : check::OpKind::kDequeue,
               got == kNone ? 0 : got, inv, returned_at(p));
  }
}

/// Thread ids 0..pollers-1 poll; thread `pollers` produces (or, with no
/// producer, stands for the prefill's completed enqueue of 1).
struct ClaimWorld {
  Engine engine;
  SimSegment seg;
  std::vector<check::ThreadLog> logs;

  ClaimWorld(Claim claim, std::uint64_t slots, std::uint32_t pollers,
             std::uint64_t calls_each, std::uint64_t produced,
             bool prefilled)
      : seg(engine, slots, claim) {
    for (std::uint32_t t = 0; t <= pollers; ++t) logs.emplace_back(t);
    if (prefilled) {
      seg.prefill(engine, 1);
      logs[pollers].record(check::OpKind::kEnqueue, 1, -2, -1);
    }
    for (std::uint32_t t = 0; t < pollers; ++t) {
      engine.spawn(0, [this, t, calls_each](Proc& p) {
        return logged_poller(p, seg, calls_each, logs[t]);
      });
    }
    if (produced > 0) {
      engine.spawn(0, [this, pollers, produced](Proc& p) {
        return logged_producer(p, seg, produced, logs[pollers]);
      });
    }
  }

  /// Values whose slots are filled and not yet taken.
  [[nodiscard]] std::vector<std::uint64_t> unclaimed() const {
    std::vector<std::uint64_t> out;
    for (std::uint64_t t = 0; t < seg.slots; ++t) {
      const Addr a = static_cast<Addr>(t);
      if (engine.memory().peek(seg.state + a) == kFilled) {
        out.push_back(engine.memory().peek(seg.value + a));
      }
    }
    return out;
  }
};

/// What a claim world's schedules showed, beyond passing every check.
struct ClaimCoverage {
  std::uint64_t schedules = 0;
  std::uint64_t with_empty = 0;           // some call answered empty
  std::uint64_t with_claim_fail = 0;      // some claim CAS lost to a peer
  std::uint64_t with_all_delivered = 0;   // every item landed and left
  std::uint64_t with_one_poller_pair = 0; // a poller took 1 then 2
};

/// Explores every DPOR schedule of two pollers (two calls each) and a
/// producer on a 4-slot segment.  Each must be a linearizable FIFO
/// history, empty verdicts included, in which every landed item was
/// dequeued exactly once or still sits in its slot, no poller saw items
/// out of order, and no item left while an earlier one stayed behind.
ClaimCoverage explore_claim_world(Claim claim, std::uint64_t produced) {
  constexpr std::uint32_t kPollers = 2;
  std::unique_ptr<ClaimWorld> world;
  ClaimCoverage cover;
  DporConfig config;
  config.max_schedules = 2'000'000;
  config.max_steps_per_run = 4'000;
  const DporResult result = explore_dpor(
      config, /*process_count=*/kPollers + 1,
      [&]() -> Engine& {
        world = std::make_unique<ClaimWorld>(claim, /*slots=*/4, kPollers,
                                             /*calls_each=*/2, produced,
                                             /*prefilled=*/false);
        return world->engine;
      },
      /*on_step=*/nullptr,
      [&](Engine& engine) {
        ASSERT_TRUE(engine.all_done()) << "a schedule wedged a segq op";
        const auto history = check::merge_logs(world->logs);
        const auto lin = check::check_linearizable_exact(history);
        ASSERT_TRUE(lin.ok) << lin.diagnosis;

        // No loss, no duplicate: what was dequeued plus what the slots
        // still hold is exactly what landed.
        const std::vector<std::uint64_t> left = world->unclaimed();
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
        // Per-producer order: each poller sees values rising, and no value
        // leaves while an earlier one stays in its slot.
        for (std::uint32_t t = 0; t < kPollers; ++t) {
          std::uint64_t last = 0;
          for (const check::Event& e : world->logs[t].events()) {
            if (e.kind == check::OpKind::kDequeueEmpty) {
              ++cover.with_empty;
              continue;
            }
            ASSERT_GT(e.value, last) << "poller " << t << " reordered";
            if (last == 1 && e.value == 2) ++cover.with_one_poller_pair;
            last = e.value;
          }
        }
        if (!left.empty() && !dequeued.empty()) {
          ASSERT_LT(*std::max_element(dequeued.begin(), dequeued.end()),
                    *std::min_element(left.begin(), left.end()))
              << "a later item left while an earlier one stayed";
        }
        if (world->seg.claim_fails > 0) ++cover.with_claim_fail;
        if (left.empty() && landed.size() == produced) {
          ++cover.with_all_delivered;
        }
        ++cover.schedules;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(cover.schedules, result.schedules_run);
  return cover;
}

// The world from the claim's statement: one producer of {1, 2}, two
// pollers.  The fetch_add claim runs too, as the baseline the CAS claim
// must match.
TEST(SegmentClaimDpor, EveryScheduleIsLinearizableFifoWithNoLossOrDuplicate) {
  for (const Claim claim : {Claim::kOneTicketCas, Claim::kFaa}) {
    SCOPED_TRACE(claim == Claim::kFaa ? "fetch_add claim"
                                      : "one-ticket CAS claim");
    const ClaimCoverage cover = explore_claim_world(claim, /*produced=*/2);
    EXPECT_GT(cover.schedules, 100u)
        << "DPOR covered suspiciously few schedules";
    // Not vacuous: empties, full deliveries, one poller taking both items
    // in turn and (for the CAS claim) lost claim races all occur.
    EXPECT_GT(cover.with_empty, 0u);
    EXPECT_GT(cover.with_all_delivered, 0u);
    EXPECT_GT(cover.with_one_poller_pair, 0u);
    if (claim == Claim::kOneTicketCas) {
      EXPECT_GT(cover.with_claim_fail, 0u);
    }
  }
}

/// Runs every schedule of three pollers racing for one prefilled item;
/// returns how many schedules killed a slot.
std::uint64_t schedules_killing_a_slot(Claim claim) {
  constexpr std::uint32_t kPollers = 3;
  std::unique_ptr<ClaimWorld> world;
  std::uint64_t killing = 0;
  std::uint64_t checked = 0;
  const DporResult result = explore_dpor(
      DporConfig{}, /*process_count=*/kPollers,
      [&]() -> Engine& {
        world = std::make_unique<ClaimWorld>(claim, /*slots=*/4, kPollers,
                                             /*calls_each=*/1,
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
        // Slot 0 held the item; any other slot that left kEmpty was
        // killed, as no producer runs here.
        bool killed = false;
        for (std::uint64_t t = 1; t < world->seg.slots; ++t) {
          killed |= engine.memory().peek(world->seg.state +
                                         static_cast<Addr>(t)) != kEmpty;
        }
        if (killed) ++killing;
        ++checked;
      });
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(checked, result.schedules_run);
  EXPECT_GT(checked, 10u) << "DPOR covered suspiciously few schedules";
  return killing;
}

// split's regime in miniature: the item is already filled when the pollers
// arrive, so a slot past it can only be one the producer fills next.  No
// schedule of the one-ticket claim touches such a slot.
TEST(SegmentClaimDpor, OneTicketCasLosersKillNoSlotInAnySchedule) {
  EXPECT_EQ(schedules_killing_a_slot(Claim::kOneTicketCas), 0u);
}

// Negative control: with the fetch_add claim the losers draw tickets past
// the item and kill the producer's next slots.
TEST(SegmentClaimDpor, FetchAddLosersKillTheProducersNextSlot) {
  EXPECT_GT(schedules_killing_a_slot(Claim::kFaa), 0u);
}

}  // namespace
}  // namespace msq::sim
