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
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {
namespace {

constexpr std::uint64_t kEmpty = 0;
constexpr std::uint64_t kFilled = 1;
constexpr std::uint64_t kTaken = 2;
constexpr std::uint64_t kNone = ~0ull;

// ---- scenario 1: the slot kill handshake ------------------------------

/// One simulated segment: enq/deq tickets plus per-slot {state, value}.
struct SimSegment {
  static constexpr std::uint64_t kSlots = 2;
  Addr enq;
  Addr deq;
  Addr state;  // kSlots consecutive words
  Addr value;  // kSlots consecutive words

  explicit SimSegment(Engine& engine)
      : enq(engine.memory().alloc(1)),
        deq(engine.memory().alloc(1)),
        state(engine.memory().alloc(kSlots)),
        value(engine.memory().alloc(kSlots)) {}
};

Task<void> seg_enqueue(Proc& p, SimSegment& s, std::uint64_t v,
                       std::uint64_t& landed_slot) {
  for (;;) {
    const std::uint64_t t = co_await p.faa(s.enq, 1);
    if (t >= SimSegment::kSlots) {
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
    const std::uint64_t limit = e < SimSegment::kSlots ? e : SimSegment::kSlots;
    if (d >= limit) {
      out = kNone;
      co_return;
    }
    const std::uint64_t t = co_await p.faa(s.deq, 1);
    if (t >= SimSegment::kSlots) continue;
    const std::uint64_t prev =
        co_await p.swap(s.state + static_cast<Addr>(t), kTaken);
    if (prev == kFilled) {
      out = co_await p.read(s.value + static_cast<Addr>(t));
      co_return;
    }
    // Killed an in-flight enqueuer's slot; burn onwards.
  }
}

TEST(SegmentHandshake, DequeuerKillsStalledEnqueuerSlotAndBothRecover) {
  Engine engine;
  SimSegment seg(engine);

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

}  // namespace
}  // namespace msq::sim
