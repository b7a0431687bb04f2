// DPOR proofs of the shipped src/queues/sharded_queue.hpp over ScqQueue
// shards (model build): its empty verdict is linearizable
// (docs/ALGORITHMS.md, property 4).  No global FIFO is promised, so each
// history is checked by brute force against a POOL (multiset) spec.  DPOR
// runs one interleaving per Mazurkiewicz trace, so the witness's real-time
// edge (P returns before H invokes) needs a dependency: P stores a flag
// word after its call, and H loads it before its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "check/history.hpp"
#include "model_world.hpp"
#include "queues/scq_queue.hpp"
#include "queues/sharded_queue.hpp"
#include "sim/explore.hpp"

static_assert(MSQ_MODEL, "the sharded-queue proofs run the model build");

namespace msq::queues {

struct ShardedInspector {  // ShardedQueue's one friend
  /// A shard's ticket, loaded off every fiber: raw, at no step.
  template <typename Q>
  static std::uint64_t ticket(Q& q, std::uint32_t s) {
    return q.shards_[s]->ticket.value.load(std::memory_order_acquire);
  }
};

}  // namespace msq::queues

namespace msq::sim {
namespace {

using check::OpKind;
using queues::ShardedInspector;
using Queue = queues::ShardedQueue<queues::ScqQueue<std::uint64_t>, 2>;
constexpr std::uint32_t kA = 0, kB = 1;  // the shards

/// Some order of the calls that real time allows (no call placed before
/// one that returned before it was invoked) is a legal pool run.
bool pool_linearizable(const std::vector<check::Event>& h,
                       const std::vector<std::uint64_t>& initial) {
  std::vector<std::size_t> order(h.size());
  std::iota(order.begin(), order.end(), 0);
  do {
    std::vector<std::uint64_t> pool = initial;
    bool ok = true;
    for (std::size_t k = 0; ok && k < order.size(); ++k) {
      const check::Event& e = h[order[k]];
      for (std::size_t j = k + 1; j < order.size(); ++j) {
        ok = ok && h[order[j]].response_ns > e.invoke_ns;
      }
      const auto held = std::find(pool.begin(), pool.end(), e.value);
      if (e.kind == OpKind::kEnqueue) pool.push_back(e.value);
      if (e.kind == OpKind::kDequeueEmpty) ok = ok && pool.empty();
      if (e.kind == OpKind::kDequeue && (ok = ok && held != pool.end())) {
        pool.erase(held);
      }
    }
    if (ok) return true;
  } while (std::next_permutation(order.begin(), order.end()));
  return false;
}

/// The queue, P's flag word and one log per process.  A process's id is its
/// thread_ordinal: its hint slot is its own and its home shard is id % 2.
struct World {
  Engine engine;
  Queue q;
  port::Atomic<std::uint64_t> p_returned{0};
  std::vector<check::ThreadLog> logs;
  std::vector<std::uint64_t> initial;  // prefilled, so the pool's start
  std::uint32_t sweeper = 0;           // whose rescans are counted

  World(EngineConfig config, std::uint32_t capacity)
      : engine(config), q(capacity) {}
  void prefill(std::uint32_t shard, std::uint64_t v) {  // bumps no ticket
    EXPECT_TRUE(q.unsafe_shard(shard).try_enqueue(v));
    initial.push_back(v);
  }
  void spawn(std::function<void(Proc&)> body) {
    logs.emplace_back(engine.spawn_fiber(0, std::move(body)));
  }
  void enqueue(Proc& p, std::uint64_t v) {  // a refusal is not logged
    const std::int64_t inv = invoked_at(p);
    if (!q.try_enqueue(v)) return;
    logs[p.id()].record(OpKind::kEnqueue, v, inv, returned_at(p));
  }
  void dequeue(Proc& p) {
    const std::int64_t inv = invoked_at(p);
    std::uint64_t v = 0;
    const bool ok = q.try_dequeue(v);
    logs[p.id()].record(ok ? OpKind::kDequeue : OpKind::kDequeueEmpty, v,
                        inv, returned_at(p));
  }
};

struct Sweep {
  std::uint64_t schedules = 0;
  std::uint64_t non_linearizable = 0;
  std::uint64_t with_empty = 0;   // some call answered empty
  std::uint64_t with_rescan = 0;  // a verify of the sweeper saw a bump
  std::uint64_t stole = 0;        // C took 7 from B
  std::uint64_t refused = 0;      // A refused P...
  std::uint64_t refused_yet_bumped = 0;  // ...and its ticket moved anyway
  std::string witness;  // the first non-linearizable history
};

/// Every DPOR schedule of `make`'s world must finish and conserve: what was
/// dequeued plus what is left (drained off every fiber) is the prefill
/// plus what landed.  `extra` adds the world's own checks.
Sweep explore(const char* what, std::uint32_t processes,
              const std::function<std::unique_ptr<World>()>& make,
              const std::function<void(World&, Sweep&)>& extra) {
  std::unique_ptr<World> w;
  Sweep s;
  const DporResult result = explore_dpor(
      DporConfig{}, processes,
      [&]() -> Engine& { return (w = make())->engine; }, nullptr,
      [&](Engine& engine) {
        ASSERT_TRUE(engine.all_done());
        const std::vector<check::Event> h = check::merge_logs(w->logs);
        std::multiset<std::uint64_t> landed(w->initial.begin(),
                                            w->initial.end());
        std::multiset<std::uint64_t> seen;
        std::uint64_t empties = 0;          // answered empty
        std::uint64_t sweeper_empties = 0;  // ...by the sweeper
        for (const check::Event& e : h) {
          if (e.kind == OpKind::kEnqueue) landed.insert(e.value);
          if (e.kind == OpKind::kDequeue) seen.insert(e.value);
          if (e.kind != OpKind::kDequeueEmpty) continue;
          ++empties;
          if (e.thread == w->sweeper) ++sweeper_empties;
        }
        std::uint64_t v = 0;
        while (seen.size() <= landed.size() && w->q.try_dequeue(v)) {
          seen.insert(v);
        }
        ASSERT_EQ(seen, landed) << "an item was lost or duplicated";
        if (!pool_linearizable(h, w->initial) && s.non_linearizable++ == 0) {
          for (const check::Event& e : h) {
            s.witness += "  " + check::format_event(e) + "\n";
          }
        }
        // Each verify either answers empty or sends the sweep round again.
        s.with_rescan +=
            engine.label_hits(w->sweeper, "shardq.verify") > sweeper_empties;
        s.with_empty += empties > 0;
        extra(*w, s);
        ++s.schedules;
      });
  EXPECT_FALSE(result.budget_exhausted);
  std::cout << "[ DPOR     ] " << what << ": " << s.schedules << " schedules, "
            << s.non_linearizable << " non-linearizable, " << s.with_empty
            << " answering empty, " << s.with_rescan << " rescanning\n"
            << s.witness;
  return s;
}

/// B starts with 7.  C (pid 0, home A) dequeues `calls` times; H (pid 1,
/// home B) loads P's flag, then dequeues; P (pid 2, home A) enqueues 5,
/// then sets the flag.  The bump-first witness: P bumps A; C finds A
/// empty, pre-collects and scans A; P inserts 5 and returns; H takes 7; C
/// scans B and answers empty.
Sweep explore_pch(const char* what, EngineConfig config, std::uint32_t calls) {
  const auto make = [&] {
    auto w = std::make_unique<World>(config, /*capacity=*/4);
    World& world = *w;
    world.prefill(kB, 7);
    world.spawn([&world, calls](Proc& p) {
      for (std::uint32_t c = 0; c < calls; ++c) world.dequeue(p);
    });
    world.spawn([&world](Proc& p) {
      (void)world.p_returned.load(std::memory_order_acquire);
      world.dequeue(p);
    });
    world.spawn([&world](Proc& p) {
      world.enqueue(p, 5);
      world.p_returned.store(1, std::memory_order_release);
    });
    return w;
  };
  return explore(what, 3, make, [&](World& w, Sweep& s) {
    EXPECT_EQ(ShardedInspector::ticket(w.q, kA), 1u);  // 5 always lands in A
    EXPECT_EQ(ShardedInspector::ticket(w.q, kB), 0u);
    for (const check::Event& e : w.logs[0].events()) {
      s.stole += e.kind == OpKind::kDequeue && e.value == 7;
    }
  });
}

// Every schedule is pool-linearizable, also with C calling twice and under
// TSO store buffers, and the world is not vacuous: some schedule rescans,
// some answers empty, and in some C steals 7 from B.
TEST(ShardedEmptySweep, EveryScheduleIsPoolLinearizable) {
  EngineConfig weak;
  weak.weak_memory = true;
  for (const Sweep& s : {explore_pch("C x 1", EngineConfig{}, 1),
                         explore_pch("C x 2", EngineConfig{}, 2),
                         explore_pch("C x 1, weak memory", weak, 1)}) {
    EXPECT_EQ(s.non_linearizable, 0u);
    EXPECT_GT(s.with_rescan, 0u);
    EXPECT_GT(s.with_empty, 0u);
    EXPECT_GT(s.stole, 0u);
  }
}

// Negative controls: announcing before the insert, and skipping the second
// collect, each give C an empty verdict with no linearization.
TEST(ShardedEmptySweep, BumpFirstAndNoVerifyAnswerEmptyNonLinearizably) {
  EngineConfig weak = with_mutant("shardq.bump_first");
  weak.weak_memory = true;
  for (const Sweep& s :
       {explore_pch("shardq.bump_first", with_mutant("shardq.bump_first"), 1),
        explore_pch("shardq.no_verify", with_mutant("shardq.no_verify"), 1),
        explore_pch("shardq.bump_first, weak memory", weak, 1)}) {
    EXPECT_GT(s.non_linearizable, 0u);
  }
}

/// Capacity 2, one slot per shard, and A holds 9.  P (pid 0, home A)
/// enqueues 5 while C (pid 1, home B) dequeues twice: while A holds 9 it
/// refuses P, and 5 lands in B.
Sweep explore_refusals(const char* what, EngineConfig config) {
  const auto make = [&] {
    auto w = std::make_unique<World>(config, /*capacity=*/2);
    World& world = *w;
    world.prefill(kA, 9);
    world.sweeper = 1;
    world.spawn([&world](Proc& p) { world.enqueue(p, 5); });
    world.spawn([&world](Proc& p) {
      world.dequeue(p);
      world.dequeue(p);
    });
    return w;
  };
  return explore(what, 2, make, [&](World& w, Sweep& s) {
    const bool refused = w.engine.label_hits(0, "scq.enq") == 2;  // A, B
    EXPECT_EQ(ShardedInspector::ticket(w.q, kB), refused ? 1u : 0u);
    s.refused += refused;
    s.refused_yet_bumped +=
        refused && ShardedInspector::ticket(w.q, kA) != 0;
  });
}

// A shard that refuses the item is not announced, so a concurrent sweep has
// nothing to rescan for; under "shardq.bump_first" its ticket moves.
TEST(ShardedEmptySweep, ARefusingShardsTicketDoesNotMove) {
  const Sweep s = explore_refusals("refused shard", EngineConfig{});
  EXPECT_EQ(s.non_linearizable, 0u);
  EXPECT_GT(s.with_empty, 0u);
  EXPECT_GT(s.refused, 0u) << "A never refused P";
  EXPECT_LT(s.refused, s.schedules) << "A never took 5";
  EXPECT_EQ(s.refused_yet_bumped, 0u);
  EXPECT_GT(explore_refusals("refused shard, shardq.bump_first",
                             with_mutant("shardq.bump_first"))
                .refused_yet_bumped,
            0u);
}

}  // namespace
}  // namespace msq::sim
