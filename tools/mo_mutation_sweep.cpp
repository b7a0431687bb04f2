// Memory-order mutation sweep: the machine-checked proof behind every
// annotation in sim/mo_table.hpp.
//
// For every site in kMoSites and every strictly weaker order it could be
// demoted to, this tool rebuilds the relevant simulated world with exactly
// that ONE site mutated and runs sleep-set DPOR (plus TSO store-buffer
// exploration for the seq_cst litmus sites) under the order-aware hb
// tracker.  The verdict must match the site's needs_* flags:
//
//   * every load-bearing weakening is CAUGHT -- by an hb data race with a
//     pseudo-code-labelled trace, or by a terminal-state check (queue
//     invariant broken, payload read stale, lock counter lost an update,
//     SC-forbidden litmus outcome);
//   * every weakening the table claims masked/tolerated stays SILENT
//     across the full (budget-bounded) exploration.
//
// Two showcase assertions ride on top:
//
//   1. sb.store_flag -> release is caught ONLY by weak-memory execution:
//      the SC explorer (value checks AND hb tracker) is provably silent on
//      the same mutation, the TSO explorer produces the both-zero outcome.
//   2. lock.unlock_store -> relaxed never corrupts a terminal state (mutual
//      exclusion still holds under SC), yet the hb layer reports the
//      severed release edge -- the order-aware tracker is the only
//      detector.
//
// Exit status 0 iff every mutation verdict matches the table and all
// unmutated baselines are clean.  Run by ctest and by the CI weak-memory
// job; budgets are sized for a single-core runner.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/freelist.hpp"
#include "mem/node_pool.hpp"
#include "queues/scq_queue.hpp"
#include "sim/engine.hpp"
#include "sim/explore.hpp"
#include "sim/litmus_sim.hpp"
#include "sim/mo_table.hpp"
#include "sim/ms_queue_sim.hpp"
#include "sim/queue_iface.hpp"
#include "sim/sim_lock.hpp"
#include "sim/valois_queue_sim.hpp"
#include "tagged/atomic_tagged.hpp"

namespace msq::sim {
namespace {

[[nodiscard]] EngineConfig sweep_config(bool weak, check::SyncModel model) {
  EngineConfig config;
  config.race_detect = true;
  config.sync_model = model;
  config.weak_memory = weak;
  return config;
}

/// A world over a shipped header on fibers: its seam resolves each
/// labelled access's order through `mo`.
[[nodiscard]] EngineConfig model_config(const MoTable* mo) {
  EngineConfig config = sweep_config(/*weak=*/false, check::SyncModel::kOrders);
  config.mo = mo;
  return config;
}

// Thrown out of explore_dpor's on_done to stop a sweep run at the first
// violation (the callbacks are exception-transparent); silent-expected runs
// never throw and pay for the full exploration.
struct CaughtSignal {};

/// Verdict of exploring one world under one (possibly mutated) table.
struct RunOutcome {
  bool hb_hit = false;        // hb tracker reported a data race
  bool terminal_hit = false;  // a completed execution failed its checks
  std::string detail;         // first trace / terminal message
  std::uint64_t schedules = 0;
  bool exhausted = false;

  [[nodiscard]] bool caught() const noexcept { return hb_hit || terminal_hit; }
};

class WorldBase {
 public:
  virtual ~WorldBase() = default;
  [[nodiscard]] virtual Engine& engine() = 0;
  /// Throws std::runtime_error when a COMPLETED execution violates the
  /// world's semantic checks; truncated runs (step budget) are skipped.
  virtual void check_terminal() = 0;
};

// --- world A/B/C: the MS queue with a plain-payload handshake ---------------
//
// Producers write a plain payload word before enqueueing its index;
// consumers plain-read the payload after dequeueing.  With the annotated
// orders the queue's publication edges keep those plain accesses ordered;
// a weakening that severs a load-bearing edge surfaces as an hb race on
// the payload (or on the queue words themselves for atomicity demotions).
class MsWorld final : public WorldBase {
 public:
  MsWorld(const MoTable* mo, bool weak, int producers,
          std::uint64_t values_per_producer, std::vector<int> consumer_attempts)
      : engine_(sweep_config(weak, check::SyncModel::kOrders)),
        queue_(engine_, /*capacity=*/2, /*backoff_max=*/0, mo),
        payload_(engine_.memory().alloc(8)) {
    for (int pi = 0; pi < producers; ++pi) {
      engine_.spawn(0, [this, pi, values_per_producer](Proc& p) {
        return producer(p, pi, values_per_producer);
      });
    }
    for (const int attempts : consumer_attempts) {
      engine_.spawn(0,
                    [this, attempts](Proc& p) { return consumer(p, attempts); });
    }
  }

  [[nodiscard]] Engine& engine() override { return engine_; }

  void check_terminal() override {
    if (!engine_.all_done()) return;
    queue_.check_invariants();
    if (bad_payload_) {
      throw std::runtime_error(
          "MS payload handshake: consumer read a stale plain payload");
    }
  }

 private:
  Task<void> producer(Proc& p, int pi, std::uint64_t n) {
    int budget = static_cast<int>(n) * 4;  // bounded pool-exhaustion retries
    for (std::uint64_t k = 0; k < n;) {
      const std::uint64_t v = static_cast<std::uint64_t>(pi) * 4 + k;
      co_await p.write(payload_ + v, 100 + v, check::MemOrder::kPlain);
      const bool ok = co_await queue_.enqueue(p, v);
      if (ok) {
        ++k;
        continue;
      }
      if (--budget <= 0) co_return;
    }
  }

  Task<void> consumer(Proc& p, int attempts) {
    for (int a = 0; a < attempts; ++a) {
      const std::uint64_t v = co_await queue_.dequeue(p);
      if (v == kEmpty) continue;
      const std::uint64_t seen =
          co_await p.read(payload_ + v, check::MemOrder::kPlain);
      if (seen != 100 + v) bad_payload_ = true;
    }
  }

  Engine engine_;
  SimMsQueue queue_;
  Addr payload_;
  bool bad_payload_ = false;
};

// --- world D: the Treiber pool's ownership hand-off -------------------------
//
// Two workers repeatedly pop a node, scribble a plain scratch word on it,
// verify, and push it back.  Pop confers exclusive ownership, so the plain
// accesses are ordered exactly when the push/pop CAS mesh is intact.  Like
// worlds S, s and P it runs a shipped header on fibers: mem/freelist.hpp
// over a two-node pool, each node's scratch word in a sidecar.
class PoolWorld final : public WorldBase {
 public:
  explicit PoolWorld(const MoTable* mo)
      : engine_(model_config(mo)),
        list_(pool_),
        scratch_(engine_.memory().alloc(2)) {
    for (std::uint64_t w = 0; w < 2; ++w) {
      engine_.spawn_fiber(0, [this, w](Proc& p) { work(p, 10 + w); });
    }
  }

  [[nodiscard]] Engine& engine() override { return engine_; }

  void check_terminal() override {
    if (!engine_.all_done()) return;
    if (bad_scratch_) {
      throw std::runtime_error(
          "pool ownership: scratch word read another worker's value");
    }
  }

 private:
  struct Node {
    tagged::AtomicTagged next;
  };

  void work(Proc& p, std::uint64_t mark) {
    for (int round = 0; round < 2; ++round) {
      // Two nodes, two workers: a pop is never refused.
      const Addr scratch = scratch_ + list_.try_allocate();
      p.annotate("scratch write");  // the list's accesses label themselves
      (void)p.perform(
          {OpKind::kWrite, scratch, mark, 0, 0, check::MemOrder::kPlain});
      p.annotate("scratch read");
      const std::uint64_t seen =
          p.perform({OpKind::kRead, scratch, 0, 0, 0, check::MemOrder::kPlain});
      if (seen != mark) bad_scratch_ = true;
      list_.free(static_cast<std::uint32_t>(scratch - scratch_));
    }
  }

  Engine engine_;
  mem::NodePool<Node> pool_{2};
  mem::FreeList<Node> list_;
  Addr scratch_;
  bool bad_scratch_ = false;
};

// --- world E: TATAS lock around a plain counter ------------------------------
class LockWorld final : public WorldBase {
 public:
  LockWorld(const MoTable* mo, bool weak)
      : engine_(sweep_config(weak, check::SyncModel::kOrders)),
        lock_(engine_, /*backoff_max=*/0, mo),
        counter_(engine_.memory().alloc(1)) {
    for (int w = 0; w < 2; ++w) {
      engine_.spawn(0, [this](Proc& p) { return worker(p); });
    }
  }

  [[nodiscard]] Engine& engine() override { return engine_; }

  void check_terminal() override {
    if (!engine_.all_done()) return;
    if (engine_.memory().peek(counter_) != 2) {
      throw std::runtime_error("lock counter != 2 (lost update)");
    }
  }

 private:
  Task<void> worker(Proc& p) {
    co_await lock_.lock(p);
    const std::uint64_t v = co_await p.read(counter_, check::MemOrder::kPlain);
    co_await p.write(counter_, v + 1, check::MemOrder::kPlain);
    co_await lock_.unlock(p);
  }

  Engine engine_;
  SimTatasLock lock_;
  Addr counter_;
};

// --- world F: the Valois queue with the same payload handshake ---------------
class ValoisWorld final : public WorldBase {
 public:
  ValoisWorld(const MoTable* mo, bool weak, std::vector<int> consumer_attempts)
      : engine_(sweep_config(weak, check::SyncModel::kOrders)),
        queue_(engine_, /*capacity=*/2, /*backoff_max=*/0, mo),
        payload_(engine_.memory().alloc(2)) {
    engine_.spawn(0, [this](Proc& p) { return producer(p); });
    for (const int attempts : consumer_attempts) {
      engine_.spawn(0,
                    [this, attempts](Proc& p) { return consumer(p, attempts); });
    }
  }

  [[nodiscard]] Engine& engine() override { return engine_; }

  void check_terminal() override {
    if (!engine_.all_done()) return;
    queue_.check_invariants();
    if (bad_payload_) {
      throw std::runtime_error(
          "Valois payload handshake: consumer read a stale plain payload");
    }
  }

 private:
  Task<void> producer(Proc& p) {
    co_await p.write(payload_, 100, check::MemOrder::kPlain);
    const bool ok = co_await queue_.enqueue(p, 0);
    (void)ok;
  }

  Task<void> consumer(Proc& p, int attempts) {
    for (int a = 0; a < attempts; ++a) {
      const std::uint64_t v = co_await queue_.dequeue(p);
      if (v == kEmpty) continue;
      const std::uint64_t seen =
          co_await p.read(payload_ + v, check::MemOrder::kPlain);
      if (seen != 100 + v) bad_payload_ = true;
    }
  }

  Engine engine_;
  SimValoisQueue queue_;
  Addr payload_;
  bool bad_payload_ = false;
};

// --- worlds G/H: the litmus tests -------------------------------------------
class SbWorld final : public WorldBase {
 public:
  SbWorld(const MoTable* mo, bool weak)
      : engine_(sweep_config(weak, check::SyncModel::kOrders)),
        litmus_(engine_, mo) {
    engine_.spawn(0, [this](Proc& p) { return litmus_.run(p, 0); });
    engine_.spawn(0, [this](Proc& p) { return litmus_.run(p, 1); });
  }

  [[nodiscard]] Engine& engine() override { return engine_; }

  void check_terminal() override {
    if (!engine_.all_done()) return;
    if (litmus_.both_zero()) {
      throw std::runtime_error("SB litmus: both loads read 0 (SC-forbidden)");
    }
  }

 private:
  Engine engine_;
  SbLitmus litmus_;
};

class MpWorld final : public WorldBase {
 public:
  MpWorld(const MoTable* mo, bool weak)
      : engine_(sweep_config(weak, check::SyncModel::kOrders)),
        litmus_(engine_, mo) {
    engine_.spawn(0, [this](Proc& p) { return litmus_.producer(p); });
    engine_.spawn(0, [this](Proc& p) { return litmus_.consumer(p); });
  }

  [[nodiscard]] Engine& engine() override { return engine_; }

  void check_terminal() override {
    if (!engine_.all_done()) return;
    if (litmus_.stale_data()) {
      throw std::runtime_error(
          "MP litmus: consumer saw the flag but stale data");
    }
  }

 private:
  Engine engine_;
  MpLitmus litmus_;
};

// --- world S/s: the SCQ ring with a plain-payload handshake ----------------
//
// Same shape as the MS worlds, but over the shipped queues/scq_queue.hpp:
// this tool is a model-build target (MSQ_MODEL=1), so each ring access is
// one step of a fiber process and resolves its order through the world's
// MoTable.  The ring stores values directly, so each producer enqueues a
// HANDLE: the index of a plain sidecar payload word it wrote first, which
// consumers plain-read after dequeuing the handle -- exactly what an
// ScqQueue of pointers relies on.  The only publication edge between those
// plain accesses is the ring's own deposit CAS / consume chain, so
// severing it surfaces as an hb race on the payload; atomicity demotions
// race on the ring words themselves.  Capacity 1 (two entries, one credit)
// keeps DPOR small while its schedules still reach cycle reuse, catch-up,
// credit return, the credit steal, the refusal's second pass and the
// threshold reset; capacity 2 lets a consumer's slot overflow and spill to
// the depot.
class ScqWorld final : public WorldBase {
 public:
  ScqWorld(const MoTable* mo, std::uint64_t values,
           std::vector<int> consumer_attempts, std::uint32_t capacity = 1)
      : engine_(model_config(mo)),
        ring_(capacity),
        payload_(engine_.memory().alloc(8)) {
    const std::uint32_t producer = engine_.spawn_fiber(
        0, [this, values](Proc& p) { produce(p, values); });
    // A consumer that keeps advancing the producer's entry sends its
    // deposit round the ring again and again: the producer halts mid-call
    // once it has taken more than five tickets per value (a refusal takes
    // none), a pending enqueue holding its credit, which keeps DPOR finite.
    engine_.crash_at_label(producer, "scq.faa_enq", values * 5 + 1);
    for (const int attempts : consumer_attempts) {
      engine_.spawn_fiber(
          0, [this, attempts](Proc& p) { consume(p, attempts); });
    }
  }

  [[nodiscard]] Engine& engine() override { return engine_; }

  void check_terminal() override {
    for (std::uint32_t i = 0; i < engine_.process_count(); ++i) {
      if (!engine_.done(i) && !engine_.is_crashed(i)) return;
    }
    if (bad_payload_) {
      throw std::runtime_error(
          "SCQ payload handshake: consumer read a stale plain payload");
    }
  }

 private:
  void produce(Proc& p, std::uint64_t n) {
    for (std::uint64_t v = 0; v < n; ++v) {
      p.annotate("payload write");  // the ring's accesses label themselves
      (void)p.perform({OpKind::kWrite, payload_ + static_cast<Addr>(v),
                       100 + v, 0, 0, check::MemOrder::kPlain});
      // One credit: handle v+1 is refused until a consumer takes handle v,
      // so retry a refusal once.
      bool ok = false;
      for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
        ok = ring_.try_enqueue(v);
      }
      if (!ok) return;
    }
  }

  void consume(Proc& p, int attempts) {
    for (int a = 0; a < attempts; ++a) {
      std::uint64_t v = 0;
      if (!ring_.try_dequeue(v)) continue;
      p.annotate("payload read");
      const std::uint64_t seen = p.perform({OpKind::kRead,
                                            payload_ + static_cast<Addr>(v),
                                            0, 0, 0, check::MemOrder::kPlain});
      if (seen != 100 + v) bad_payload_ = true;
    }
  }

  Engine engine_;
  queues::ScqQueue<std::uint64_t> ring_;
  Addr payload_;
  bool bad_payload_ = false;
};

// --- world registry ----------------------------------------------------------
//
//  A  MS 1 producer (2 values) + 1 consumer            -- default MS world
//  B  MS 1 producer (3 values) + 2 consumers, pool 3   -- node recycling
//  C  MS 2 producers + 1 consumer                      -- enqueue/enqueue
//  D  Treiber pool ownership hand-off (the shipped mem/freelist.hpp)
//  E  TATAS lock + plain counter
//  F  Valois 1p1c                   V  Valois 1p2c (SafeRead revalidation)
//  G  SB litmus (weak memory)    g  SB litmus (SC)
//  H  MP litmus (SC)             h  MP litmus (weak memory)
//  W  MS 1 producer (1 value) + 1 consumer, weak memory (TSO baseline)
//  S  SCQ ring 1p1c               s  SCQ ring 1p2c (consume contention)
//  P  SCQ ring 1p1c, capacity 2 (a consumer's credit slot spills)
//     (S, s and P run the shipped queues/scq_queue.hpp on fibers)
struct WorldSpec {
  char id;
  const char* name;
  std::uint32_t procs;
  DporConfig budget;
};

[[nodiscard]] WorldSpec world_spec(char id) {
  switch (id) {
    case 'A': return {'A', "MS 1p1c", 2, {6'000, 200'000}};
    case 'B': return {'B', "MS recycle 1p2c", 3, {8'000, 400'000}};
    case 'C': return {'C', "MS 2p1c", 3, {8'000, 400'000}};
    case 'D': return {'D', "pool hand-off", 2, {4'000, 100'000}};
    case 'E': return {'E', "TATAS lock", 2, {3'000, 50'000}};
    case 'F': return {'F', "Valois 1p1c", 2, {8'000, 200'000}};
    case 'V': return {'V', "Valois 1p2c", 3, {8'000, 400'000}};
    case 'G': return {'G', "SB litmus (weak)", 2, {1'000, 20'000}};
    case 'g': return {'g', "SB litmus (SC)", 2, {1'000, 20'000}};
    case 'H': return {'H', "MP litmus (SC)", 2, {1'000, 20'000}};
    case 'h': return {'h', "MP litmus (weak)", 2, {1'000, 20'000}};
    case 'W': return {'W', "MS 1p1c (weak)", 2, {6'000, 400'000}};
    case 'S': return {'S', "SCQ ring 1p1c", 2, {8'000, 400'000}};
    case 's': return {'s', "SCQ ring 1p2c", 3, {10'000, 600'000}};
    case 'P': return {'P', "SCQ spill 1p1c", 2, {8'000, 400'000}};
    default: throw std::logic_error("unknown world id");
  }
}

[[nodiscard]] std::unique_ptr<WorldBase> make_world(char id,
                                                    const MoTable* mo) {
  switch (id) {
    case 'A': return std::make_unique<MsWorld>(mo, false, 1, 2, std::vector<int>{3});
    case 'B': return std::make_unique<MsWorld>(mo, false, 1, 3, std::vector<int>{1, 2});
    case 'C': return std::make_unique<MsWorld>(mo, false, 2, 1, std::vector<int>{3});
    case 'D': return std::make_unique<PoolWorld>(mo);
    case 'E': return std::make_unique<LockWorld>(mo, false);
    case 'F': return std::make_unique<ValoisWorld>(mo, false, std::vector<int>{2});
    case 'V': return std::make_unique<ValoisWorld>(mo, false, std::vector<int>{1, 1});
    case 'G': return std::make_unique<SbWorld>(mo, true);
    case 'g': return std::make_unique<SbWorld>(mo, false);
    case 'H': return std::make_unique<MpWorld>(mo, false);
    case 'h': return std::make_unique<MpWorld>(mo, true);
    case 'W': return std::make_unique<MsWorld>(mo, true, 1, 1, std::vector<int>{2});
    case 'S': return std::make_unique<ScqWorld>(mo, 2, std::vector<int>{3});
    case 's': return std::make_unique<ScqWorld>(mo, 2, std::vector<int>{2, 2});
    case 'P': return std::make_unique<ScqWorld>(mo, 2, std::vector<int>{2}, 2);
    default: throw std::logic_error("unknown world id");
  }
}

/// Explore one world under `mo`.  With `early_exit`, stop at the first
/// violation (mutation runs); without, classify every execution (baselines
/// and the showcase runs that must prove a NEGATIVE per channel).
[[nodiscard]] RunOutcome run_world(char id, const MoTable* mo,
                                   bool early_exit) {
  const WorldSpec spec = world_spec(id);
  std::unique_ptr<WorldBase> world;
  RunOutcome out;
  try {
    const DporResult result = explore_dpor(
        spec.budget, spec.procs,
        [&]() -> Engine& {
          world = make_world(id, mo);
          return world->engine();
        },
        /*on_step=*/nullptr,
        [&](Engine& engine) {
          if (engine.races().observed() > 0 && !out.hb_hit) {
            out.hb_hit = true;
            if (!engine.races().reports().empty()) {
              out.detail = engine.races().reports().front().format();
            }
          }
          try {
            world->check_terminal();
          } catch (const std::runtime_error& err) {
            if (!out.terminal_hit) {
              out.terminal_hit = true;
              if (out.detail.empty()) out.detail = err.what();
            }
          }
          if (early_exit && out.caught()) throw CaughtSignal{};
        });
    out.schedules = result.schedules_run;
    out.exhausted = result.budget_exhausted;
  } catch (const CaughtSignal&) {
    // stopped at first violation; schedules_run is unavailable, fine.
  }
  return out;
}

// --- routing -----------------------------------------------------------------

[[nodiscard]] bool site_is(const MoSite& s, std::initializer_list<const char*> names) {
  for (const char* n : names) {
    if (std::strcmp(s.name, n) == 0) return true;
  }
  return false;
}

/// Worlds to try for one mutation, cheapest first; a catch in any world
/// counts, silence must hold across all of them.
[[nodiscard]] std::vector<char> route(const MoSite& s, check::MemOrder m) {
  const bool to_plain = m == check::MemOrder::kPlain;
  if (std::strncmp(s.name, "ms.", 3) == 0) {
    std::vector<char> worlds{'A'};
    if (to_plain &&
        site_is(s, {"ms.E5.tail_load", "ms.E6.next_load", "ms.E7.tail_reload"})) {
      worlds.push_back('C');
    }
    if (to_plain && site_is(s, {"ms.E2.value_write", "ms.E3.next_init",
                                "ms.D2.head_load", "ms.D5.head_reload",
                                "ms.D11.value_read"})) {
      worlds.push_back('B');
    }
    return worlds;
  }
  if (std::strncmp(s.name, "fl.", 3) == 0) return {'D'};
  if (std::strncmp(s.name, "lock.", 5) == 0) return {'E'};
  if (std::strncmp(s.name, "valois.", 7) == 0) {
    // The SafeRead revalidation only re-reads a cell its first load already
    // acquire-synced with, so its atomicity demotion needs a SECOND writer
    // to the same pointer cell: a sibling consumer's head swing (world V).
    if (to_plain && site_is(s, {"valois.ptr_reread"})) return {'F', 'V'};
    return {'F'};
  }
  if (std::strncmp(s.name, "scq.", 4) == 0) {
    // Only a capacity-2 ring lets a slot overflow.
    if (site_is(s, {"scq.credit_spill_cas", "scq.credit_spill_add"})) {
      return {'P'};
    }
    // Plain demotions of the probe loads need a SECOND concurrent actor
    // on the same word (a sibling consumer's head FAA / mark CAS) to form
    // the racing pair in schedules the 1p1c world cannot reach.
    if (to_plain) return {'S', 's'};
    return {'S'};
  }
  if (std::strncmp(s.name, "sb.", 3) == 0) return {'G'};
  if (std::strncmp(s.name, "mp.", 3) == 0) return {'H'};
  throw std::logic_error(std::string("unrouted site: ") + s.name);
}

struct Row {
  const MoSite* site = nullptr;
  check::MemOrder mutated = check::MemOrder::kSeqCst;
  bool expected = false;
  bool caught = false;
  char world = '-';
  std::string channel;
  std::string detail;
};

}  // namespace
}  // namespace msq::sim

int main() {
  using namespace msq::sim;
  using msq::check::MemOrder;
  using msq::check::mem_order_name;

  int failures = 0;

  // ---- 1. unmutated baselines must be clean --------------------------------
  std::printf("== baselines (annotated orders, no mutation) ==\n");
  for (const char id :
       {'A', 'B', 'C', 'D', 'E', 'F', 'V', 'G', 'g', 'H', 'h', 'W', 'S', 's',
        'P'}) {
    const WorldSpec spec = world_spec(id);
    const RunOutcome out = run_world(id, nullptr, /*early_exit=*/false);
    const char* verdict = out.caught() ? "VIOLATION" : "clean";
    std::printf("  %-18s %-9s %8llu schedules%s\n", spec.name, verdict,
                static_cast<unsigned long long>(out.schedules),
                out.exhausted ? "  [budget-bounded coverage]" : "");
    if (out.caught()) {
      std::printf("      %s\n", out.detail.c_str());
      ++failures;
    }
  }

  // ---- 2. the sweep: one mutation at a time --------------------------------
  std::printf("\n== mutation sweep ==\n");
  std::vector<Row> rows;
  for (const MoSite& site : kMoSites) {
    for (const MemOrder m : mo_weakenings(site)) {
      Row row;
      row.site = &site;
      row.mutated = m;
      row.expected = mo_must_catch(site, m);
      for (const char world_id : route(site, m)) {
        MoTable table;
        table.set(site.name, m);
        const RunOutcome out =
            run_world(world_id, &table, /*early_exit=*/true);
        if (out.caught()) {
          row.caught = true;
          row.world = world_id;
          row.channel = out.hb_hit ? "hb-race" : "terminal";
          row.detail = out.detail;
          break;
        }
      }
      rows.push_back(std::move(row));
    }
  }

  int caught_count = 0;
  int silent_count = 0;
  for (const Row& row : rows) {
    const bool ok = row.caught == row.expected;
    if (!ok) ++failures;
    if (row.caught) ++caught_count; else ++silent_count;
    std::printf("  %-22s %-8s-> %-8s expect:%-7s got:%-7s %s\n",
                row.site->name, mem_order_name(row.site->annotated),
                mem_order_name(row.mutated),
                row.expected ? "CAUGHT" : "silent",
                row.caught ? "CAUGHT" : "silent", ok ? "" : "  << MISMATCH");
    if (row.caught) {
      std::printf("      [%c/%s] %s\n", row.world, row.channel.c_str(),
                  row.detail.c_str());
    }
  }
  std::printf("  -- %d caught, %d silent, %zu mutations total\n", caught_count,
              silent_count, rows.size());

  // ---- 3. showcase: a mutation only weak-memory execution catches ----------
  //
  // sb.store_flag -> release: the SC explorer (hb tracker AND value checks)
  // is silent on the full search space; TSO store-buffer exploration
  // produces the forbidden both-zero outcome.
  std::printf("\n== weak-memory-only catch: sb.store_flag -> release ==\n");
  {
    MoTable table;
    table.set("sb.store_flag", MemOrder::kRelease);
    const RunOutcome sc = run_world('g', &table, /*early_exit=*/false);
    const RunOutcome weak = run_world('G', &table, /*early_exit=*/true);
    std::printf("  SC exploration:   %s (%llu schedules, full space)\n",
                sc.caught() ? "VIOLATION (unexpected)" : "silent",
                static_cast<unsigned long long>(sc.schedules));
    std::printf("  TSO exploration:  %s\n",
                weak.caught() ? "CAUGHT" : "silent (unexpected)");
    if (weak.caught()) std::printf("      %s\n", weak.detail.c_str());
    if (sc.caught() || !weak.caught()) {
      std::printf("  << SHOWCASE FAILED\n");
      ++failures;
    }
  }

  // ---- 4. showcase: a mutation only the hb layer catches -------------------
  //
  // lock.unlock_store -> relaxed: mutual exclusion still holds, so no
  // terminal state is ever corrupted -- but the severed release edge is a
  // data race on the critical section's plain counter.
  std::printf("\n== hb-layer-only catch: lock.unlock_store -> relaxed ==\n");
  {
    MoTable table;
    table.set("lock.unlock_store", MemOrder::kRelaxed);
    const RunOutcome out = run_world('E', &table, /*early_exit=*/false);
    std::printf("  terminal checks:  %s across %llu schedules\n",
                out.terminal_hit ? "VIOLATION (unexpected)" : "all clean",
                static_cast<unsigned long long>(out.schedules));
    std::printf("  hb tracker:       %s\n",
                out.hb_hit ? "CAUGHT" : "silent (unexpected)");
    if (out.hb_hit && out.terminal_hit) {
      // detail holds the hb trace only when hb fired first; either way
      // report what we have.
    }
    if (out.hb_hit) std::printf("      %s\n", out.detail.c_str());
    if (!out.hb_hit || out.terminal_hit) {
      std::printf("  << SHOWCASE FAILED\n");
      ++failures;
    }
  }

  std::printf("\n%s (%d failure%s)\n",
              failures == 0 ? "MO MUTATION SWEEP PASSED"
                            : "MO MUTATION SWEEP FAILED",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
