#include "sim/explore.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <utility>

#include "obs/counters.hpp"

namespace msq::sim {
namespace {

/// Lowest runnable process at or after `from`, wrapping; or process_count
/// if none.
std::uint32_t next_runnable(const Engine& engine, std::uint32_t from) {
  const std::uint32_t n = engine.process_count();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t candidate = (from + i) % n;
    if (!engine.done(candidate)) return candidate;
  }
  return n;
}

/// The same wrap-around choice, but over a recorded done-bitmask from the
/// baseline run (for deciding whether a preemption placement is a no-op
/// without re-running it).
std::uint32_t next_runnable_in_mask(std::uint64_t done_mask, std::uint32_t n,
                                    std::uint32_t from) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t candidate = (from + i) % n;
    if ((done_mask & (1ull << candidate)) == 0) return candidate;
  }
  return n;
}

}  // namespace

std::uint64_t run_schedule(
    Engine& engine, const std::vector<Preemption>& preemptions,
    std::uint64_t max_steps, const std::function<void()>& on_step,
    const std::function<void(std::uint64_t, std::uint32_t)>& on_choice) {
  std::uint32_t current = 0;
  std::uint64_t steps = 0;
  std::size_t next_preemption = 0;
  for (;;) {
    if (next_preemption < preemptions.size() &&
        steps == preemptions[next_preemption].at_step) {
      const std::uint32_t target = preemptions[next_preemption].to_process;
      ++next_preemption;
      if (target < engine.process_count() && !engine.done(target)) {
        current = target;
      }
    }
    current = next_runnable(engine, current);
    if (current == engine.process_count()) break;  // everything finished
    if (on_choice) on_choice(steps, current);
    engine.step(current);
    ++steps;
    if (on_step) on_step();
    if (steps >= max_steps) break;  // blocked schedule (or runaway): stop
  }
  return steps;
}

ExploreResult explore_schedules(const ExploreConfig& config,
                                std::uint32_t process_count,
                                const std::function<Engine&()>& factory,
                                const std::function<void(Engine&)>& on_step,
                                const std::function<void(Engine&)>& on_done) {
  assert(process_count <= 64 && "done-bitmask assumes <= 64 processes");
  ExploreResult result;

  auto run_one = [&](const std::vector<Preemption>& preemptions) {
    Engine& engine = factory();
    MSQ_COUNT(kExploreRun);
    run_schedule(engine, preemptions, config.max_steps_per_run,
                 [&] { if (on_step) on_step(engine); });
    if (on_done) on_done(engine);
    ++result.schedules_run;
    return result.schedules_run < config.max_schedules;
  };

  // Baseline: the preemption-free schedule fixes the step horizon L and
  // records, per step, which process ran and which were already done.  A
  // forced switch whose target would be chosen anyway (or is done, making
  // the preemption a no-op) replays this exact schedule -- skip it.
  std::uint64_t horizon = 0;
  std::vector<std::uint32_t> base_choice;
  std::vector<std::uint64_t> base_done_mask;
  {
    Engine& engine = factory();
    MSQ_COUNT(kExploreRun);
    horizon = run_schedule(
        engine, {}, config.max_steps_per_run,
        [&] { if (on_step) on_step(engine); },
        [&](std::uint64_t, std::uint32_t chosen) {
          std::uint64_t mask = 0;
          for (std::uint32_t q = 0; q < process_count; ++q) {
            if (engine.done(q)) mask |= 1ull << q;
          }
          base_choice.push_back(chosen);
          base_done_mask.push_back(mask);
        });
    if (on_done) on_done(engine);
    ++result.schedules_run;
  }

  // Is a forced switch to `target` before baseline step `s` a no-op?
  auto degenerate = [&](std::uint64_t s, std::uint32_t target) {
    if (s >= base_choice.size()) return true;  // past the horizon: no step
    return next_runnable_in_mask(base_done_mask[s], process_count, target) ==
           base_choice[s];
  };
  auto skip = [&] {
    MSQ_COUNT(kExploreSkip);
    ++result.schedules_skipped;
  };

  // k = 1: one forced switch at every (position, target).
  if (config.max_preemptions >= 1) {
    for (std::uint64_t s = 1; s < horizon; ++s) {
      for (std::uint32_t t = 0; t < process_count; ++t) {
        if (degenerate(s, t)) {
          skip();
          continue;
        }
        if (!run_one({{s, t}})) {
          result.budget_exhausted = true;
          return result;
        }
      }
    }
  }

  // k = 2: ordered pairs of switch points.  Only the FIRST switch can be
  // judged against the baseline (after a real first switch the execution
  // deviates from it); a degenerate first switch reduces the pair to a
  // k = 1 schedule already run above.
  if (config.max_preemptions >= 2) {
    for (std::uint64_t s1 = 1; s1 < horizon; ++s1) {
      for (std::uint64_t s2 = s1 + 1; s2 <= horizon; ++s2) {
        for (std::uint32_t t1 = 0; t1 < process_count; ++t1) {
          for (std::uint32_t t2 = 0; t2 < process_count; ++t2) {
            if (t1 == t2) continue;  // same-target pair adds nothing new
            if (degenerate(s1, t1)) {
              skip();
              continue;
            }
            if (!run_one({{s1, t1}, {s2, t2}})) {
              result.budget_exhausted = true;
              return result;
            }
          }
        }
      }
    }
  }

  // Deeper preemption bounds would go here; 2 suffices for every race in
  // the paper's catalogue (and the tests assert that).
  return result;
}

// --- dynamic partial-order reduction ----------------------------------------
//
// Flanagan-Godefroid DPOR with sleep sets, by replay.  The search state is
// the current path: one node per executed step, holding the scheduling
// alternatives discovered so far.  Each iteration replays the path's
// choices on a fresh engine, extends it to completion with a default
// strategy, analyses the trace with vector clocks to plant backtrack
// points at conflicting steps, then backtracks DFS-style to the deepest
// node with an untried alternative.  A race is planted as the later
// step's process only when that process is an initial of the steps since
// the earlier one (source-DPOR's condition); otherwise as every enabled
// process.  Planting the process regardless lost traces in 3-process
// worlds: tests/sim_scq_test.cpp's empty-check world is symmetric in its
// two dequeuers, yet only one of them was ever seen returning empty.
//
// Weak memory (EngineConfig::weak_memory) doubles the agent space: agent
// a < n runs process a's next program step, agent n + q publishes process
// q's oldest buffered store as a flush step (CDSChecker-style: the
// visibility nondeterminism is enumerated as scheduling nondeterminism).
// Dependence treatment: a BUFFERED store is a local step whose clock is
// snapshotted into a per-process FIFO of pending-store clocks; the flush
// that later publishes it joins that snapshot (the flush is ordered after
// the store's context, NOT after everything its process did since) and is
// the step that conflicts with peer accesses to the address.  Forwarded
// reads (served from the process's own buffer) touch no shared state and
// stay local.  With every access seq_cst no store ever buffers, no flush
// agent ever enables, and the search degenerates to the SC one exactly.

namespace {

/// One step's shared access: `words` adjacent words from `addr` (two for
/// a 16-byte CAS, which conflicts with an access to either half).
struct DporAccess {
  bool valid = false;
  Addr addr = 0;
  std::uint8_t words = 1;
  bool is_write = false;
};

bool dpor_conflict(const DporAccess& a, const DporAccess& b) noexcept {
  return a.valid && b.valid && a.addr < b.addr + b.words &&
         b.addr < a.addr + a.words && (a.is_write || b.is_write);
}

using DporClock = std::vector<std::uint64_t>;

void clock_join(DporClock& into, const DporClock& from) {
  for (std::size_t i = 0; i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

/// A set of agents as a bitmask (agent_count <= 64), walked in ascending
/// order.  The search touches these sets at every node of every replay, so
/// they must not allocate.
struct AgentSet {
  std::uint64_t bits = 0;

  /// Returns true iff `q` was not yet in the set.
  bool insert(std::uint32_t q) noexcept {
    const bool fresh = !contains(q);
    bits |= std::uint64_t{1} << q;
    return fresh;
  }
  [[nodiscard]] bool contains(std::uint32_t q) const noexcept {
    return ((bits >> q) & 1) != 0;
  }
};

struct DporNode {
  std::vector<std::uint32_t> enabled;  // processes runnable at this node
  AgentSet backtrack;                  // alternatives to explore from here
  AgentSet done;                       // alternatives already explored
  // Sleep set on entry plus the accesses of already-explored choices:
  // a sleeping process's recorded next access stays valid because the
  // engine is deterministic and the process does not run while asleep.
  std::vector<std::pair<std::uint32_t, DporAccess>> sleep;
  std::vector<std::pair<std::uint32_t, DporAccess>> explored;
  std::uint32_t chosen = 0;
  DporAccess access{};
  DporClock clock;  // the chosen agent's happens-before clock after the step
};

/// One agent's read of an address since its last write: its step index in
/// the path and its happens-before clock.
struct DporRead {
  bool valid = false;
  std::size_t index = 0;
  DporClock clock;
};

/// Can agent `p` reverse its race with the step at `site` by being
/// scheduled right there?  Only if p's first step after the site waits on
/// no step run since that is not itself ordered after the site: p must be
/// an initial of those steps (source-DPOR).  Planting p anyway would run
/// p's first step early, not the racing one, and can lose the reversed
/// trace.  `racing` is the clock of p's racing step.
bool is_initial_after(const std::vector<DporNode>& path, std::size_t site,
                      std::size_t depth, std::uint32_t p,
                      const DporClock& racing) {
  const std::uint32_t e_agent = path[site].chosen;
  const std::uint64_t e_tick = path[site].clock[e_agent];
  std::size_t first = depth;
  for (std::size_t j = site + 1; j < depth; ++j) {
    if (path[j].chosen == p) {
      first = j;
      break;
    }
  }
  const DporClock& first_clock = first == depth ? racing : path[first].clock;
  for (std::size_t k = site + 1; k < first; ++k) {
    const DporClock& kc = path[k].clock;
    const std::uint32_t q = path[k].chosen;
    if (kc[e_agent] >= e_tick) continue;  // ordered after the site's step
    if (first_clock[q] >= kc[q]) return false;  // p's first step waits on k
  }
  return true;
}

/// Per-address trace summary for the race rule: the last write and the
/// reads since it (indexed by agent), each with the executing process, its
/// step index in the path and its happens-before clock.  Kept across
/// replays and reset in place, so a replay reuses the clocks' storage.
struct DporAddrTrace {
  bool has_write = false;
  std::uint32_t w_proc = 0;
  std::size_t w_index = 0;
  DporClock w_clock;
  std::vector<DporRead> reads;
};

}  // namespace

DporResult explore_dpor(const DporConfig& config, std::uint32_t process_count,
                        const std::function<Engine&()>& factory,
                        const std::function<void(Engine&)>& on_step,
                        const std::function<void(Engine&)>& on_done) {
  DporResult result;
  // The path is path[0, path_len); nodes past it are kept for their
  // storage and reused as the search extends the path again.
  std::vector<DporNode> path;
  std::size_t path_len = 0;
  bool first_run = true;
  // Kept across replays so the search does not allocate per step: the
  // per-address trace (reset at the start of each replay) and two per-step
  // buffers.
  std::vector<DporAddrTrace> mem;
  std::vector<std::uint32_t> enabled;
  std::vector<std::pair<std::uint32_t, DporAccess>> next_sleep;
  DporClock joined;

  while (first_run || path_len != 0) {
    first_run = false;
    if (result.schedules_run + result.sleep_blocked >= config.max_schedules) {
      result.budget_exhausted = true;
      return result;
    }

    Engine& engine = factory();
    MSQ_COUNT(kExploreRun);

    // Agent space: processes, plus one flush agent per process when the
    // engine buffers stores (see the weak-memory notes above).
    const bool weak = engine.config().weak_memory;
    const std::uint32_t agent_count =
        weak ? 2 * process_count : process_count;
    assert(agent_count <= 64 && "AgentSet holds at most 64 agents");

    std::vector<DporClock> vc(agent_count, DporClock(agent_count, 0));
    for (DporAddrTrace& t : mem) {
      t.has_write = false;
      for (DporRead& r : t.reads) r.valid = false;
    }
    // Clocks of stores sitting in each process's buffer, FIFO like it.
    std::vector<std::vector<DporClock>> pending_clocks(process_count);
    // Active sleep set carried down the path (entry sleep of the next node
    // to create).
    std::vector<std::pair<std::uint32_t, DporAccess>> active_sleep;
    bool sleep_blocked = false;

    for (std::size_t depth = 0;; ++depth) {
      // Enabled agents.  A process agent is enabled while it can make
      // program progress (a fence waiting on its buffer is not); a flush
      // agent is enabled while its process has buffered stores.  Spinning
      // processes are always runnable, so "may be co-enabled" holds.
      enabled.clear();
      for (std::uint32_t q = 0; q < process_count; ++q) {
        if (engine.can_advance(q)) enabled.push_back(q);
      }
      if (weak) {
        for (std::uint32_t q = 0; q < process_count; ++q) {
          if (engine.flush_pending(q) > 0) enabled.push_back(process_count + q);
        }
      }

      if (depth < path_len) {
        active_sleep = path[depth].sleep;  // replay: stored entry sleep
      } else {
        if (enabled.empty()) break;  // execution complete (buffers drained)
        if (depth >= config.max_steps_per_run) break;  // runaway guard
        // New node: default strategy picks the first enabled agent not
        // asleep.  If every enabled agent sleeps, this branch commutes
        // with one already explored -- prune it.
        if (path_len == path.size()) path.emplace_back();
        DporNode& fresh = path[path_len];
        fresh.enabled = enabled;
        fresh.sleep = active_sleep;
        fresh.explored.clear();
        fresh.backtrack = {};
        fresh.done = {};
        fresh.access = {};
        std::uint32_t choice = agent_count;
        for (const std::uint32_t q : enabled) {
          const bool asleep =
              std::any_of(fresh.sleep.begin(), fresh.sleep.end(),
                          [&](const auto& e) { return e.first == q; });
          if (!asleep) {
            choice = q;
            break;
          }
        }
        if (choice == agent_count) {
          sleep_blocked = true;
          break;
        }
        fresh.chosen = choice;
        fresh.backtrack.insert(choice);
        ++path_len;
      }

      DporNode& node = path[depth];
      const std::uint32_t p = node.chosen;

      if (p < process_count) {
        engine.step(p);
      } else {
        engine.flush_one(p - process_count);
      }
      const Engine::LastAccess& la = engine.last_access();

      if (la.valid && la.buffered) {
        // Buffered store: a local step, but snapshot its clock so the
        // flush that publishes it is ordered after the store's context.
        vc[p][p] += 1;
        pending_clocks[p].push_back(vc[p]);
        node.access = {};
        node.clock = vc[p];
        if (on_step) on_step(engine);
        continue;
      }
      if (la.valid && la.forwarded) {
        vc[p][p] += 1;  // served from the process's own buffer: local
        node.access = {};
        node.clock = vc[p];
        if (on_step) on_step(engine);
        continue;
      }
      if (la.valid && la.flush) {
        // Flush agent: ordered after the buffering store's snapshot.
        const std::uint32_t q = p - process_count;
        clock_join(vc[p], pending_clocks[q].front());
        pending_clocks[q].erase(pending_clocks[q].begin());
      }

      const DporAccess a{la.valid, la.addr, la.words, la.is_write};
      node.access = a;

      if (a.valid) {
        // Race rule, per word touched: find earlier conflicting accesses
        // not ordered before p (by the happens-before of the trace so far)
        // and plant backtrack points where they were scheduled.
        if (a.addr + a.words > mem.size()) mem.resize(a.addr + a.words);
        // This step's happens-before clock: ordered after every earlier
        // dependent access (reads after the last write; writes after the
        // last write and the reads since it).
        joined = vc[p];
        for (Addr w = a.addr; w < a.addr + a.words; ++w) {
          DporAddrTrace& t = mem[w];
          if (t.reads.size() < agent_count) t.reads.resize(agent_count);
          if (t.has_write) clock_join(joined, t.w_clock);
          if (a.is_write) {
            for (const DporRead& r : t.reads) {
              if (r.valid) clock_join(joined, r.clock);
            }
          }
        }
        joined[p] += 1;
        auto plant = [&](std::size_t at_index) {
          DporNode& site = path[at_index];
          const bool p_enabled = std::find(site.enabled.begin(),
                                           site.enabled.end(),
                                           p) != site.enabled.end();
          if (p_enabled &&
              is_initial_after(path, at_index, depth, p, joined)) {
            site.backtrack.insert(p);
          } else {
            for (const std::uint32_t q : site.enabled) {
              site.backtrack.insert(q);
            }
          }
        };
        for (Addr w = a.addr; w < a.addr + a.words; ++w) {
          const DporAddrTrace& t = mem[w];
          if (t.has_write && t.w_proc != p &&
              t.w_clock[t.w_proc] > vc[p][t.w_proc]) {
            plant(t.w_index);
          }
          if (a.is_write) {
            for (std::uint32_t q = 0; q < agent_count; ++q) {
              const DporRead& r = t.reads[q];
              if (r.valid && q != p && r.clock[q] > vc[p][q]) plant(r.index);
            }
          }
        }

        DporClock& c = vc[p];
        c = joined;
        for (Addr w = a.addr; w < a.addr + a.words; ++w) {
          DporAddrTrace& t = mem[w];
          if (a.is_write) {
            t.has_write = true;
            t.w_proc = p;
            t.w_index = depth;
            t.w_clock = c;
            for (DporRead& r : t.reads) r.valid = false;
          } else {
            DporRead& r = t.reads[p];
            r.valid = true;
            r.index = depth;
            r.clock = c;
          }
        }
      } else {
        vc[p][p] += 1;  // label/work/final step: independent of everything
      }

      // Sleep propagation: processes whose recorded next access commutes
      // with this step stay asleep below it.
      next_sleep.clear();
      auto keep = [&](const std::pair<std::uint32_t, DporAccess>& e) {
        if (e.first == p) return;
        if (dpor_conflict(e.second, a)) return;
        next_sleep.push_back(e);
      };
      for (const auto& e : node.sleep) keep(e);
      for (const auto& e : node.explored) keep(e);
      active_sleep.swap(next_sleep);
      node.clock = vc[p];

      if (on_step) on_step(engine);
    }

    if (sleep_blocked) {
      ++result.sleep_blocked;
    } else {
      if (on_done) on_done(engine);
      ++result.schedules_run;
    }

    // DFS backtrack: retire the deepest explored edge, then find the
    // deepest node with an untried, non-sleeping alternative.
    while (path_len != 0) {
      DporNode& v = path[path_len - 1];
      if (v.done.insert(v.chosen)) {
        v.explored.emplace_back(v.chosen, v.access);
      }
      std::uint32_t next = agent_count;
      for (std::uint64_t m = v.backtrack.bits; m != 0; m &= m - 1) {
        const auto q = static_cast<std::uint32_t>(std::countr_zero(m));
        if (v.done.contains(q)) continue;
        const bool asleep =
            std::any_of(v.sleep.begin(), v.sleep.end(),
                        [&](const auto& e) { return e.first == q; });
        if (asleep) continue;
        next = q;
        break;
      }
      if (next != agent_count) {
        v.chosen = next;
        break;
      }
      --path_len;
    }
  }
  return result;
}

}  // namespace msq::sim
