// The simulated multiprocessor: virtual processes advancing one
// shared-memory access per step under an engine-owned schedule.
//
// A process is either a COROUTINE (spawn: a Task<void> whose every
// `co_await p.read(...)`/`cas(...)` is one step -- the paper-baseline
// models in this directory) or a FIBER (spawn_fiber: a plain function on
// its own stack; engine.cpp switches stacks).  A fiber runs real code:
// every access it makes through the atomics seam (port/atomic.hpp) in the
// model build, and every Proc::perform, is one step, and every MSQ_PROBE
// it reaches is a label (Proc::reach).  Both kinds go through the same
// submit/execute path, so TSO store buffers, the race detector and the
// DPOR explorer treat them alike.
//
// This is the substitute for the paper's 12-node SGI Challenge (DESIGN.md
// section 4).  Two modes share all algorithm code:
//
//  * Schedule-exploration mode (step_random / step): the engine picks which
//    process performs the next access -- seeded-random, round-robin or
//    fully directed.  Tests check safety invariants between steps, record
//    histories for the linearizability checker, and freeze() processes at
//    annotated pseudo-code lines to exercise the paper's liveness arguments
//    (section 3.3) and the published race conditions.
//
//  * Cost mode (run_cost_model): a discrete-event simulation.  Each virtual
//    processor has a clock; the engine always advances the
//    least-advanced processor, charging each access its coherence cost
//    (sim/cost_model.hpp).  Multiple processes per processor are
//    multiplexed with a preemption quantum, reproducing the paper's
//    multiprogrammed configurations (Figures 4 and 5).
//
// One step == one shared-memory access (read/write/CAS/FAA/AND, or the
// 16-byte CAS2 over two adjacent words) or one work() episode.  The access
// is applied atomically at the step boundary, giving sequential
// consistency, the model the paper's pseudo-code assumes.
//
// Weak-memory mode (EngineConfig::weak_memory): every access additionally
// declares a check::MemOrder, and stores weaker than seq_cst go into a
// per-process FIFO store buffer instead of memory -- visible to the issuing
// process (store-to-load forwarding) but to nobody else until a separate
// FLUSH step publishes the oldest entry.  Flush steps are schedulable
// nondeterminism: the explorer (sim/explore.hpp) enumerates them the same
// way it enumerates process steps.  RMWs and seq_cst stores are fences:
// they refuse to execute until the issuing process's buffer has drained
// (each drained entry is its own visible step).  This is the TSO model --
// exactly x86's store-buffer relaxation.  With every access left at the
// default seq_cst the mode degenerates to the SC semantics above, which
// tests/sim_weak_memory_test.cpp asserts.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "check/race.hpp"
#include "port/prng.hpp"
#include "sim/cost_model.hpp"
#include "sim/memory.hpp"
#include "sim/task.hpp"

namespace msq::sim {

class Engine;
class MoTable;

using check::MemOrder;

enum class OpKind : std::uint8_t {
  kRead,
  kWrite,
  kCas,
  kFaa,
  kSwap,
  kAnd,   // fetch_and
  kCas2,  // 16-byte CAS over words addr and addr + 1
  kWork,
};

struct PendingOp {
  OpKind kind;
  Addr addr = 0;
  // write value / CAS expected / FAA delta / AND mask / CAS2 expected low
  std::uint64_t operand_a = 0;
  std::uint64_t operand_b = 0;  // CAS desired / CAS2 expected high
  double work_cost = 0;         // kWork only
  MemOrder order = MemOrder::kSeqCst;
  std::uint64_t operand_c = 0;  // CAS2 desired low
  std::uint64_t operand_d = 0;  // CAS2 desired high
  std::uint64_t wrap = ~std::uint64_t{0};  // kFaa: the word's width mask
};

/// Per-process facade passed into algorithm coroutines; its methods return
/// awaitables that suspend the coroutine for exactly one engine step.
class Proc {
 public:
  struct OpAwaiter {
    Engine* engine;
    std::uint32_t proc;
    PendingOp op;
    std::uint64_t result = 0;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    std::uint64_t await_resume() const noexcept { return result; }
  };

  // Every access may declare the memory order its real C++ counterpart
  // uses (default seq_cst: the paper's SC model).  Orders are semantic only
  // under race_detect with SyncModel::kOrders (synchronizes-with edges) and
  // under EngineConfig::weak_memory (store buffering); otherwise ignored.
  [[nodiscard]] OpAwaiter read(Addr a,
                               MemOrder o = MemOrder::kSeqCst) noexcept {
    return {engine_, id_, {OpKind::kRead, a, 0, 0, 0, o}};
  }
  [[nodiscard]] OpAwaiter write(Addr a, std::uint64_t v,
                                MemOrder o = MemOrder::kSeqCst) noexcept {
    return {engine_, id_, {OpKind::kWrite, a, v, 0, 0, o}};
  }
  /// Returns the OLD value; the CAS succeeded iff old == expected.
  [[nodiscard]] OpAwaiter cas(Addr a, std::uint64_t expected,
                              std::uint64_t desired,
                              MemOrder o = MemOrder::kSeqCst) noexcept {
    return {engine_, id_, {OpKind::kCas, a, expected, desired, 0, o}};
  }
  /// fetch_and_add; returns the OLD value.
  [[nodiscard]] OpAwaiter faa(Addr a, std::uint64_t delta,
                              MemOrder o = MemOrder::kSeqCst) noexcept {
    return {engine_, id_, {OpKind::kFaa, a, delta, 0, 0, o}};
  }
  /// fetch_and_store (unconditional swap); returns the OLD value.
  [[nodiscard]] OpAwaiter swap(Addr a, std::uint64_t v,
                               MemOrder o = MemOrder::kSeqCst) noexcept {
    return {engine_, id_, {OpKind::kSwap, a, v, 0, 0, o}};
  }
  /// Local work of `cost` units (the paper's ~6us spin, backoff episodes).
  [[nodiscard]] OpAwaiter work(double cost) noexcept {
    return {engine_, id_, {OpKind::kWork, 0, 0, 0, cost}};
  }

  struct LabelAwaiter {
    Engine* engine;
    std::uint32_t proc;
    const char* label;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };

  /// Suspend at a labelled pseudo-code line (zero cost): after this step the
  /// process's label is `label` and its NEXT step executes the labelled
  /// operation.  freeze_at_label() therefore stalls a process after it has
  /// committed to an operation but before the operation takes effect --
  /// precisely the windows the paper's liveness argument (section 3.3) and
  /// the historical race conditions are about.
  [[nodiscard]] LabelAwaiter at(const char* label) noexcept {
    return {engine_, id_, label};
  }

  /// Tag the process without suspending (status only, not a stall point).
  void annotate(const char* label) noexcept;

  // --- fiber processes (Engine::spawn_fiber) only --------------------------
  /// Perform `op` as this process's next step: the fiber sleeps until the
  /// engine schedules it, and returns the op's result (the OLD value of an
  /// RMW; for kCas2, a 16-byte CAS over words addr and addr + 1 that only
  /// fibers issue, the old low word, the high one in `*high`).
  std::uint64_t perform(const PendingOp& op, std::uint64_t* high = nullptr);
  /// The fiber reaches `label` (MSQ_PROBE in the model build): counted by
  /// label_hits() and set as its label, but a zero-cost step of its own --
  /// the fiber form of `co_await at(label)` -- only when a freeze_at_label
  /// or crash_at_label rule of this process names it.  Labels nothing
  /// stops at so cost DPOR nothing: a run's steps are its shared accesses.
  void reach(const char* label);

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] Engine& engine() noexcept { return *engine_; }

 private:
  friend class Engine;
  Proc(Engine* engine, std::uint32_t id) noexcept : engine_(engine), id_(id) {}

  Engine* engine_;
  std::uint32_t id_;
};

struct EngineConfig {
  std::uint32_t processors = 1;
  double quantum = std::numeric_limits<double>::infinity();  // preemption off
  CostParams cost{};
  std::uint64_t seed = 1;
  double jitter = 0;  // uniform extra cost in [0, jitter) per step
  // Happens-before race detection (check/race.hpp): every access is stamped
  // with a vector clock; sync_model declares which operations carry
  // release/acquire edges.  Off by default: stamping costs a map lookup per
  // access, and most tests want raw speed.
  bool race_detect = false;
  check::SyncModel sync_model = check::SyncModel::kRmw;
  // TSO store-buffer execution (see the header comment).  Exploration-mode
  // only: combining it with run_cost_model() is unsupported.  With it on,
  // done(id) additionally requires the process's buffer to have drained,
  // and step(id) on a finished-but-buffered process performs one flush.
  bool weak_memory = false;
  // Model build (sim/model.hpp): the order overrides the seam's labelled
  // accesses resolve through (nullptr: each access's own order), and the
  // one MSQ_MUTANT hook that reads true (nullptr: none).
  const MoTable* mo = nullptr;
  const char* mutant = nullptr;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimMemory& memory() noexcept { return memory_; }
  [[nodiscard]] const SimMemory& memory() const noexcept { return memory_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Create a virtual process pinned to `processor` and hand it a root
  /// coroutine built from its Proc facade.  The factory is invoked
  /// immediately; the coroutine body runs lazily, one step at a time.
  template <typename Factory>  // Factory: Task<void>(Proc&)
  std::uint32_t spawn(std::uint32_t processor, Factory&& factory) {
    const std::uint32_t id = static_cast<std::uint32_t>(processes_.size());
    auto proc = std::unique_ptr<Proc>(new Proc(this, id));
    processes_.push_back(std::make_unique<Process>());
    processes_.back()->facade = std::move(proc);
    processes_.back()->processor = processor;
    processes_.back()->root.emplace(factory(*processes_.back()->facade));
    assert(processor < config_.processors);
    return id;
  }

  /// Create a FIBER process: `body` runs on a stack of its own, lazily,
  /// one step per Proc::perform (and so per access through the model
  /// build's atomics seam).  A fiber that is crashed or never finished is
  /// abandoned with its stack: keep objects that own resources outside
  /// the body.
  std::uint32_t spawn_fiber(std::uint32_t processor,
                            std::function<void(Proc&)> body);

  // --- schedule-exploration interface -----------------------------------
  /// Advance process `id` by one step.  Returns false if it is done.
  bool step(std::uint32_t id);
  /// Advance a uniformly random runnable process; false when none remain.
  bool step_random();
  /// Run a random schedule to completion (bounded by `max_steps`).
  /// Returns true if every process finished.
  bool run_random(std::uint64_t max_steps = 100'000'000);

  void freeze(std::uint32_t id) { process(id).frozen = true; }
  void unfreeze(std::uint32_t id) { process(id).frozen = false; }
  /// Freeze `id` as soon as its annotation equals `label` (checked before
  /// each of its steps).  Pass nullptr to cancel.
  void freeze_at_label(std::uint32_t id, const char* label);

  /// Times process `id` has reached `label` so far: `co_await at(label)`
  /// steps, and Proc::reach, which is what a fiber's MSQ_PROBE is.
  [[nodiscard]] std::uint64_t label_hits(std::uint32_t id,
                                         const char* label) const;

  // --- fault-injection interface (src/fault) -----------------------------
  /// Crash-stop failure: process `id` halts forever at its current step,
  /// mid-operation, and can never be revived (unlike freeze/unfreeze).  Its
  /// done() stays false; any shared state it half-updated stays exactly as
  /// the crash left it.  This is the paper's "process is halted or delayed"
  /// hypothesis made permanent (section 1's case for non-blocking progress).
  void crash(std::uint32_t id) { process(id).crashed = true; }
  /// crash(id) as `id` reaches `label` for the `hit`-th time: it halts
  /// there, before the labelled operation.  This bounds a call the way a
  /// test needs (a retry loop that may run long) with the semantics of a
  /// real pending call, and depends only on the process's own history, so
  /// a DPOR world may set it at construction.
  void crash_at_label(std::uint32_t id, const char* label, std::uint64_t hit) {
    process(id).crash_label = label;
    process(id).crash_hit = hit;
  }
  [[nodiscard]] bool is_crashed(std::uint32_t id) const {
    return process(id).crashed;
  }
  /// Transient stall: process `id` declines the next `steps` engine steps
  /// (scheduling opportunities), then becomes runnable again by itself --
  /// a bounded delay, as opposed to crash()'s unbounded one.  Counters tick
  /// on every engine step, including idle ticks taken when every live
  /// process is stalled.
  void stall(std::uint32_t id, std::uint64_t steps) {
    process(id).stall_remaining = steps;
  }
  [[nodiscard]] bool is_stalled(std::uint32_t id) const {
    return process(id).stall_remaining > 0;
  }

  [[nodiscard]] bool done(std::uint32_t id) const {
    const Process& p = process(id);
    return p.finished && p.store_buffer.empty();
  }
  [[nodiscard]] bool all_done() const;
  [[nodiscard]] bool runnable_exists() const;
  [[nodiscard]] const char* label(std::uint32_t id) const {
    return process(id).label;
  }
  [[nodiscard]] std::uint32_t process_count() const noexcept {
    return static_cast<std::uint32_t>(processes_.size());
  }

  // --- cost-model interface ----------------------------------------------
  /// Discrete-event run to completion.  Returns simulated elapsed time
  /// (max processor clock).  Requires every process to terminate.
  double run_cost_model();

  [[nodiscard]] std::uint64_t total_steps() const noexcept { return steps_; }
  [[nodiscard]] double clock_of_processor(std::uint32_t processor) const {
    return processors_.at(processor).clock;
  }

  // --- race-detection interface (check/race.hpp) --------------------------
  /// Reports collected so far (empty unless config.race_detect).
  [[nodiscard]] const check::RaceLog& races() const noexcept {
    return race_log_;
  }
  [[nodiscard]] check::RaceLog& races() noexcept { return race_log_; }

  /// The shared-memory access performed by the most recent step, if any
  /// (label suspensions, work episodes, idle stall ticks and final
  /// co_returns perform none).  The DPOR explorer uses this to build its
  /// dependence relation without reaching into the engine's internals.
  /// Weak-memory mode adds three refinements: a `buffered` store entered
  /// the issuing process's store buffer (not yet globally visible -- a
  /// LOCAL step for dependence purposes), a `forwarded` read was served
  /// from the process's own buffer (also local), and a `flush` write is a
  /// buffered store becoming globally visible (the step that conflicts).
  struct LastAccess {
    bool valid = false;
    OpKind kind = OpKind::kWork;
    Addr addr = 0;
    bool is_write = false;  // mutated the word (failed CAS is a read)
    std::uint8_t words = 1;  // 2 for kCas2: addr and addr + 1
    MemOrder order = MemOrder::kSeqCst;
    bool buffered = false;
    bool forwarded = false;
    bool flush = false;
  };
  [[nodiscard]] const LastAccess& last_access() const noexcept {
    return last_access_;
  }

  // --- weak-memory interface (EngineConfig::weak_memory) ------------------
  /// Buffered stores of process `id` not yet globally visible.
  [[nodiscard]] std::size_t flush_pending(std::uint32_t id) const {
    return process(id).store_buffer.size();
  }
  /// Publish process `id`'s OLDEST buffered store as one engine step (the
  /// explorer schedules these as "flush agents").  Requires flush_pending.
  void flush_one(std::uint32_t id);
  /// Can `id` make PROGRAM progress this step?  False while a fence (RMW or
  /// seq_cst store) waits on the buffer to drain -- then only flush steps
  /// are enabled -- and false once the root coroutine finished.
  [[nodiscard]] bool can_advance(std::uint32_t id) const {
    const Process& p = process(id);
    return !p.finished && !p.crashed && !p.frozen &&
           !(p.has_pending && !p.store_buffer.empty());
  }

 private:
  friend struct Proc::OpAwaiter;
  friend struct Proc::LabelAwaiter;
  friend class Proc;

  /// A fiber process's stack and contexts (engine.cpp).
  struct Fiber;
  struct FiberDeleter {
    void operator()(Fiber* fiber) const noexcept;
  };

  /// One store sitting in a process's TSO buffer, waiting to be flushed.
  struct BufferedStore {
    Addr addr = 0;
    std::uint64_t value = 0;
    MemOrder order = MemOrder::kSeqCst;
    const char* label = "";  // pseudo-code line of the buffering store
  };

  struct Process {
    std::unique_ptr<Proc> facade;
    std::optional<Task<void>> root;              // coroutine process
    std::unique_ptr<Fiber, FiberDeleter> fiber;  // fiber process
    std::coroutine_handle<> resume_point = nullptr;
    std::uint32_t processor = 0;
    bool started = false;
    bool finished = false;
    bool frozen = false;
    bool crashed = false;
    std::uint64_t stall_remaining = 0;
    const char* label = "";
    const char* freeze_label = nullptr;
    const char* crash_label = nullptr;
    std::uint64_t crash_hit = 0;
    std::map<std::string_view, std::uint64_t, std::less<>> label_hits;
    double last_step_cost = 0;
    // Weak-memory state: the FIFO store buffer, plus a fence op (RMW or
    // seq_cst store) parked until the buffer drains.  `pending_result`
    // points into the suspended OpAwaiter, whose frame stays alive across
    // the drain steps.
    std::vector<BufferedStore> store_buffer;
    bool has_pending = false;
    PendingOp pending_op{OpKind::kWork};
    std::uint64_t* pending_result = nullptr;  // a fiber's kCas2: two words

    [[nodiscard]] bool runnable() const noexcept {
      return !finished && !frozen && !crashed && stall_remaining == 0;
    }
  };

  struct Processor {
    double clock = 0;
    double quantum_used = 0;
    std::vector<std::uint32_t> procs;  // processes multiplexed here
    std::size_t current = 0;           // round-robin cursor
  };

  Process& process(std::uint32_t id) { return *processes_.at(id); }
  [[nodiscard]] const Process& process(std::uint32_t id) const {
    return *processes_.at(id);
  }

  /// Apply `op` to memory and charge its cost; writes its result to
  /// result[0] (and a kCas2's old high word to result[1]).
  void execute(std::uint32_t id, const PendingOp& op, std::uint64_t* result);

  /// Entry point from OpAwaiter::await_suspend and Proc::perform: execute
  /// `op` now, or (weak mode, fence op, buffer nonempty) park it until the
  /// buffer drains.  `result` has room for two words.
  void submit(std::uint32_t id, const PendingOp& op, std::uint64_t* result);

  /// `p` reaches `label`: its label and label_hits, no step.
  void note_label(Process& p, const char* label);
  /// The zero-cost step of `p` reaching `label` (note_label, and the
  /// crash_at_label rule).
  void label_step(Process& p, const char* label);

  /// Run `p`'s fiber until its next step ends.
  void run_fiber(Process& p);

  [[nodiscard]] static constexpr bool is_rmw(OpKind k) noexcept {
    return k == OpKind::kCas || k == OpKind::kFaa || k == OpKind::kSwap ||
           k == OpKind::kAnd || k == OpKind::kCas2;
  }

  /// Does `op` require the issuing process's store buffer to be empty?
  [[nodiscard]] bool needs_drain(const PendingOp& op) const noexcept {
    if (!config_.weak_memory) return false;
    if (is_rmw(op.kind)) {
      return true;  // RMWs are fences under TSO (x86 LOCK prefix)
    }
    return op.kind == OpKind::kWrite && op.order == MemOrder::kSeqCst;
  }

  /// Publish the oldest buffered store of `id` (one engine step).
  void flush_oldest(std::uint32_t id);

  /// Resume process `id` for one step (it must be runnable).
  void resume_one(std::uint32_t id);

  /// One engine step elapsed: tick down every live process's stall counter.
  void tick_stalls() noexcept;

  EngineConfig config_;
  SimMemory memory_;
  CostModel cost_model_;
  port::Xoshiro256 rng_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Processor> processors_;
  std::uint64_t steps_ = 0;
  check::RaceLog race_log_;
  std::optional<check::HbTracker> hb_;  // engaged iff config_.race_detect
  LastAccess last_access_{};
};

}  // namespace msq::sim
