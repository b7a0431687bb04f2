#include "sim/engine.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include <ucontext.h>

#include "obs/counters.hpp"
#include "sim/mo_table.hpp"
#include "sim/model.hpp"

// Fibers are glibc ucontext stacks.  Their switches are announced to the
// sanitizers, which otherwise take the fiber's stack for a stack overflow
// (ASan) or lose the happens-before state of the code on it (TSan).
#if defined(__SANITIZE_ADDRESS__)
#define MSQ_FIBER_ASAN 1
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#define MSQ_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#endif

namespace msq::sim {

namespace {

/// The process whose fiber is running on this thread, or nullptr on the
/// scheduler's own stack.
thread_local Proc* t_running = nullptr;

/// The newest live engine on this thread: the one model words built now
/// belong to (sim/model.hpp).
thread_local Engine* t_newest = nullptr;

/// Fiber stacks: ample for the real headers' calls, sanitizer frames
/// included.
constexpr std::size_t kFiberStack = 256 * 1024;

/// `op`'s effect on `memory` (a kWork has none): its result in out[0], a
/// kCas2's old high word in out[1].  True iff it wrote (a failed CAS does
/// not).
bool apply(SimMemory& memory, const PendingOp& op, std::uint64_t* out) {
  out[0] = 0;
  if (op.kind == OpKind::kWork) return false;
  std::uint64_t& w = memory.word(op.addr);
  switch (op.kind) {
    case OpKind::kRead:
      out[0] = w;
      return false;
    case OpKind::kWrite:
      w = op.operand_a;
      return true;
    case OpKind::kCas:
      out[0] = w;  // old value; success iff old == expected
      if (w != op.operand_a) return false;
      w = op.operand_b;
      return true;
    case OpKind::kFaa:
      out[0] = w;
      w = (w + op.operand_a) & op.wrap;
      return true;
    case OpKind::kSwap:
      out[0] = w;
      w = op.operand_a;
      return true;
    case OpKind::kAnd:
      out[0] = w;
      w &= op.operand_a;
      return true;
    case OpKind::kCas2: {
      std::uint64_t& hi = memory.word(op.addr + 1);
      out[0] = w;
      out[1] = hi;
      if (w != op.operand_a || hi != op.operand_b) return false;
      w = op.operand_c;
      hi = op.operand_d;
      return true;
    }
    case OpKind::kWork:
      break;
  }
  return false;
}

/// Every process of `e` done or crashed: nothing can step any more.
[[maybe_unused]] bool settled(const Engine& e) {
  for (std::uint32_t i = 0; i < e.process_count(); ++i) {
    if (!e.done(i) && !e.is_crashed(i)) return false;
  }
  return true;
}

MemOrder to_mem_order(std::memory_order o) noexcept {
  switch (o) {
    // relaxed: a translation of the access's declared order, not an access
    case std::memory_order_relaxed: return MemOrder::kRelaxed;
    case std::memory_order_consume:
    case std::memory_order_acquire: return MemOrder::kAcquire;
    case std::memory_order_release: return MemOrder::kRelease;
    case std::memory_order_acq_rel: return MemOrder::kAcqRel;
    case std::memory_order_seq_cst: return MemOrder::kSeqCst;
  }
  return MemOrder::kSeqCst;
}

}  // namespace

struct Engine::Fiber {
  ucontext_t context{};    // the fiber's, while it is switched out
  ucontext_t scheduler{};  // the scheduler's, while the fiber runs
  std::unique_ptr<char[]> stack{new char[kFiberStack]};
  std::function<void(Proc&)> body;
  Proc* proc;
  bool returned = false;
#ifdef MSQ_FIBER_ASAN
  void* fake_stack = nullptr;  // the fiber's, while it is switched out
  const void* scheduler_bottom = nullptr;
  std::size_t scheduler_size = 0;
#endif
#ifdef MSQ_FIBER_TSAN
  void* tsan_fiber = __tsan_create_fiber(0);
  void* tsan_scheduler = nullptr;
#endif

  Fiber(std::function<void(Proc&)> fn, Proc* p)
      : body(std::move(fn)), proc(p) {
    getcontext(&context);
    context.uc_stack.ss_sp = stack.get();
    context.uc_stack.ss_size = kFiberStack;
    // makecontext passes int arguments: `this` goes in two halves.
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&context, reinterpret_cast<void (*)()>(&entry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self));
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() {
#ifdef MSQ_FIBER_TSAN
    __tsan_destroy_fiber(tsan_fiber);
#endif
  }

  /// The fiber's first frame.  Never returns, so it must not open a TSan
  /// function frame.
  [[gnu::no_sanitize_thread]] static void entry(unsigned high, unsigned low) {
    auto* f = reinterpret_cast<Fiber*>(std::uintptr_t{high} << 32 | low);
#ifdef MSQ_FIBER_ASAN
    __sanitizer_finish_switch_fiber(nullptr, &f->scheduler_bottom,
                                    &f->scheduler_size);
#endif
    f->body(*f->proc);
    f->returned = true;
    f->switch_out(/*for_good=*/true);
  }

  /// Scheduler side: run the fiber until it switches back.
  void switch_in() {
#ifdef MSQ_FIBER_ASAN
    void* scheduler_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&scheduler_fake_stack, stack.get(),
                                   kFiberStack);
#endif
#ifdef MSQ_FIBER_TSAN
    tsan_scheduler = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
    swapcontext(&scheduler, &context);
#ifdef MSQ_FIBER_ASAN
    __sanitizer_finish_switch_fiber(scheduler_fake_stack, nullptr, nullptr);
#endif
  }

  /// Fiber side: back to the scheduler until switched in again, or, when
  /// `for_good`, for ever (ASan then frees the fiber's fake stack).
  void switch_out([[maybe_unused]] bool for_good = false) {
#ifdef MSQ_FIBER_ASAN
    __sanitizer_start_switch_fiber(for_good ? nullptr : &fake_stack,
                                   scheduler_bottom, scheduler_size);
#endif
#ifdef MSQ_FIBER_TSAN
    __tsan_switch_to_fiber(tsan_scheduler, 0);
#endif
    swapcontext(&context, &scheduler);
#ifdef MSQ_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fake_stack, &scheduler_bottom,
                                    &scheduler_size);
#endif
  }
};

void Engine::FiberDeleter::operator()(Fiber* fiber) const noexcept {
  // One abandoned mid-body (crashed, or never finished) keeps its frames
  // unreturned; under ASan its fake stack leaks too, a few tens of KB.
  delete fiber;
}

void Proc::OpAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  // The access happens NOW, as the final action of this step, unless weak
  // memory parks it behind a buffer drain; the engine stores where to pick
  // the process up next time it is scheduled.  The awaiter lives in the
  // coroutine frame, so &result stays valid across any drain steps.
  engine->process(proc).resume_point = h;
  engine->submit(proc, op, &result);
}

void Proc::LabelAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  Engine::Process& p = engine->process(proc);
  p.resume_point = h;
  engine->label_step(p, label);
}

void Proc::annotate(const char* label) noexcept {
  engine_->process(id_).label = label;
}

std::uint64_t Proc::perform(const PendingOp& op, std::uint64_t* high) {
  // Like OpAwaiter: the access is this step's last action, and the fiber
  // resumes (reading the result off its own stack) when next scheduled.
  Engine::Process& p = engine_->process(id_);
  assert(p.fiber && t_running == this && "perform() outside its fiber");
  std::array<std::uint64_t, 2> result{};
  engine_->submit(id_, op, result.data());
  p.fiber->switch_out();
  if (high != nullptr) *high = result[1];
  return result[0];
}

void Proc::reach(const char* label) {
  Engine::Process& p = engine_->process(id_);
  assert(p.fiber && t_running == this && "reach() outside its fiber");
  const auto names = [&](const char* rule) {
    return rule != nullptr && std::strcmp(rule, label) == 0;
  };
  if (names(p.freeze_label) || names(p.crash_label)) {
    engine_->label_step(p, label);
    p.fiber->switch_out();
  } else {
    engine_->note_label(p, label);
  }
}

void Engine::note_label(Process& p, const char* label) {
  p.label = label;
  ++p.label_hits[label];
}

void Engine::label_step(Process& p, const char* label) {
  note_label(p, label);
  p.last_step_cost = 0;
  ++steps_;
  if (p.crash_label != nullptr && std::strcmp(p.crash_label, label) == 0 &&
      label_hits(p.facade->id(), label) >= p.crash_hit) {
    p.crashed = true;
  }
}

std::uint64_t Engine::label_hits(std::uint32_t id, const char* label) const {
  const auto& hits = process(id).label_hits;
  const auto it = hits.find(std::string_view(label));
  return it == hits.end() ? 0 : it->second;
}

std::uint32_t Engine::spawn_fiber(std::uint32_t processor,
                                  std::function<void(Proc&)> body) {
  assert(processor < config_.processors);
  const std::uint32_t id = static_cast<std::uint32_t>(processes_.size());
  processes_.push_back(std::make_unique<Process>());
  Process& p = *processes_.back();
  p.facade = std::unique_ptr<Proc>(new Proc(this, id));
  p.processor = processor;
  p.fiber.reset(new Fiber(std::move(body), p.facade.get()));
  return id;
}

void Engine::run_fiber(Process& p) {
  Proc* const outer = t_running;
  t_running = p.facade.get();
  p.fiber->switch_in();
  t_running = outer;
  if (p.fiber->returned) p.finished = true;
}

// --- the model side of the atomics seam (sim/model.hpp) ----------------------

namespace model {

std::uint32_t fiber_ordinal() noexcept {
  return t_running != nullptr ? t_running->id() : ~0u;
}

void probe(const char* site) noexcept {
  if (t_running != nullptr) t_running->reach(site);
}

bool mutant(const char* name) noexcept {
  const Engine* engine =
      t_running != nullptr ? &t_running->engine() : t_newest;
  if (engine == nullptr) return false;
  const char* armed = engine->config().mutant;
  return armed != nullptr && std::strcmp(armed, name) == 0;
}

Addr alloc(std::span<const std::uint64_t> initial) {
  assert(t_newest != nullptr && "a model word needs a live sim::Engine");
  SimMemory& memory = t_newest->memory();
  const Addr base = memory.alloc(static_cast<std::uint32_t>(initial.size()));
  for (std::size_t i = 0; i < initial.size(); ++i) {
    memory.word(base + static_cast<Addr>(i)) = initial[i];
  }
  return base;
}

std::uint64_t access(PendingOp op, const Site& site, std::uint64_t* high) {
  if (t_running == nullptr) {
    // The test's own code: a world's setup or its end-state check.
    assert(t_newest != nullptr && "a model word needs a live sim::Engine");
    assert((t_newest->total_steps() == 0 || settled(*t_newest)) &&
           "a model word accessed off a fiber mid-run");
    std::array<std::uint64_t, 2> result{};
    (void)apply(t_newest->memory(), op, result.data());
    if (high != nullptr) *high = result[1];
    return result[0];
  }
  Proc& p = *t_running;
  op.order = to_mem_order(site.order);
  if (*site.name != '\0') {
    p.annotate(site.name);
    if (const MoTable* table = p.engine().config().mo) {
      op.order = table->resolve_or(site.name, op.order);
    }
  }
  return p.perform(op, high);
}

}  // namespace model

Engine::Engine(EngineConfig config)
    : config_(config), cost_model_(config.cost), rng_(config.seed) {
  processors_.resize(config_.processors);
  if (config_.race_detect) hb_.emplace(config_.sync_model, race_log_);
  t_newest = this;
}

Engine::~Engine() {
  // Root Task destructors tear down any still-suspended coroutines, and
  // FiberDeleter frees each fiber, abandoning the unfinished ones.
  if (t_newest == this) t_newest = nullptr;
}

void Engine::submit(std::uint32_t id, const PendingOp& op,
                    std::uint64_t* result) {
  Process& p = process(id);
  if (needs_drain(op) && !p.store_buffer.empty()) {
    // Fence semantics: the op refuses to execute until the buffer drains.
    // This step is consumed reaching the fence (no shared access); each
    // drain is its own visible step, then the op executes as one more.
    p.has_pending = true;
    p.pending_op = op;
    p.pending_result = result;
    ++steps_;
    return;
  }
  execute(id, op, result);
}

void Engine::execute(std::uint32_t id, const PendingOp& op,
                     std::uint64_t* out) {
  Process& p = process(id);
  const std::uint32_t processor = p.processor;

  if (config_.weak_memory) {
    if (op.kind == OpKind::kWrite && op.order != MemOrder::kSeqCst) {
      // TSO: the store enters the FIFO buffer, visible only to this
      // process until a flush step publishes it.  No hb feed here; the
      // tracker sees the write when it becomes globally visible.
      p.store_buffer.push_back({op.addr, op.operand_a, op.order, p.label});
      last_access_ = {true, op.kind, op.addr, /*is_write=*/true, 1,
                      op.order, /*buffered=*/true, false, false};
      p.last_step_cost = 0;
      ++steps_;
      out[0] = 0;
      return;
    }
    if (op.kind == OpKind::kRead) {
      // Store-to-load forwarding: the NEWEST buffered store to this addr
      // wins over memory.  A forwarded read touches no shared state.
      for (auto it = p.store_buffer.rbegin(); it != p.store_buffer.rend();
           ++it) {
        if (it->addr == op.addr) {
          last_access_ = {true,     op.kind, op.addr, /*is_write=*/false, 1,
                          op.order, false,   /*forwarded=*/true, false};
          p.last_step_cost = 0;
          ++steps_;
          out[0] = it->value;
          return;
        }
      }
    }
    // RMWs and seq_cst stores reach here with an EMPTY buffer (submit()
    // parks them otherwise) and act on memory directly -- write-through.
    assert(!needs_drain(op) || p.store_buffer.empty());
  }

  const bool wrote = apply(memory_, op, out);
  double cost = 0;
  switch (op.kind) {
    case OpKind::kRead:
      cost = cost_model_.on_read(processor, op.addr);
      break;
    case OpKind::kWrite:
      cost = cost_model_.on_write(processor, op.addr, /*rmw=*/false);
      break;
    case OpKind::kWork:
      cost = cost_model_.on_work(op.work_cost);
      break;
    case OpKind::kCas:
    case OpKind::kCas2:
      // Every simulated CAS funnels through here, so this one site gives
      // deterministic attempt/failure counts for the whole sim sweep.
      MSQ_COUNT(kCasAttempt);
      if (!wrote) MSQ_COUNT(kCasFail);
      [[fallthrough]];
    case OpKind::kFaa:
    case OpKind::kSwap:
    case OpKind::kAnd:
      cost = cost_model_.on_write(processor, op.addr, /*rmw=*/true);
      break;
  }
  if (op.kind != OpKind::kWork) {
    const std::uint8_t words = op.kind == OpKind::kCas2 ? 2 : 1;
    last_access_ = {true, op.kind, op.addr, wrote, words, op.order};
    if (hb_) {
      for (std::uint8_t w = 0; w < words; ++w) {
        hb_->on_access(id, p.label, op.addr + w, wrote, is_rmw(op.kind),
                       steps_, op.order);
      }
    }
  }
  if (config_.jitter > 0) {
    cost += config_.jitter * static_cast<double>(rng_() >> 40) /
            static_cast<double>(1ull << 24);
  }
  p.last_step_cost = cost;
  ++steps_;
}

void Engine::flush_oldest(std::uint32_t id) {
  Process& p = process(id);
  assert(!p.store_buffer.empty());
  const BufferedStore e = p.store_buffer.front();
  p.store_buffer.erase(p.store_buffer.begin());
  memory_.word(e.addr) = e.value;
  p.last_step_cost = cost_model_.on_write(p.processor, e.addr, /*rmw=*/false);
  last_access_ = {true,    OpKind::kWrite, e.addr, /*is_write=*/true, 1,
                  e.order, false,          false,  /*flush=*/true};
  if (hb_) {
    // The write joins the hb trace when it becomes globally visible,
    // labelled with the pseudo-code line of the store that buffered it.
    hb_->on_access(id, e.label, e.addr, /*is_write=*/true, /*is_rmw=*/false,
                   steps_, e.order);
  }
  ++steps_;
}

void Engine::flush_one(std::uint32_t id) {
  process(id).last_step_cost = 0;
  last_access_ = {};
  flush_oldest(id);
}

void Engine::resume_one(std::uint32_t id) {
  Process& p = process(id);
  p.last_step_cost = 0;
  last_access_ = {};  // set again by execute() iff this step touches memory
  if (p.has_pending) {
    // A fence op is parked.  Drain one buffered store per step; once the
    // buffer is empty the op itself executes as this step, and the
    // coroutine resumes (reading the op's result) on a later step.
    if (!p.store_buffer.empty()) {
      flush_oldest(id);
      return;
    }
    p.has_pending = false;
    execute(id, p.pending_op, p.pending_result);
    p.pending_result = nullptr;
    return;
  }
  if (p.fiber) {
    run_fiber(p);
    return;
  }
  if (!p.started) {
    p.started = true;
    p.root->start();
  } else {
    p.resume_point.resume();
  }
  if (p.root->done()) p.finished = true;
}

bool Engine::step(std::uint32_t id) {
  Process& p = process(id);
  if (p.crashed) return false;
  if (p.finished) {
    // Weak memory: a finished process may still owe the world its buffered
    // stores; its remaining steps are flushes.
    if (p.store_buffer.empty()) return false;
    p.last_step_cost = 0;
    last_access_ = {};
    tick_stalls();
    flush_oldest(id);
    return true;
  }
  if (p.freeze_label != nullptr && p.label != nullptr &&
      std::string_view(p.label) == p.freeze_label) {
    p.frozen = true;
  }
  if (p.stall_remaining > 0) {
    // The step is consumed idling: a stalled process declines its slot.
    last_access_ = {};
    tick_stalls();
    return true;
  }
  tick_stalls();
  resume_one(id);
  return true;
}

void Engine::tick_stalls() noexcept {
  for (auto& p : processes_) {
    if (!p->finished && !p->crashed && p->stall_remaining > 0) {
      --p->stall_remaining;
    }
  }
}

void Engine::freeze_at_label(std::uint32_t id, const char* label) {
  process(id).freeze_label = label;
}

bool Engine::all_done() const {
  return std::all_of(processes_.begin(), processes_.end(), [](const auto& p) {
    return p->finished && p->store_buffer.empty();
  });
}

bool Engine::runnable_exists() const {
  // A stalled process counts: it becomes runnable again by itself.  A
  // finished process with a nonempty store buffer also counts: its
  // remaining flush steps still make progress.
  return std::any_of(processes_.begin(), processes_.end(), [](const auto& p) {
    if (p->crashed || p->frozen) return false;
    return !p->finished || !p->store_buffer.empty();
  });
}

bool Engine::step_random() {
  // Collect runnable processes, honouring freeze labels first.
  std::vector<std::uint32_t> runnable;
  bool stalled_exists = false;
  runnable.reserve(processes_.size());
  for (std::uint32_t i = 0; i < processes_.size(); ++i) {
    Process& p = *processes_[i];
    if (p.crashed) continue;
    if (p.finished && p.store_buffer.empty()) continue;
    if (p.freeze_label != nullptr && p.label != nullptr &&
        std::string_view(p.label) == p.freeze_label) {
      p.frozen = true;
    }
    if (p.frozen) continue;
    if (p.stall_remaining > 0) {
      stalled_exists = true;
      continue;
    }
    runnable.push_back(i);
  }
  if (runnable.empty()) {
    // Only stalled processes left: time passes as an idle tick so their
    // delays elapse (otherwise a stall could never end).
    if (!stalled_exists) return false;
    tick_stalls();
    return true;
  }
  const std::uint32_t pick =
      runnable[static_cast<std::size_t>(rng_.below(runnable.size()))];
  tick_stalls();
  if (process(pick).finished) {
    // Finished but still buffered (weak memory): the step is a flush.
    process(pick).last_step_cost = 0;
    last_access_ = {};
    flush_oldest(pick);
  } else {
    resume_one(pick);
  }
  return true;
}

bool Engine::run_random(std::uint64_t max_steps) {
  for (std::uint64_t i = 0; i < max_steps; ++i) {
    if (!step_random()) return all_done();
  }
  return false;
}

double Engine::run_cost_model() {
  // Attach processes to their processors' run queues.
  for (auto& processor : processors_) {
    processor.procs.clear();
    processor.current = 0;
    processor.clock = 0;
    processor.quantum_used = 0;
  }
  for (std::uint32_t i = 0; i < processes_.size(); ++i) {
    processors_.at(processes_[i]->processor).procs.push_back(i);
  }

  auto runnable_on = [&](const Processor& pr) {
    return std::any_of(pr.procs.begin(), pr.procs.end(), [&](std::uint32_t id) {
      return process(id).runnable();
    });
  };

  for (;;) {
    // Discrete event step: advance the least-advanced busy processor.
    Processor* chosen = nullptr;
    for (auto& pr : processors_) {
      if (!runnable_on(pr)) continue;
      if (chosen == nullptr || pr.clock < chosen->clock) chosen = &pr;
    }
    if (chosen == nullptr) {
      // Nothing immediately runnable; stalled processes (bounded delays)
      // wake after an idle tick, crashed/frozen/finished ones never do.
      const bool stalled_exists = std::any_of(
          processes_.begin(), processes_.end(), [](const auto& p) {
            return !p->finished && !p->frozen && !p->crashed &&
                   p->stall_remaining > 0;
          });
      if (!stalled_exists) break;  // everything finished (or halted)
      tick_stalls();
      continue;
    }

    // Round-robin within the processor: advance the cursor past processes
    // that finished or are frozen (a frozen process models one that is
    // stalled in the kernel; it yields its slot immediately).
    Processor& pr = *chosen;
    std::size_t scanned = 0;
    while (scanned < pr.procs.size()) {
      const Process& p = process(pr.procs[pr.current]);
      if (p.runnable()) break;
      pr.current = (pr.current + 1) % pr.procs.size();
      pr.quantum_used = 0;
      ++scanned;
    }
    const std::uint32_t id = pr.procs[pr.current];

    tick_stalls();
    resume_one(id);
    const double cost = process(id).last_step_cost;
    pr.clock += cost;
    pr.quantum_used += cost;

    if (process(id).finished ||
        (pr.quantum_used >= config_.quantum && pr.procs.size() > 1)) {
      // Preempt: rotate to the next co-scheduled process.
      pr.current = (pr.current + 1) % pr.procs.size();
      pr.quantum_used = 0;
      pr.clock += cost_model_.params().context_switch;
    }
  }

  double elapsed = 0;
  for (const auto& pr : processors_) elapsed = std::max(elapsed, pr.clock);
  return elapsed;
}

}  // namespace msq::sim
