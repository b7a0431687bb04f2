// What the model-build SCQ tests share (MSQ_MODEL=1): ScqInspector, the
// raw reads of an ScqQueue's simulated words for assertions and the two
// setup writes no call can make before a world's first step (a credit
// parked in another thread's slot, a budget already spent), none of which
// takes a step or costs simulated time (ScqQueue names it as its one
// friend, so the header's public API stays what the library's users see).
// A world's items go in through try_enqueue itself, called off every fiber
// before the first step (sim/model.hpp); model_world.hpp holds the helpers
// for driving fiber worlds.
#pragma once

#include <cstdint>
#include <vector>

#include "queues/scq_queue.hpp"
#include "sim/engine.hpp"

static_assert(MSQ_MODEL, "the inspector reads the model build's words");

namespace msq::queues {

struct ScqInspector {
  template <typename T>
  static std::uint64_t peek_head(const sim::Engine& e, const ScqQueue<T>& q) {
    return e.memory().peek(q.head_.addr());
  }
  template <typename T>
  static std::uint64_t peek_tail(const sim::Engine& e, const ScqQueue<T>& q) {
    return e.memory().peek(q.tail_.addr());
  }
  template <typename T>
  static std::int64_t peek_threshold(const sim::Engine& e,
                                     const ScqQueue<T>& q) {
    return static_cast<std::int64_t>(e.memory().peek(q.threshold_.addr()));
  }
  template <typename T>
  static std::int64_t threshold_init(const ScqQueue<T>& q) {
    return q.threshold_init_;
  }

  /// Spare credits: the depot's count plus every slot's.  Credits held by
  /// items and by calls in progress make up the rest of the capacity.
  template <typename T>
  static std::uint32_t peek_free_credits(const sim::Engine& e,
                                         const ScqQueue<T>& q) {
    std::uint32_t n = q.credit_count(e.memory().peek(q.depot_.addr()));
    for (const auto& slot : q.slots_) {
      n += q.credit_count(e.memory().peek(slot.value.addr()));
    }
    return n;
  }

  /// Slot overflows moved to the depot so far: the depot's version, which
  /// only a spill bumps (takes and park_credit change only its count).
  template <typename T>
  static std::uint32_t peek_spills(const sim::Engine& e,
                                   const ScqQueue<T>& q) {
    return static_cast<std::uint32_t>(e.memory().peek(q.depot_.addr()) >> 32);
  }

  /// Values deposited at tickets no dequeuer holds yet (>= head), in ticket
  /// order.  An item whose ticket a dequeuer already drew is that
  /// dequeuer's, so these are what an empty verdict must not miss; at
  /// quiescence they are the ring's whole contents.
  template <typename T>
  static std::vector<T> peek_unclaimed(const sim::Engine& e,
                                       const ScqQueue<T>& q) {
    std::vector<T> items;
    const std::uint64_t head = peek_head(e, q);
    for (std::uint64_t t = head; t < head + q.size_; ++t) {
      const auto& cell = q.entries_[q.remap(t)];
      const std::uint64_t meta = e.memory().peek(cell.word(0).addr());
      if (q.meta_cycle(meta) == q.ticket_cycle(t) && q.meta_full(meta)) {
        items.push_back(q.from_word(e.memory().peek(cell.word(1).addr())));
      }
    }
    return items;
  }

  /// Deposited values not yet consumed, wherever they sit: the count the
  /// capacity bound limits.
  template <typename T>
  static std::uint32_t peek_unconsumed(const sim::Engine& e,
                                       const ScqQueue<T>& q) {
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < q.size_; ++i) {
      n += q.meta_full(e.memory().peek(q.entries_[i].word(0).addr())) ? 1 : 0;
    }
    return n;
  }

  /// Set the search budget as if a deposit had just happened, less
  /// `misses` fruitless dequeues since -- misses > 0 opens the gated empty
  /// check.
  template <typename T>
  static void arm_threshold(sim::Engine& e, const ScqQueue<T>& q,
                            std::int64_t misses = 0) {
    e.memory().word(q.threshold_.addr()) =
        static_cast<std::uint64_t>(q.threshold_init_ - misses);
  }

  /// Move one depot credit into slot `slot`, as a dequeue on a thread that
  /// owns it would have returned one (the version bumps with the count).
  template <typename T>
  static void park_credit(sim::Engine& e, const ScqQueue<T>& q,
                          std::uint32_t slot) {
    sim::SimMemory& mem = e.memory();
    mem.word(q.depot_.addr()) -= 1;
    mem.word(q.slots_[slot % q.kSlots].value.addr()) += q.kBump + 1;
  }
};

}  // namespace msq::queues
