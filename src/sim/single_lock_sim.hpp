// Single-lock queue baseline as a simulated step machine: one TATAS lock
// (with bounded exponential backoff) around a dummy-headed list.  The free
// list lives under the same lock, so allocation is plain reads/writes.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/queue_iface.hpp"
#include "sim/sim_lock.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::sim {

class SimSingleLockQueue final : public SimQueue {
 public:
  SimSingleLockQueue(Engine& engine, std::uint32_t capacity,
                     double backoff_max = 1024)
      : engine_(engine),
        capacity_(capacity + 1),
        nodes_(engine.memory().alloc((capacity + 1) * 2)),
        head_(engine.memory().alloc(1)),
        tail_(engine.memory().alloc(1)),
        free_top_(engine.memory().alloc(1)),
        lock_(engine, backoff_max) {
    SimMemory& mem = engine.memory();
    // Thread nodes 1..capacity onto a plain free list; node 0 is the dummy.
    std::uint64_t top = tagged::kNullIndex;
    for (std::uint32_t i = 1; i < capacity_; ++i) {
      mem.word(next_addr(i)) = top;
      top = i;
    }
    mem.word(free_top_) = top;
    mem.word(next_addr(0)) = tagged::kNullIndex;
    mem.word(head_) = 0;
    mem.word(tail_) = 0;
  }

  [[nodiscard]] const char* name() const noexcept override { return "single lock"; }

  Task<bool> enqueue(Proc& p, std::uint64_t value) override {
    co_await lock_.lock(p);
    co_await p.at("LOCK_HELD");
    // allocate from the plain free list
    const std::uint64_t node = co_await p.read(free_top_);
    if (node == tagged::kNullIndex) {
      co_await lock_.unlock(p);
      co_return false;
    }
    const std::uint64_t next_free = co_await p.read(next_addr(node));
    co_await p.write(free_top_, next_free);
    co_await p.write(value_addr(node), value);
    co_await p.write(next_addr(node), tagged::kNullIndex);
    const std::uint64_t tail = co_await p.read(tail_);
    co_await p.write(next_addr(tail), node);
    co_await p.write(tail_, node);
    co_await lock_.unlock(p);
    co_return true;
  }

  Task<std::uint64_t> dequeue(Proc& p) override {
    co_await lock_.lock(p);
    co_await p.at("LOCK_HELD");
    const std::uint64_t dummy = co_await p.read(head_);
    const std::uint64_t first = co_await p.read(next_addr(dummy));
    if (first == tagged::kNullIndex) {
      co_await lock_.unlock(p);
      co_return kEmpty;
    }
    const std::uint64_t value = co_await p.read(value_addr(first));
    co_await p.write(head_, first);
    // free the dummy onto the plain free list (still under the lock)
    const std::uint64_t free_top = co_await p.read(free_top_);
    co_await p.write(next_addr(dummy), free_top);
    co_await p.write(free_top_, dummy);
    co_await lock_.unlock(p);
    co_return value;
  }

  void check_invariants() const override {
    const SimMemory& mem = engine_.memory();
    const auto head = mem.peek(head_);
    std::uint32_t hops = 0;
    for (std::uint64_t it = head; it != tagged::kNullIndex;
         it = mem.peek(next_addr(it))) {
      if (++hops > capacity_ + 1) {
        throw std::runtime_error("single-lock invariant: list not connected");
      }
    }
  }

 private:
  [[nodiscard]] Addr value_addr(std::uint64_t node) const noexcept {
    return nodes_ + static_cast<Addr>(node) * 2;
  }
  [[nodiscard]] Addr next_addr(std::uint64_t node) const noexcept {
    return nodes_ + static_cast<Addr>(node) * 2 + 1;
  }

  Engine& engine_;
  std::uint32_t capacity_;
  Addr nodes_;
  Addr head_;
  Addr tail_;
  Addr free_top_;
  SimTatasLock lock_;
};

}  // namespace msq::sim
