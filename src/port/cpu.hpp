// Low-level CPU portability helpers: cache-line geometry, spin-wait hinting,
// and the per-thread ordinal that spreads threads over claimable slots.
//
// The paper's testbed was a 12-node SGI Challenge (MIPS R4000, LL/SC).  We
// target x86-64 (lock cmpxchg / cmpxchg16b); everything architecture-specific
// in the library funnels through this header.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

// The model build (MSQ_MODEL=1, test targets only): the atomics seam
// (port/atomic.hpp) turns each port::Atomic access into one sim::Engine
// step, run by a fiber process.  Normal builds leave it 0.
#ifndef MSQ_MODEL
#define MSQ_MODEL 0
#endif

#if MSQ_MODEL
namespace msq::sim::model {
/// The running fiber process's id, or ~0u off a fiber (sim/engine.cpp).
std::uint32_t fiber_ordinal() noexcept;
}  // namespace msq::sim::model
#endif

namespace msq::port {

/// Size of a coherence granule.  Shared variables that must not false-share
/// (Head, Tail, the two locks of the two-lock queue) are padded to this.
/// Pinned to 64 (x86-64, and a safe choice elsewhere) rather than
/// std::hardware_destructive_interference_size, whose value shifts with
/// compiler tuning flags and would silently change our ABI.
inline constexpr std::size_t kCacheLine = 64;

/// Polite busy-wait hint.  On x86 this is `pause`, which de-pipelines the
/// spin loop and releases the sibling hyperthread; elsewhere a compiler
/// barrier keeps the loop from being optimised away.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

/// Small process-wide thread ordinal: 0, 1, 2, ... in order of each
/// thread's first call.  Threads spread over claimable slots with it
/// (magazines, hazard cells, wait-free announcement slots, shard hints,
/// fault-plan breadcrumbs), taken modulo the slot count; two threads on
/// one slot are harmless, since the slot's claim CAS arbitrates.  Backoff
/// jitter is seeded from it too (sync/backoff.hpp).  In the model build a
/// fiber process's ordinal is its process id.
inline std::uint32_t thread_ordinal() noexcept {
#if MSQ_MODEL
  if (const std::uint32_t id = sim::model::fiber_ordinal(); id != ~0u) {
    return id;
  }
#endif
  // share-ok: touched once per thread lifetime (ordinal assignment)
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      // relaxed: a pure ordinal draw; nothing is published through it (proof: test:tests/backoff_test.cpp)
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

/// Wrapper that places T alone on its own cache line.
template <typename T>
struct alignas(kCacheLine) CacheAligned {
  T value{};
};

}  // namespace msq::port
