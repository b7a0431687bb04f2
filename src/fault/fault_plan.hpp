// Real-thread fault injection: a FaultPlan arms delay/stall/halt rules
// against labelled CAS/lock sites inside the queue implementations.
//
// The queues are instrumented with fault::point("site") calls at the same
// pseudo-code windows the simulator labels with co_await p.at(...) -- after
// a successful E9 link but before the E13 tail swing, inside a lock-held
// critical section, between MC's fetch_and_store and its link write.  When
// no plan is armed, point() is a single relaxed atomic load and the queues
// behave exactly as before; the hook is injected the same way the Backoff
// policies are -- a seam the hot path pays (nearly) nothing for.
//
// Three actions:
//  * delay: the calling thread yields N times at the site -- an adversarial
//    scheduler squeezing the window open (the paper's "processes ... delayed");
//  * stall: ONE sticky victim thread (the first to hit the site, bound for
//    the plan's lifetime) sleeps a fixed duration on every subsequent hit --
//    a de-scheduled or page-faulting thread, the tail-latency scenario
//    bench/fig_stall.cpp measures.  The injected time is accounted per
//    thread (injected_stall_ns()) so benchmarks can separate the stall
//    itself from the damage it causes;
//  * halt: the calling thread parks on a condition variable at the site --
//    crash-stop for real threads ("processes ... halted").  A halted thread
//    cannot be destroyed, so tests release_halted() before joining; the
//    point is what the OTHER threads manage to do meanwhile.
//
// Rules are FIXED while armed (build the plan, then arm), which is what
// lets the armed hit path run lock-free: rule matching, hit counting,
// delay and stall all touch only atomics, so a benchmark can arm a stall
// plan without the instrumentation serialising its measured threads.  Only
// halt parking takes the mutex -- a parked thread is off the clock anyway.
//
// Every armed hit also drops a per-thread breadcrumb (last labelled site
// touched); Watchdog dumps them on timeout, so a starvation hang in CI
// names the site each stuck thread last passed (dump_breadcrumbs_stderr).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "port/cpu.hpp"

// Shared probe gate (see src/obs/counters.hpp and the MSQ_PROBES CMake
// option): when 0, point() is a constexpr no-op and the FaultPlan class
// stays compilable but inert -- Release figure runs pay nothing at all.
#ifndef MSQ_PROBES
#define MSQ_PROBES 1
#endif

namespace msq::fault {

class FaultPlan;

namespace detail {
// share-ok: armed/disarmed a handful of times per test; never contended
inline std::atomic<FaultPlan*> g_active_plan{nullptr};

/// Timed-stall nanoseconds injected into the calling thread so far.
inline std::uint64_t& injected_ns_ref() noexcept {
  thread_local std::uint64_t ns = 0;
  return ns;
}
}  // namespace detail

/// Nanoseconds of kStall sleep this thread has absorbed (monotone).
/// Benchmarks subtract deltas of this from raw op latency to report the
/// EXCESS latency a stall causes beyond the injected sleep itself.
[[nodiscard]] inline std::uint64_t injected_stall_ns() noexcept {
  return detail::injected_ns_ref();
}

// ---------------------------------------------------------------------------
// Breadcrumbs: the last labelled fault site each thread touched while a
// plan was armed.  Unarmed probes do NOT update them (they stay one relaxed
// load) -- the hangs worth diagnosing from CI logs are fault-injection
// tests, which always have a plan armed.
inline constexpr std::uint32_t kBreadcrumbSlots = 64;

struct Breadcrumb {
  // share-ok: slot is owned by one thread (ordinal % kBreadcrumbSlots);
  // collisions just overwrite, which is fine for a diagnostic of record
  std::atomic<const char*> site{nullptr};
  // share-ok: written with the site above, same single-writer argument
  std::atomic<std::uint32_t> tid{0};
};

namespace detail {
inline std::array<Breadcrumb, kBreadcrumbSlots>& breadcrumbs() noexcept {
  static std::array<Breadcrumb, kBreadcrumbSlots> crumbs{};
  return crumbs;
}

inline void leave_breadcrumb(const char* site) noexcept {
  Breadcrumb& b = breadcrumbs()[port::thread_ordinal() % kBreadcrumbSlots];
  // relaxed: diagnostic of record only, read after the fact by the
  // watchdog; no data is published through it
  b.tid.store(port::thread_ordinal(), std::memory_order_relaxed);
  // relaxed: same argument as the tid store above
  b.site.store(site, std::memory_order_relaxed);
}
}  // namespace detail

/// One line per thread that touched an armed fault site: which site it
/// last passed.  Called by Watchdog::run() on timeout so a starvation
/// hang names its suspects.
inline void dump_breadcrumbs_stderr() {
  std::fprintf(stderr, "[fault] last armed site per thread:\n");
  bool any = false;
  for (const Breadcrumb& b : detail::breadcrumbs()) {
    // relaxed: diagnostic read; pairs with the relaxed breadcrumb stores
    const char* site = b.site.load(std::memory_order_relaxed);
    if (site == nullptr) continue;
    any = true;
    std::fprintf(stderr, "[fault]   thread #%u: %s\n",
                 // relaxed: same diagnostic argument
                 b.tid.load(std::memory_order_relaxed), site);
  }
  if (!any) {
    std::fprintf(stderr,
                 "[fault]   (none -- no armed fault site was reached)\n");
  }
}

class FaultPlan {
 public:
  enum class Action : std::uint8_t { kDelay, kStall, kHalt };

  static constexpr std::uint32_t kUnbound = 0xffffffffu;

  struct Rule {
    const char* site;
    Action action;
    std::uint64_t skip;          // ignore the first `skip` hits of the site
    std::uint64_t delay_yields;  // kDelay: how many sched yields per hit
    std::uint32_t max_victims;   // kHalt: how many threads to park, total
    std::uint64_t stall_ns;      // kStall: sleep per hit of the bound victim
    std::uint64_t stall_every;   // kStall: sleep on every Nth victim hit
  };

  FaultPlan() = default;
  ~FaultPlan() {
    disarm();
    release_halted();
    // A well-behaved test joins its threads before the plan dies; waiting
    // here for parked_ to drain would deadlock against a test that already
    // failed, so we only wake everyone and trust join-before-destroy.
  }

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Every hit of `site` after the first `skip` yields `yields` times.
  FaultPlan& delay_at(const char* site, std::uint64_t yields,
                      std::uint64_t skip = 0) {
    rules_.push_back(
        {{site, Action::kDelay, skip, yields, 0, 0, 0}, 0, kUnbound, 0});
    return *this;
  }

  /// The first thread to hit `site` after `skip` earlier hits becomes the
  /// rule's sticky victim; its binding hit and every `every`th victim hit
  /// after it sleeps `stall` -- the repeatedly-descheduled thread of the
  /// tail-latency experiments.  Other threads pass free.
  ///
  /// `every` = 1 (default) sleeps on EVERY victim hit.  Against a site
  /// inside a read-validate-CAS retry loop (ms.E9) that is unbounded
  /// starvation, not a latency experiment: each sleep guarantees a peer
  /// invalidated the read, so the victim re-enters the loop, is stalled
  /// again, and NEVER completes while any peer keeps operating -- real
  /// (lock-free, not wait-free), but the run cannot terminate.  Pass
  /// `every` = 2 to sleep on alternate hits so each victim operation
  /// absorbs ~one stall and still finishes (bench/fig_stall.cpp).
  FaultPlan& stall_at(const char* site, std::chrono::nanoseconds stall,
                      std::uint64_t skip = 0, std::uint64_t every = 1) {
    rules_.push_back({{site, Action::kStall, skip, 0, 0,
                       static_cast<std::uint64_t>(stall.count()),
                       every == 0 ? 1 : every},
                      0,
                      kUnbound,
                      0});
    return *this;
  }

  /// The first `victims` threads to hit `site` (after `skip` earlier hits)
  /// park forever -- crash-stop -- until release_halted().
  FaultPlan& halt_at(const char* site, std::uint64_t skip = 0,
                     std::uint32_t victims = 1) {
    rules_.push_back(
        {{site, Action::kHalt, skip, 0, victims, 0, 0}, 0, kUnbound, 0});
    return *this;
  }

  /// Install as the process-wide active plan.  One plan at a time; the
  /// rule list must not change while armed (that contract is what makes
  /// the hit path below lock-free).
  void arm() noexcept {
    detail::g_active_plan.store(this, std::memory_order_release);
  }
  /// Uninstall (idempotent; only if this plan is the active one).
  void disarm() noexcept {
    FaultPlan* expected = this;
    detail::g_active_plan.compare_exchange_strong(expected, nullptr,
                                                  std::memory_order_acq_rel);
  }

  /// Wake every parked thread and let all future halts pass through.
  void release_halted() {
    {
      std::scoped_lock lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

  /// Total times `site` was reached while this plan was armed.
  [[nodiscard]] std::uint64_t hits(const char* site) const noexcept {
    for (const SiteCounter& c : counters_) {
      // acquire: pairs with the claim CAS in bump(); a claimed slot's name
      // must be visible before its count is attributed
      const char* s = c.site.load(std::memory_order_acquire);
      if (s == nullptr) break;
      // relaxed: monotone count read after the fact by test assertions
      if (std::string_view(s) == site)
        return c.hits.load(std::memory_order_relaxed);
    }
    return 0;
  }

  /// Threads parked at halt sites right now.
  [[nodiscard]] std::uint32_t halted_now() const {
    std::scoped_lock lock(mutex_);
    return parked_;
  }

  /// Block until at least `n` threads are parked (the victim really crashed
  /// before the test starts measuring survivor progress).
  void wait_for_halted(std::uint32_t n) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return parked_ >= n || released_; });
  }

  /// Slow path of fault::point().  noexcept: the queues call it from
  /// noexcept operations; an allocation/lock failure here is fatal anyway.
  /// Lock-free for delay and stall rules; only halt parking locks.
  void on_point(const char* site) noexcept {
    detail::leave_breadcrumb(site);
    const std::uint64_t hit = bump(site);
    std::uint64_t yields = 0;
    std::uint64_t stall_ns = 0;
    bool park = false;
    for (RuleState& rule : rules_) {
      if (std::string_view(rule.site) != site) continue;
      if (hit <= rule.skip) continue;
      switch (rule.action) {
        case Action::kDelay:
          yields += rule.delay_yields;
          break;
        case Action::kStall: {
          // Sticky binding: the first eligible hitter takes the rule for
          // the plan's lifetime; everyone else passes free.
          std::atomic_ref<std::uint32_t> victim(rule.victim);
          std::uint32_t bound = victim.load(std::memory_order_acquire);
          if (bound == kUnbound) {
            std::uint32_t expected = kUnbound;
            victim.compare_exchange_strong(expected, port::thread_ordinal(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire);
            bound = victim.load(std::memory_order_acquire);
          }
          if (bound == port::thread_ordinal()) {
            // Only the bound victim ever touches its hit counter, so the
            // atomic_ref is for formal data-race freedom, not contention.
            std::atomic_ref<std::uint64_t> hits(rule.victim_hits);
            // relaxed: single writer, single reader (this thread)
            const std::uint64_t n =
                hits.fetch_add(1, std::memory_order_relaxed);
            if (n % rule.stall_every == 0) stall_ns += rule.stall_ns;
          }
          break;
        }
        case Action::kHalt: {
          std::scoped_lock lock(mutex_);
          if (!released_ && rule.victims_taken < rule.max_victims) {
            ++rule.victims_taken;
            park = true;
          }
          break;
        }
      }
    }
    if (park) {
      std::unique_lock lock(mutex_);
      ++parked_;
      cv_.notify_all();  // wake wait_for_halted() observers
      cv_.wait(lock, [&] { return released_; });
      --parked_;
    }
    if (stall_ns > 0) {
      // A sleeping victim yields the CPU (essential on a 1-core host: a
      // busy-spin "stall" would starve the very survivors being measured).
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
      detail::injected_ns_ref() += stall_ns;
    }
    for (std::uint64_t i = 0; i < yields; ++i) std::this_thread::yield();
  }

 private:
  struct RuleState : Rule {
    std::uint32_t victims_taken = 0;  // kHalt bookkeeping; guarded by mutex_
    // kStall victim binding; accessed via std::atomic_ref (plain storage
    // keeps RuleState copyable for the builder-time vector)
    std::uint32_t victim = kUnbound;
    // kStall: hits the bound victim has taken (drives `stall_every`);
    // written only by the victim, via std::atomic_ref as above
    std::uint64_t victim_hits = 0;
  };

  /// Lock-free per-site hit counters: a fixed pool of slots claimed by
  /// CAS on first touch.  Sites are compile-time literals, so the scan
  /// compares a handful of interned strings.
  static constexpr std::size_t kMaxSites = 64;
  struct SiteCounter {
    // share-ok: test bookkeeping, deliberately dense; contention on a hit
    // counter costs nothing the tests measure
    std::atomic<const char*> site{nullptr};
    // share-ok: same argument as the site pointer above
    std::atomic<std::uint64_t> hits{0};
  };

  /// Returns the 1-based hit number of this visit of `site`.
  std::uint64_t bump(const char* site) noexcept {
    for (SiteCounter& c : counters_) {
      const char* s = c.site.load(std::memory_order_acquire);
      if (s == nullptr) {
        const char* expected = nullptr;
        if (c.site.compare_exchange_strong(expected, site,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
          s = site;
        } else {
          s = expected;  // somebody claimed it first -- maybe for our site
        }
      }
      if (std::string_view(s) == site)
        // relaxed: monotone ordinal; rule skip windows only need
        // per-site ordering, which FAA on one cell gives by itself
        return c.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    // Slot exhaustion must not fail silently: returning 0 here would make
    // `hit <= rule.skip` true even for skip=0, quietly disabling any rule
    // targeting the overflow site.  This is test-only machinery -- abort
    // loudly instead of corrupting a fault-injection experiment.
    std::fprintf(stderr,
                 "FaultPlan: more than %zu distinct sites hit while armed "
                 "(overflowed at '%s'); raise kMaxSites\n",
                 kMaxSites, site);
    std::abort();
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<RuleState> rules_;
  std::array<SiteCounter, kMaxSites> counters_;
  bool released_ = false;
  std::uint32_t parked_ = 0;
};

/// The instrumentation hook: compiled into the queues at labelled sites.
/// No plan armed (the default, and all benchmarks): one relaxed load.
/// MSQ_PROBES=0: constexpr no-op -- the constexpr-ness doubles as the
/// compile-time proof that the disabled hook contains no atomic load
/// (tests/probes_off_test.cpp).
#if MSQ_PROBES
inline void point(const char* site) noexcept {
  FaultPlan* plan = detail::g_active_plan.load(std::memory_order_acquire);
  if (plan != nullptr) [[unlikely]] {
    plan->on_point(site);
  }
}
#else
constexpr void point(const char* /*site*/) noexcept {}
#endif

}  // namespace msq::fault
