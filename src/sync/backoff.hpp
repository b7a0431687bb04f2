// Bounded exponential backoff (paper section 4).
//
// "For the two lock-based algorithms we use test-and-test_and_set locks with
//  bounded exponential backoff.  We also use backoff where appropriate in the
//  non-lock-based algorithms.  Performance was not sensitive to the exact
//  choice of backoff parameters in programs that do at least a modest amount
//  of work between queue operations."
//
// Every contended retry loop in the library (lock acquisition, failed CAS)
// takes a Backoff by value and calls pause() on failure.  The ablation bench
// (bench/ablate_backoff) swaps in NullBackoff to quantify the paper's claim.
#pragma once

#include <cstdint>
#include <optional>

#include "obs/counters.hpp"
#include "port/cpu.hpp"
#include "port/prng.hpp"

namespace msq::sync {

/// Exponential backoff with an upper bound and uniform jitter.
/// Doubles the window on every pause() up to `max_spins`; spins a uniformly
/// random number of cpu_relax() iterations within the current window
/// (randomisation desynchronises competitors, per Anderson [1]).
///
/// The default constructor draws its jitter from the thread's one live
/// stream (the thread's ordinal mixed into kSeed), so competing threads do
/// not pause in lockstep and consecutive backoffs on one thread do not
/// replay the same pauses; the explicit-seed constructor is deterministic.
class Backoff {
 public:
  struct Params {
    std::uint32_t min_spins = 4;
    std::uint32_t max_spins = 1024;
  };

  static constexpr std::uint64_t kSeed = 0xb0ff5eed;

  Backoff() noexcept : params_(), window_(params_.min_spins) {}
  explicit Backoff(Params p, std::uint64_t seed = kSeed) noexcept
      : params_(p), window_(p.min_spins), seeded_(seed) {}

  /// Wait one backoff episode and widen the window.  Returns the number of
  /// cpu_relax() spins waited (callers ignore it; tests read the jitter).
  std::uint64_t pause() noexcept {
    port::Xoshiro256& rng = seeded_ ? *seeded_ : thread_stream();
    const std::uint64_t spins = 1 + rng.below(window_);
    for (std::uint64_t i = 0; i < spins; ++i) port::cpu_relax();
    // One bump per episode, after the wait: the probe never sits inside
    // the spin loop itself (obs probe-naming convention: backoff_wait
    // counts cpu_relax() spins spent backing off, across all callers).
    MSQ_COUNT_N(kBackoffWait, spins);
    if (window_ < params_.max_spins) window_ *= 2;
    return spins;
  }

  /// Forget accumulated contention history (call after success).
  void reset() noexcept { window_ = params_.min_spins; }

  /// Current window (upper bound on the next episode's spin count).
  /// Observable so tests can pin down the doubling/saturation/reset
  /// semantics without timing anything.
  [[nodiscard]] std::uint32_t window() const noexcept { return window_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  /// This thread's generator, seeded on the thread's first pause.  Every
  /// default Backoff on the thread advances it, so constructing one per
  /// queue call costs no seed expansion and no copy.
  static port::Xoshiro256& thread_stream() noexcept {
    thread_local port::Xoshiro256 rng(kSeed ^ port::thread_ordinal());
    return rng;
  }

  Params params_;
  std::uint32_t window_;
  std::optional<port::Xoshiro256> seeded_;  // explicit-seed backoffs only
};

/// Drop-in no-op used by the backoff ablation and by tests that need
/// maximal interleaving pressure.
class NullBackoff {
 public:
  void pause() noexcept { port::cpu_relax(); }
  void reset() noexcept {}
};

}  // namespace msq::sync
