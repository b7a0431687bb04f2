// The model side of the atomics seam (port/atomic.hpp): simulated words
// that a real queue header reaches through port::Atomic / AtomicRef when it
// is compiled with MSQ_MODEL=1.
//
// A model word is the address of one word of the newest sim::Engine's
// memory on this thread (the engine that is live when the queue is built;
// construction writes the initial value raw, at no simulated cost, like
// the coroutine models' constructors).  Each operation on it is one step
// of the fiber process that runs it (Engine::spawn_fiber):
//
//   load -> kRead   store -> kWrite   exchange -> kSwap
//   fetch_add/fetch_sub -> kFaa   fetch_and -> kAnd
//   compare_exchange_weak/strong -> kCas
//
// and AtomicDoubleWord's 16-byte CAS is one kCas2 over its two words.  The
// order is the call's own, or the engine's MoTable override of its site;
// the site name becomes the process label, so a race report names it.  A
// weak compare-exchange never fails spuriously: that would only add
// schedules that repeat an existing one.  A compare-exchange's failure
// order, when the call gives one, is accepted and ignored: a failed CAS
// runs with the success order, which is never weaker, so under the
// happens-before and weak-memory checks the model may be stronger than
// the shipped code at a CAS whose failure order is relaxed.
//
// A 4-byte integer is held zero-extended in its 8-byte word, and its
// fetch_add/fetch_sub wrap at 2^32, so every value a CAS compares is the
// one a std::atomic of that width would hold.
//
// An operation made off every fiber -- the test's own code calling the
// header -- applies raw to the newest engine's memory and takes no step
// (and its MSQ_MUTANT hooks read that engine's mutant).  It may run only before that engine's first step or once every process
// is done or crashed (it asserts otherwise), so a world is set up, and its
// end state checked, by the header's own calls rather than by writing its
// words by hand.
//
// The runtime below is compiled into every build (sim/engine.cpp); only
// the MSQ_MODEL=1 build points port::Atomic at it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>

#include "port/cpu.hpp"
#include "sim/engine.hpp"

namespace msq::sim::model {

/// A memory order labelled with its sim/mo_table.hpp site: what
/// MSQ_MO(site, order) is in the model build.  A bare order converts to an
/// unlabelled one.
struct Site {
  const char* name;
  std::memory_order order;

  constexpr Site(const char* site, std::memory_order o) noexcept
      : name(site), order(o) {}
  // NOLINTNEXTLINE(google-explicit-constructor): bare orders pass through
  constexpr Site(std::memory_order o) noexcept : name(""), order(o) {}
};

// The runtime (sim/engine.cpp).
std::uint32_t fiber_ordinal() noexcept;
void probe(const char* site) noexcept;
/// Is `name` the mutant the running fiber's engine (off every fiber: the
/// newest engine) was configured with?
bool mutant(const char* name) noexcept;
/// Fresh words of the newest engine's memory, holding `initial`.
Addr alloc(std::span<const std::uint64_t> initial);
/// `op` as the running fiber's next step, its order taken from `site`; off
/// every fiber, `op` applied raw to the newest engine's memory.
std::uint64_t access(PendingOp op, const Site& site,
                     std::uint64_t* high = nullptr);

/// An atomic view of one simulated word, holding a 4- or 8-byte integer:
/// the std::atomic operations the seamed headers use.
template <typename T>
class AtomicRef {
  static_assert(std::is_integral_v<T> &&
                    (sizeof(T) == 4 || sizeof(T) == 8),
                "model words hold 4- or 8-byte integers");
  using Bits = std::make_unsigned_t<T>;
  /// kFaa's wrap: the word keeps T's width.
  static constexpr std::uint64_t kMask = Bits(~Bits{0});

 public:
  explicit AtomicRef(Addr addr) noexcept : addr_(addr) {}

  T load(Site s) const { return from(access({OpKind::kRead, addr_}, s)); }
  void store(T v, Site s) const {
    (void)access({OpKind::kWrite, addr_, to(v)}, s);
  }
  T fetch_add(T d, Site s) const { return faa(to(d), s); }
  T fetch_sub(T d, Site s) const { return faa(0 - to(d), s); }
  T fetch_and(T mask, Site s) const {
    return from(access({OpKind::kAnd, addr_, to(mask)}, s));
  }
  T exchange(T v, Site s) const {
    return from(access({OpKind::kSwap, addr_, to(v)}, s));
  }
  bool compare_exchange_strong(
      T& expected, T desired, Site s,
      Site /*failure*/ = std::memory_order_seq_cst) const {
    const std::uint64_t old =
        access({OpKind::kCas, addr_, to(expected), to(desired)}, s);
    if (old == to(expected)) return true;
    expected = from(old);
    return false;
  }
  bool compare_exchange_weak(T& expected, T desired, Site s,
                             Site /*failure*/) const {
    return compare_exchange_strong(expected, desired, s);
  }

  [[nodiscard]] Addr addr() const noexcept { return addr_; }

 protected:
  /// `v` as its word holds it: zero-extended.
  static std::uint64_t to(T v) noexcept {
    return static_cast<std::uint64_t>(static_cast<Bits>(v));
  }

 private:
  static T from(std::uint64_t w) noexcept {
    return static_cast<T>(static_cast<Bits>(w));
  }
  T faa(std::uint64_t delta, Site s) const {
    PendingOp op{OpKind::kFaa, addr_, delta};
    op.wrap = kMask;
    return from(access(op, s));
  }

  Addr addr_;
};

/// A simulated std::atomic<T>: owns one word of the newest engine.
template <typename T>
class Atomic : public AtomicRef<T> {
 public:
  Atomic() : Atomic(T{}) {}
  // NOLINTNEXTLINE(google-explicit-constructor): std::atomic<T>(T) is too
  Atomic(T initial)
      : AtomicRef<T>(alloc(std::array{AtomicRef<T>::to(initial)})) {}
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;
};

}  // namespace msq::sim::model

#if MSQ_MODEL
namespace msq::port {

template <typename T>
using Atomic = sim::model::Atomic<T>;
template <typename T>
using AtomicRef = sim::model::AtomicRef<T>;
using MemoryOrder = sim::model::Site;

}  // namespace msq::port
#endif
