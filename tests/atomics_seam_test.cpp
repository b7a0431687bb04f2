// Proof that the atomics seam (port/atomic.hpp) costs nothing in a normal
// build: every name it adds compiles to the plain C++ one, so a header
// written against it -- queues/scq_queue.hpp, queues/segment_queue.hpp,
// mem/value_cell.hpp, tagged/atomic_tagged.hpp and so mem/freelist.hpp --
// has the code and the layout it had before.  The
// proofs are static_asserts, checked by the compiler; the model build
// (MSQ_MODEL=1) is the only one where they would fail.  The
// instruction-level check is manual: `objdump -d` of bench/micro_ops'
// MsQueue, SegmentQueue, ScqQueue, FreeList and MagazineAllocator
// functions (docs/ALGORITHMS.md, "Checking a real header").
#include <atomic>
#include <cstdint>
#include <type_traits>

#include <gtest/gtest.h>

#include "mem/value_cell.hpp"
#include "port/atomic.hpp"
#include "queues/scq_queue.hpp"
#include "queues/segment_queue.hpp"
#include "tagged/atomic_tagged.hpp"

static_assert(MSQ_MODEL == 0, "this test checks the normal build");

// The cell types are the standard ones, not wrappers around them.
static_assert(std::is_same_v<msq::port::Atomic<std::uint64_t>,
                             std::atomic<std::uint64_t>>);
static_assert(std::is_same_v<msq::port::Atomic<std::int64_t>,
                             std::atomic<std::int64_t>>);
static_assert(std::is_same_v<msq::port::Atomic<std::uint32_t>,
                             std::atomic<std::uint32_t>>);
static_assert(std::is_same_v<msq::port::AtomicRef<std::uint64_t>,
                             std::atomic_ref<std::uint64_t>>);
static_assert(std::is_same_v<msq::port::MemoryOrder, std::memory_order>);

// MSQ_MO is the bare order, a constant expression of type memory_order.
static_assert(std::is_same_v<std::remove_cvref_t<decltype(MSQ_MO(
                                 "scq.enq_cas", std::memory_order_acq_rel))>,
                             std::memory_order>);
static_assert(MSQ_MO("scq.enq_cas", std::memory_order_acq_rel) ==
              std::memory_order_acq_rel);
static_assert(MSQ_MO("scq.credit_load", std::memory_order_acquire) ==
              std::memory_order_acquire);

// MSQ_MUTANT is a constant false: every negative-control branch folds away.
static_assert(!MSQ_MUTANT("scq.no_threshold"));
static_assert([] {
  constexpr bool hooked = MSQ_MUTANT("scq.no_credits");
  return !hooked;
}());

// ScqQueue's size and alignment are the ones it had with std::atomic
// members: five 32-bit geometry words, the threshold bound and the entry
// pointer, then Head, Tail, threshold, the depot and 16 slots on lines of
// their own.
static_assert(sizeof(msq::queues::ScqQueue<std::uint64_t>) == 1344);
static_assert(alignof(msq::queues::ScqQueue<std::uint64_t>) == 64);
static_assert(sizeof(msq::tagged::AtomicDoubleWord<
                     msq::tagged::CountedPtr<int>>) == 16);

// AtomicTagged -- every counted index link: MsQueue's Head, Tail and node
// links, FreeList's top -- is one std::atomic<std::uint64_t>, as before.
struct OneAtomicWord {
  std::atomic<std::uint64_t> bits;  // share-ok: a layout probe, never shared
};
static_assert(sizeof(msq::tagged::AtomicTagged) == 8);
static_assert(std::is_layout_compatible_v<msq::tagged::AtomicTagged,
                                          OneAtomicWord>);

// So is ValueCell, every lock-free queue's payload word.
static_assert(sizeof(msq::mem::ValueCell<std::uint64_t>) == 8);
static_assert(std::is_layout_compatible_v<msq::mem::ValueCell<std::uint64_t>,
                                          OneAtomicWord>);

// A SegmentQueue segment keeps its size (ticket, ticket and link lines,
// then 64 {state, value} slots), so neither RSS nor the pool gauge's
// bytes per item can drift through the seam.
static_assert(msq::queues::SegmentQueue<std::uint64_t>::node_bytes() == 1216);

namespace msq {
namespace {

// The header works as before through the seam.
TEST(AtomicsSeam, ScqQueueRoundTripThroughTheSeam) {
  queues::ScqQueue<std::uint64_t> queue(4);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_enqueue(i));
  EXPECT_FALSE(queue.try_enqueue(99));  // no credit left
  for (std::uint64_t i = 0; i < 4; ++i) {
    std::uint64_t out = ~0ull;
    EXPECT_TRUE(queue.try_dequeue(out));
    EXPECT_EQ(out, i);
  }
  std::uint64_t out = 0;
  EXPECT_FALSE(queue.try_dequeue(out));
}

}  // namespace
}  // namespace msq
