// A1/A5: per-operation microbenchmarks (google-benchmark).
//
// Measures, for every queue in the library:
//   * uncontended enqueue/dequeue pair latency (the "one processor" end of
//     Figure 3, where the paper notes the single lock is slightly fastest);
//   * multi-threaded pair throughput (contended; on this one-core host this
//     is the preempted/multiprogrammed regime);
//   * the empty<->nonempty transition (A5): the special case earlier
//     algorithms got wrong, exercised a pair at a time on an empty queue.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "queues/queues.hpp"

namespace {

using msq::queues::FunctionShippingQueue;
using msq::queues::MellorCrummeyQueue;
using msq::queues::MsQueue;
using msq::queues::MsQueueDw;
using msq::queues::MsQueueHp;
using msq::queues::PljQueue;
using msq::queues::RingQueue;
using msq::queues::SegmentQueue;
using msq::queues::ShardedQueue;
using msq::queues::SingleLockQueue;
using msq::queues::SpscRing;
using msq::queues::TreiberStack;
using msq::queues::TwoLockQueue;
using msq::queues::ValoisQueue;
using msq::queues::WfQueue;

// --- uncontended pair latency -----------------------------------------------

template <typename Q>
void BM_UncontendedPair(benchmark::State& state) {
  auto queue = std::make_unique<Q>(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue->try_enqueue(1));
    benchmark::DoNotOptimize(queue->try_dequeue(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_UncontendedPair, MsQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, MsQueueDw<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, MsQueueHp<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, TwoLockQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, SingleLockQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, MellorCrummeyQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, RingQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, PljQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, ValoisQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, SegmentQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_UncontendedPair, FunctionShippingQueue<std::uint64_t>);
// Sharded front end: the single-thread numbers price the ticket overhead
// (one extra fetch_add per enqueue over the inner queue alone).
BENCHMARK_TEMPLATE(BM_UncontendedPair,
                   ShardedQueue<MsQueue<std::uint64_t>, 4>);
BENCHMARK_TEMPLATE(BM_UncontendedPair,
                   ShardedQueue<SegmentQueue<std::uint64_t>, 4>);
// Wait-free helping wrapper: the single-thread number prices the
// announcement (16-byte CAS + slot sweep) against the bare MS queue.
BENCHMARK_TEMPLATE(BM_UncontendedPair, WfQueue<std::uint64_t>);

// --- contended pair throughput ----------------------------------------------

template <typename Q>
void BM_ContendedPairs(benchmark::State& state) {
  static std::unique_ptr<Q> queue;
  if (state.thread_index() == 0) queue = std::make_unique<Q>(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    while (!queue->try_enqueue(1)) {
    }
    benchmark::DoNotOptimize(queue->try_dequeue(out));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    // Leave teardown to the next setup / process exit.
  }
}
BENCHMARK_TEMPLATE(BM_ContendedPairs, MsQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, MsQueueDw<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, MsQueueHp<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, TwoLockQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, SingleLockQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, MellorCrummeyQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, RingQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, PljQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, ValoisQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, SegmentQueue<std::uint64_t>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs, FunctionShippingQueue<std::uint64_t>)->Threads(4)->UseRealTime();
// Sharding pays off exactly here: 4 threads spread over 4 shards touch
// almost-disjoint cache lines (ISSUE 6 acceptance comparison vs bare segq).
BENCHMARK_TEMPLATE(BM_ContendedPairs,
                   ShardedQueue<MsQueue<std::uint64_t>, 4>)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPairs,
                   ShardedQueue<SegmentQueue<std::uint64_t>, 4>)->Threads(4)->UseRealTime();
// Contended helping: threads complete each other's announced operations,
// so throughput prices the helping sweeps fig_stall buys latency with.
BENCHMARK_TEMPLATE(BM_ContendedPairs,
                   WfQueue<std::uint64_t>)->Threads(4)->UseRealTime();

// --- A5: empty<->nonempty transition ----------------------------------------

template <typename Q>
void BM_EmptyTransition(benchmark::State& state) {
  auto queue = std::make_unique<Q>(8);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue->try_dequeue(out));  // observe empty
    benchmark::DoNotOptimize(queue->try_enqueue(1));    // empty -> 1
    benchmark::DoNotOptimize(queue->try_dequeue(out));  // 1 -> empty
  }
}
BENCHMARK_TEMPLATE(BM_EmptyTransition, MsQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, TwoLockQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, SingleLockQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, MellorCrummeyQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, RingQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, PljQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, ValoisQueue<std::uint64_t>);
BENCHMARK_TEMPLATE(BM_EmptyTransition, SegmentQueue<std::uint64_t>);
// The sharded empty path is the expensive one (full sweep + ticket double
// collect per empty verdict): keep it visible next to the single queues.
BENCHMARK_TEMPLATE(BM_EmptyTransition, ShardedQueue<MsQueue<std::uint64_t>, 4>);
BENCHMARK_TEMPLATE(BM_EmptyTransition,
                   ShardedQueue<SegmentQueue<std::uint64_t>, 4>);
// The wf empty verdict is a full announce + help sweep ending in a
// phase-guarded kEmpty CAS -- the priciest empty path in the library.
BENCHMARK_TEMPLATE(BM_EmptyTransition, WfQueue<std::uint64_t>);

// --- related structures -------------------------------------------------------

void BM_SpscRingPair(benchmark::State& state) {
  SpscRing<std::uint64_t> ring(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_enqueue(1));
    benchmark::DoNotOptimize(ring.try_dequeue(out));
  }
}
BENCHMARK(BM_SpscRingPair);

void BM_TreiberStackPair(benchmark::State& state) {
  TreiberStack<std::uint64_t> stack(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.try_push(1));
    benchmark::DoNotOptimize(stack.try_pop(out));
  }
}
BENCHMARK(BM_TreiberStackPair);

}  // namespace

BENCHMARK_MAIN();
