// A1/A5: per-operation microbenchmarks (google-benchmark).
//
// Measures, for every globally-FIFO queue family (queues::FifoFamilies)
// plus two four-shard front ends:
//   * uncontended enqueue/dequeue pair latency (the "one processor" end of
//     Figure 3, where the paper notes the single lock is slightly fastest);
//   * 4-thread pair throughput (contended; where the host has fewer than 4
//     cores this is also the preempted/multiprogrammed regime);
//   * the empty<->nonempty transition (A5): the special case earlier
//     algorithms got wrong, exercised a pair at a time on an empty queue;
//   * a polled handoff: one producer, three pollers on a mostly empty
//     queue, and what their polls cost the producer's enqueue.
// Rows are named BM_<bench>/<family>, so `--benchmark_filter='/msq(/|$)'`
// selects one family's three rows.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "port/cpu.hpp"
#include "queues/queues.hpp"

namespace {

using msq::queues::Family;
using msq::queues::FifoFamilies;
using msq::queues::MsQueue;
using msq::queues::SegmentQueue;
using msq::queues::ShardedQueue;
using msq::queues::SpscRing;
using msq::queues::TreiberStack;

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

// --- contended pair throughput ----------------------------------------------

template <typename Q>
void BM_ContendedPairs(benchmark::State& state) {
  // The loop's start and end are barriers across the threads, so thread 0
  // builds the shared queue before anyone uses it and destroys it after
  // everyone is done.  Destroying it here, not at exit, matters: static
  // destructors run after the thread-local state that MsQueueHp's
  // destructor still scans.
  static std::unique_ptr<Q> queue;
  if (state.thread_index() == 0) queue = std::make_unique<Q>(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    while (!queue->try_enqueue(1)) {
    }
    benchmark::DoNotOptimize(queue->try_dequeue(out));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) queue.reset();
}

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

// --- polled handoff ------------------------------------------------------------

// Thread 0 is the producer: 0.5 us of its own work, then one enqueue, so
// the pollers keep the queue at zero or one item.  Threads 1-3 poll
// try_dequeue without pause until the producer's last enqueue, so every
// enqueue runs against three pollers racing for the item before it.  The
// `enq_ns` counter is the producer's mean try_enqueue time, clock reads
// included; items/s is the producer's rate.
constexpr auto kHandoffWork = std::chrono::nanoseconds(500);

template <typename Q>
void BM_PolledHandoff(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  // Built and reset by thread 0 before the loop's start barrier, destroyed
  // by it after the end barrier (see BM_ContendedPairs).
  static std::unique_ptr<Q> queue;
  // share-ok: written once per run; the pollers only read it
  static std::atomic<bool> produced_all{false};
  if (state.thread_index() == 0) {
    queue = std::make_unique<Q>(1024);
    produced_all.store(false, std::memory_order_release);
  }
  std::uint64_t out = 0;
  if (state.thread_index() == 0) {
    std::int64_t enq_ns = 0;
    benchmark::IterationCount left = state.max_iterations;
    for (auto _ : state) {
      const Clock::time_point ready = Clock::now() + kHandoffWork;
      while (Clock::now() < ready) msq::port::cpu_relax();
      const Clock::time_point start = Clock::now();
      // A full queue (the pollers stalled) makes room at the producer.
      while (!queue->try_enqueue(1)) {
        benchmark::DoNotOptimize(queue->try_dequeue(out));
      }
      enq_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count();
      if (--left == 0) produced_all.store(true, std::memory_order_release);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["enq_ns"] = static_cast<double>(enq_ns) /
                               static_cast<double>(state.iterations());
  } else {
    // The first iteration polls for the whole run; the rest are empty.
    for (auto _ : state) {
      while (!produced_all.load(std::memory_order_acquire)) {
        benchmark::DoNotOptimize(queue->try_dequeue(out));
      }
    }
  }
  if (state.thread_index() == 0) queue.reset();
}

// --- related structures -------------------------------------------------------

void BM_SpscRingPair(benchmark::State& state) {
  SpscRing<std::uint64_t> ring(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_enqueue(1));
    benchmark::DoNotOptimize(ring.try_dequeue(out));
  }
}

void BM_TreiberStackPair(benchmark::State& state) {
  TreiberStack<std::uint64_t> stack(1024);
  std::uint64_t out = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.try_push(1));
    benchmark::DoNotOptimize(stack.try_pop(out));
  }
}

// --- registration -------------------------------------------------------------

// Every FIFO family, plus the sharded front end at four shards: its
// single-thread rows price the ticket (one extra fetch_add per enqueue over
// the inner queue), its contended rows show 4 threads on 4 shards touching
// almost-disjoint lines, and its empty row prices the full sweep and ticket
// double collect behind each empty verdict.
using MicroFamilies = FifoFamilies::plus<
    Family<"shard4_msq", ShardedQueue<MsQueue<std::uint64_t>, 4>>,
    Family<"shard4_segq", ShardedQueue<SegmentQueue<std::uint64_t>, 4>>>;

/// "BM_<bench>/<family>": a filter such as '/msq(/|$)' picks one family.
template <typename F>
std::string row_name(const char* bench) {
  return std::string(bench) + "/" + std::string(F::name);
}

void register_benchmarks() {
  // One pass per benchmark, so each table groups every family together.
  MicroFamilies::for_each([]<typename F>() {
    benchmark::RegisterBenchmark(row_name<F>("BM_UncontendedPair").c_str(),
                                 &BM_UncontendedPair<typename F::type>);
  });
  MicroFamilies::for_each([]<typename F>() {
    benchmark::RegisterBenchmark(row_name<F>("BM_ContendedPairs").c_str(),
                                 &BM_ContendedPairs<typename F::type>)
        ->Threads(4)
        ->UseRealTime();
  });
  MicroFamilies::for_each([]<typename F>() {
    benchmark::RegisterBenchmark(row_name<F>("BM_EmptyTransition").c_str(),
                                 &BM_EmptyTransition<typename F::type>);
  });
  MicroFamilies::for_each([]<typename F>() {
    benchmark::RegisterBenchmark(row_name<F>("BM_PolledHandoff").c_str(),
                                 &BM_PolledHandoff<typename F::type>)
        ->Threads(4)
        ->UseRealTime();
  });
  benchmark::RegisterBenchmark("BM_SpscRingPair", &BM_SpscRingPair);
  benchmark::RegisterBenchmark("BM_TreiberStackPair", &BM_TreiberStackPair);
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
