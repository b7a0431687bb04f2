// The paper's benchmark loop (section 4), generalised over queue type.
//
// "All the experiments employ an initially-empty queue to which processes
//  perform a series of enqueue and dequeue operations.  Each process
//  enqueues an item, does 'other work', dequeues an item, does 'other
//  work', and repeats.  With p processes, each process executes this loop
//  floor(10^6/p) or ceil(10^6/p) times, for a total of one million enqueues
//  and dequeues. ... We subtracted the time required for one processor to
//  complete the 'other work' from the total time."
//
// run_workload is the one closed-loop driver every real-thread sweep uses.
// Each enqueued value is the submitting thread's port::now_ns() stamp, and
// the dequeuing thread records (now - stamp): the item's sojourn in (and
// around) the queue.
//
// Run shape: every thread keeps doing pairs until EVERY thread has reached
// its paper quota (floor or ceil of total_pairs / threads).  A fixed
// per-thread quota would let fast threads exit early and leave a stalled
// thread (bench/fig_stall) running helper-less -- silently turning a
// multi-thread point into the lone-thread case.  Threads past their quota
// keep operating and their extra pairs are counted, so enqueues ==
// dequeues >= total_pairs.
//
// A refused enqueue or an empty dequeue yields and retries, and each retry
// is counted.  For a linearizable queue the dequeue never misses for good:
// the dequeuing thread's own enqueue is still in flight, so an item is
// always eventually available.
//
// This is a CLOSED loop -- each thread submits its next pair when the
// previous one returns -- so sojourn here answers "how long do items wait
// when the offered load tracks capacity"; src/scenario/driver.hpp answers
// the open-loop question (docs/ALGORITHMS.md "Open-loop vs closed-loop").
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/histogram.hpp"
#include "obs/probe.hpp"
#include "port/clock.hpp"
#include "port/spin_work.hpp"
#include "queues/queue_concept.hpp"

namespace msq::harness {

struct WorkloadConfig {
  std::uint32_t threads = 2;
  std::uint64_t total_pairs = 1'000'000;  // the paper's 10^6
  std::uint64_t other_work_iters = 0;     // spin between ops (see calibrate)
  /// Pin worker t to CPU (t mod hardware_concurrency).  Dedicated-mode
  /// benches stop migrating between cores mid-run; multiprogrammed runs
  /// (threads > cores) keep it off so the scheduler can do its job.
  bool pin_threads = false;
};

struct WorkloadResult {
  double elapsed_seconds = 0;  // wall time of the parallel phase
  /// Elapsed minus one processor's "other work" for the pairs each thread
  /// actually completed on average (dequeues / threads).
  double net_seconds = 0;
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t empty_dequeues = 0;     // dequeue retries on observed-empty
  std::uint64_t enqueue_failures = 0;   // enqueue retries on refusal
  std::uint64_t injected_stall_ns = 0;  // fault-layer sleep delivered
  obs::Histogram sojourn_ns;  // enqueue stamp -> dequeue, merged shards
};

/// Time for one processor to execute `pairs` iterations of the loop's two
/// "other work" spins (measured, memoised per iteration count).
[[nodiscard]] double other_work_seconds(std::uint64_t iters_per_spin,
                                        double pairs);

/// Pin the calling thread to `cpu` (mod the online CPU count).  Returns
/// false (and leaves affinity untouched) on platforms without
/// pthread_setaffinity_np or when the syscall is refused -- pinning is an
/// optimisation, never a correctness requirement.
bool pin_current_thread(std::uint32_t cpu) noexcept;

/// Open-loop pacing hook (src/scenario): wait until port::now_ns() reaches
/// `deadline_ns`, yielding rather than spinning so a single-core host can
/// run the consumers this thread is pacing against.  Returns the lateness
/// in nanoseconds (0 when the deadline was met; positive when the caller
/// fell behind schedule and the wait was a no-op).  Lateness is what the
/// coordinated-omission-safe drivers record: the op is stamped with the
/// intended deadline, never with the late return time.
std::int64_t await_deadline_ns(std::int64_t deadline_ns) noexcept;

/// Run the paper's loop against `queue`.  The queue must hold std::uint64_t
/// values (the driver enqueues timestamps).  The caller owns fault plans
/// and watchdogs; injected stall time is read per thread through
/// fault::injected_stall_ns() and summed.
template <queues::ConcurrentQueue Q>
WorkloadResult run_workload(Q& queue, const WorkloadConfig& config) {
  const std::uint32_t threads = config.threads;

  struct Shard {
    obs::Histogram sojourn_ns;
    std::uint64_t enq = 0, deq = 0, empty = 0, fail = 0, injected = 0;
  };
  std::vector<Shard> shards(threads);
  std::barrier start_barrier(static_cast<std::ptrdiff_t>(threads) + 1);
  // share-ok: run-termination handshake, touched once per pair
  std::atomic<std::uint32_t> at_quota{0};
  std::atomic<bool> stop{false};  // share-ok: ^

  auto worker = [&](std::uint32_t t) {
    Shard& shard = shards[t];
    // floor or ceil of total/threads so the quotas add up, as in the paper.
    const std::uint64_t quota =
        config.total_pairs / threads +
        (t < config.total_pairs % threads ? 1 : 0);
    std::uint64_t done = 0;
    bool counted = false;
    const std::uint64_t injected_before = fault::injected_stall_ns();
    if (config.pin_threads) pin_current_thread(t);
    start_barrier.arrive_and_wait();
    // relaxed: the stop flag carries no data; pair results are merged
    // only after the join
    while (!stop.load(std::memory_order_relaxed)) {
      // enqueue an item ...
      const std::uint64_t stamp = static_cast<std::uint64_t>(port::now_ns());
      while (!queue.try_enqueue(stamp)) {
        // fault-cover: benchmark-driver backpressure accounting, not an
        // algorithm window; injecting here would measure the driver
        MSQ_PROBE("bench.enq_retry");
        ++shard.fail;
        std::this_thread::yield();  // an oversubscribed host starves spins
      }
      ++shard.enq;
      // ... do "other work" ...
      port::spin_work(config.other_work_iters);
      // ... dequeue an item ...
      std::uint64_t out = 0;
      while (!queue.try_dequeue(out)) {
        // fault-cover: same driver-loop exemption as bench.enq_retry
        MSQ_PROBE("bench.deq_retry");
        ++shard.empty;
        std::this_thread::yield();
      }
      ++shard.deq;
      shard.sojourn_ns.record(static_cast<std::uint64_t>(port::now_ns()) -
                              out);
      // ... do "other work", and repeat.
      port::spin_work(config.other_work_iters);
      if (!counted && ++done >= quota) {
        counted = true;
        // acq_rel: the last thread to reach quota must observe every
        // earlier arrival before declaring the run over
        if (at_quota.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            threads) {
          // relaxed: see the load above
          stop.store(true, std::memory_order_relaxed);
        }
      }
    }
    shard.injected = fault::injected_stall_ns() - injected_before;
  };

  WorkloadResult result;
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back(worker, t);
    }
    start_barrier.arrive_and_wait();
    const std::int64_t t0 = port::now_ns();
    workers.clear();  // join all
    result.elapsed_seconds = port::ns_to_seconds(port::now_ns() - t0);
  }

  for (const Shard& shard : shards) {
    result.sojourn_ns.merge(shard.sojourn_ns);
    result.enqueues += shard.enq;
    result.dequeues += shard.deq;
    result.empty_dequeues += shard.empty;
    result.enqueue_failures += shard.fail;
    result.injected_stall_ns += shard.injected;
  }

  // Subtract one processor's worth of "other work" (paper section 4), for
  // the pairs the threads actually ran.
  result.net_seconds =
      result.elapsed_seconds -
      other_work_seconds(config.other_work_iters,
                         static_cast<double>(result.dequeues) /
                             static_cast<double>(threads));
  return result;
}

}  // namespace msq::harness
