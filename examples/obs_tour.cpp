// Tour of the observability subsystem (src/obs/): run the MS non-blocking
// queue and the two-lock queue head to head under real contention, then let
// the counters and the item-sojourn histogram tell the paper's section-4
// story in numbers -- the MS queue pays for contention with failed CASes
// (cheap, retried immediately), the two-lock queue pays with lock spinning
// (a whole critical section of waiting), and both are tamed by bounded
// exponential backoff.
//
// Build & run:  cmake --build build --target obs_tour && build/examples/obs_tour
#include <cstdint>
#include <iostream>

#include "harness/driver.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "queues/ms_queue.hpp"
#include "queues/two_lock_queue.hpp"

namespace {

constexpr std::uint32_t kThreads = 4;
constexpr std::uint64_t kPairs = 50'000;

template <typename Q>
void duel_round(const char* name, Q& queue) {
  msq::harness::WorkloadConfig config;
  config.threads = kThreads;
  config.total_pairs = kPairs;

  // Bracket the run with snapshots so only ITS events are attributed.
  const msq::obs::Snapshot before = msq::obs::snapshot();
  const msq::harness::WorkloadResult result =
      msq::harness::run_workload(queue, config);
  const msq::obs::Snapshot delta = msq::obs::snapshot() - before;

  const std::uint64_t ops = result.enqueues + result.dequeues +
                            result.empty_dequeues + result.enqueue_failures;
  // Every thread runs until all reach their share of kPairs, so a few more
  // pairs than requested complete.
  std::cout << "\n=== " << name << ": " << result.dequeues << " pairs on "
            << kThreads << " threads, " << result.elapsed_seconds
            << " s ===\n";
  msq::obs::print_counters(std::cout, delta, ops, name);
  // Every item carries its enqueue stamp; sojourn is stamp -> dequeue,
  // merged from per-thread histograms.
  msq::obs::print_histogram(std::cout, result.sojourn_ns,
                            "item sojourn (enqueue -> dequeue)", "ns");
}

}  // namespace

int main() {
  if (!MSQ_OBS) {
    std::cout << "built with MSQ_PROBES=OFF -- every counter below will be "
                 "zero (the probes compile to nothing).\n";
  }
  msq::obs::arm();

  {
    msq::queues::MsQueue<std::uint64_t> ms(kThreads * 4 + 64);
    duel_round("MS non-blocking queue", ms);
  }
  {
    msq::queues::TwoLockQueue<std::uint64_t> two_lock(kThreads * 4 + 64);
    duel_round("two-lock queue", two_lock);
  }

  std::cout <<
      "\nHow to read the duel: cas_fail/op is the MS queue's contention bill"
      "\n(lost linearization races, each a cheap retry); lock_spin/op and"
      "\nlock_acquire/op are the two-lock queue's (waiting for the holder)."
      "\nbackoff_wait counts the spins both spend backing off.  On a"
      "\nmultiprogrammed host the sojourn p99 shows the real difference:"
      "\na preempted lock holder stretches the two-lock tail, while the"
      "\nnon-blocking queue keeps its tail flat.  See EXPERIMENTS.md,"
      "\n\"Interpreting the counters\".\n";
  return 0;
}
