// Tests for the workload harness (driver, calibration, tables).
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>

#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "harness/calibrate.hpp"
#include "harness/driver.hpp"
#include "harness/table.hpp"
#include "queues/ms_queue.hpp"

namespace msq::harness {
namespace {

TEST(Calibrate, SpinRateIsPositiveAndStable) {
  const double rate1 = spin_iters_per_us();
  const double rate2 = spin_iters_per_us();
  EXPECT_GT(rate1, 0.0);
  // Two measurements on the same machine agree within 5x (coarse: we only
  // need the right order of magnitude for the 6us other-work spin).
  EXPECT_LT(rate1 / rate2, 5.0);
  EXPECT_LT(rate2 / rate1, 5.0);
}

TEST(Calibrate, ItersScaleWithMicroseconds) {
  const auto one = spin_iters_for_us(1.0);
  const auto six = spin_iters_for_us(6.0);
  EXPECT_GT(one, 0u);
  EXPECT_NEAR(static_cast<double>(six), 6.0 * static_cast<double>(one),
              static_cast<double>(one));
}

TEST(Driver, RunsPaperLoopAndCountsEverything) {
  for (const bool pin : {false, true}) {
    SCOPED_TRACE(pin ? "pinned" : "unpinned");
    queues::MsQueue<std::uint64_t> queue(64);
    WorkloadConfig config;
    config.threads = 3;
    config.total_pairs = 9'001;  // deliberately not divisible by threads
    config.other_work_iters = 0;
    config.pin_threads = pin;  // pinning may be refused; the loop is the same
    const WorkloadResult result = run_workload(queue, config);
    // Every thread runs until all reach their quota, so at least the
    // requested pairs complete; each pair's dequeue retries until it lands.
    EXPECT_EQ(result.enqueues, result.dequeues);
    EXPECT_GE(result.dequeues, config.total_pairs);
    EXPECT_GT(result.elapsed_seconds, 0.0);
    // No other work to subtract.
    EXPECT_DOUBLE_EQ(result.net_seconds, result.elapsed_seconds);
    EXPECT_EQ(result.sojourn_ns.count(), result.dequeues);  // one per item
    // Every dequeued item left the queue: nothing is stranded afterwards.
    std::uint64_t out = 0;
    std::uint64_t left = 0;
    while (queue.try_dequeue(out)) ++left;
    EXPECT_EQ(left, 0u);
  }
}

TEST(Driver, SingleThreadStopsAtItsQuotaWithoutRetries) {
  // One thread always finds its own item, and nobody else keeps it
  // running past its quota.
  queues::MsQueue<std::uint64_t> queue(64);
  WorkloadConfig config;
  config.threads = 1;
  config.total_pairs = 1'000;
  const WorkloadResult result = run_workload(queue, config);
  EXPECT_EQ(result.enqueues, config.total_pairs);
  EXPECT_EQ(result.dequeues, config.total_pairs);
  EXPECT_EQ(result.empty_dequeues, 0u);
  EXPECT_EQ(result.enqueue_failures, 0u);
  EXPECT_EQ(result.sojourn_ns.count(), config.total_pairs);
}

// Refuses the first try of every enqueue and every dequeue, then forwards
// the retry to a real queue: each pair costs exactly one retry of each
// kind.  Single-threaded use only.
class RefusesFirstTry {
 public:
  using value_type = std::uint64_t;
  bool try_enqueue(value_type value) {
    refuse_enqueue_ = !refuse_enqueue_;
    return !refuse_enqueue_ && inner_.try_enqueue(value);
  }
  bool try_dequeue(value_type& out) {
    refuse_dequeue_ = !refuse_dequeue_;
    return !refuse_dequeue_ && inner_.try_dequeue(out);
  }

 private:
  queues::MsQueue<std::uint64_t> inner_{64};
  bool refuse_enqueue_ = false;
  bool refuse_dequeue_ = false;
};

TEST(Driver, RefusedEnqueuesAndEmptyDequeuesAreRetriedAndCounted) {
  RefusesFirstTry queue;
  WorkloadConfig config;
  config.threads = 1;
  config.total_pairs = 100;
  const WorkloadResult result = run_workload(queue, config);
  EXPECT_EQ(result.enqueues, config.total_pairs);
  EXPECT_EQ(result.dequeues, config.total_pairs);
  EXPECT_EQ(result.enqueue_failures, config.total_pairs);
  EXPECT_EQ(result.empty_dequeues, config.total_pairs);
}

TEST(Driver, FewerPairsThanThreadsStillTerminatesAndDrains) {
  // Quotas of 1,1,1,0: a thread with nothing to do must not hold up the
  // run, and the others must not strand an item.
  queues::MsQueue<std::uint64_t> queue(64);
  WorkloadConfig config;
  config.threads = 4;
  config.total_pairs = 3;
  const WorkloadResult result = run_workload(queue, config);
  EXPECT_EQ(result.enqueues, result.dequeues);
  EXPECT_GE(result.dequeues, config.total_pairs);
  std::uint64_t out = 0;
  EXPECT_FALSE(queue.try_dequeue(out));
}

TEST(Driver, InjectedStallIsAccountedOnlyWithAPlanArmed) {
  if (!MSQ_PROBES) GTEST_SKIP() << "fault sites compiled out";
  fault::Watchdog watchdog(std::chrono::seconds(60), "harness stall run");
  WorkloadConfig config;
  config.threads = 2;
  config.total_pairs = 400;

  {
    queues::MsQueue<std::uint64_t> queue(64);
    EXPECT_EQ(run_workload(queue, config).injected_stall_ns, 0u);
  }

  // Alternate hits, as bench/fig_stall does: a victim that sleeps on every
  // ms.E9 hit loses every link CAS to its running peer and never finishes.
  queues::MsQueue<std::uint64_t> queue(64);
  fault::FaultPlan plan;
  plan.stall_at("ms.E9", std::chrono::microseconds(50), /*skip=*/0,
                /*every=*/2);
  plan.arm();
  const WorkloadResult stalled = run_workload(queue, config);
  plan.disarm();
  EXPECT_GT(stalled.injected_stall_ns, 0u);
  EXPECT_EQ(stalled.enqueues, stalled.dequeues);
}

TEST(Driver, NetSubtractsOtherWork) {
  queues::MsQueue<std::uint64_t> queue(64);
  WorkloadConfig config;
  config.threads = 1;
  config.total_pairs = 5'000;
  config.other_work_iters = spin_iters_for_us(2.0);
  const WorkloadResult result = run_workload(queue, config);
  EXPECT_LT(result.net_seconds, result.elapsed_seconds);
  // For one thread nearly all time IS other work; net must be a small
  // fraction of elapsed.
  EXPECT_LT(result.net_seconds, result.elapsed_seconds * 0.6);
}

TEST(SeriesTable, RendersAlignedTableAndCsv) {
  SeriesTable table("Figure X", "procs");
  const std::size_t ms = table.add_series("MS");
  const std::size_t lock = table.add_series("single");
  table.add_row(1);
  table.set(ms, 1.5);
  table.set(lock, 2.25);
  table.add_row(2);
  table.set(ms, 1.25);  // `single` left missing

  std::ostringstream text;
  table.print(text);
  EXPECT_NE(text.str().find("Figure X"), std::string::npos);
  EXPECT_NE(text.str().find("MS"), std::string::npos);
  EXPECT_NE(text.str().find("1.5000"), std::string::npos);
  EXPECT_NE(text.str().find("-"), std::string::npos);  // missing cell

  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_NE(csv.str().find("procs,MS,single"), std::string::npos);
  EXPECT_NE(csv.str().find("1,1.5,2.25"), std::string::npos);
  EXPECT_NE(csv.str().find("2,1.25,"), std::string::npos);
}

TEST(SeriesTable, SeriesAddedAfterRowsBackfillAsMissing) {
  SeriesTable table("t", "x");
  table.add_row(1);
  const std::size_t late = table.add_series("late");
  table.set(late, 9.0);
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_NE(os.str().find("1,9"), std::string::npos);
}

}  // namespace
}  // namespace msq::harness
