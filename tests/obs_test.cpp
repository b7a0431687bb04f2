// Tests for the observability subsystem (src/obs/): counter exactness under
// concurrency, histogram bucketing and merging, the report writers, and the
// harness's per-op latency recording.
//
// Counter state is process-global, so every test that arms the registry
// resets it first and disarms on exit; tests within this binary therefore
// cannot run concurrently with each other (gtest runs them serially --
// that is the default and we rely on it).
#include <barrier>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/driver.hpp"
#include "mem/freelist.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "queues/ms_queue.hpp"
#include "sync/backoff.hpp"

namespace msq::obs {
namespace {

/// RAII arm/disarm so a failing test cannot leave the registry armed.
struct ArmedScope {
  ArmedScope() {
    reset();
    arm();
  }
  ~ArmedScope() {
    disarm();
    reset();
  }
};

TEST(Counters, ConcurrentIncrementsSumExactly) {
  ArmedScope scope;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;

  std::barrier start(kThreads);
  std::vector<std::jthread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        count(Counter::kCasAttempt);
        if (i % 3 == 0) count(Counter::kCasFail);
      }
      count(Counter::kBackoffWait, kPerThread);  // bulk add path
    });
  }
  threads.clear();  // join

  const Snapshot s = snapshot();
  EXPECT_EQ(s[Counter::kCasAttempt], kThreads * kPerThread);
  // i % 3 == 0 for i in [0, kPerThread): ceil(kPerThread / 3) hits.
  EXPECT_EQ(s[Counter::kCasFail], kThreads * ((kPerThread + 2) / 3));
  EXPECT_EQ(s[Counter::kBackoffWait], kThreads * kPerThread);
  EXPECT_EQ(s[Counter::kEnqueue], 0u);
}

TEST(Counters, UnarmedProbesRecordNothing) {
  reset();
  ASSERT_FALSE(armed());
  count(Counter::kEnqueue);
  count(Counter::kCasFail, 17);
  const Snapshot s = snapshot();
  for (const Counter c : kAllCounters) EXPECT_EQ(s[c], 0u) << counter_name(c);
}

TEST(Counters, SnapshotWhileWritingIsMonotone) {
  ArmedScope scope;
  std::atomic<bool> stop{false};
  std::jthread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      count(Counter::kEnqueue);
    }
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = snapshot()[Counter::kEnqueue];
    EXPECT_GE(now, last);  // concurrent snapshots never go backwards
    last = now;
  }
  stop.store(true);
}

TEST(Counters, SnapshotDeltaAndPerOpRates) {
  ArmedScope scope;
  count(Counter::kEnqueue, 100);
  const Snapshot before = snapshot();
  count(Counter::kEnqueue, 50);
  count(Counter::kCasFail, 25);
  const Snapshot delta = snapshot() - before;
  EXPECT_EQ(delta[Counter::kEnqueue], 50u);
  EXPECT_EQ(delta[Counter::kCasFail], 25u);
  EXPECT_DOUBLE_EQ(delta.per_op(Counter::kCasFail, 50), 0.5);
  EXPECT_DOUBLE_EQ(delta.per_op(Counter::kCasFail, 0), 0.0);  // no div-by-0
}

TEST(Counters, SpinTallyPublishesOnceOnCommit) {
  ArmedScope scope;
  SpinTally tally;
  for (int i = 0; i < 10; ++i) tally.bump();
  tally.bump(5);
  EXPECT_EQ(snapshot()[Counter::kLockSpin], 0u);  // nothing published yet
  tally.commit(Counter::kLockSpin);
  EXPECT_EQ(snapshot()[Counter::kLockSpin], 15u);
  tally.commit(Counter::kLockSpin);  // empty tally: no second publish
  EXPECT_EQ(snapshot()[Counter::kLockSpin], 15u);
}

// The paper's layout: every node comes off the shared free list.
TEST(Counters, InstrumentedQueueAttributesOperations) {
  ArmedScope scope;
  queues::MsQueue<std::uint64_t, sync::Backoff, mem::FreeList> queue(8);
  const Snapshot before = snapshot();
  ASSERT_TRUE(queue.try_enqueue(1));
  ASSERT_TRUE(queue.try_enqueue(2));
  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_dequeue(out));
  ASSERT_TRUE(queue.try_dequeue(out));
  ASSERT_FALSE(queue.try_dequeue(out));
  const Snapshot d = snapshot() - before;
  EXPECT_EQ(d[Counter::kEnqueue], 2u);
  EXPECT_EQ(d[Counter::kDequeue], 2u);
  EXPECT_EQ(d[Counter::kDequeueEmpty], 1u);
  // Uncontended: every linearizing CAS succeeds on the first try.
  EXPECT_EQ(d[Counter::kCasAttempt], 4u);
  EXPECT_EQ(d[Counter::kCasFail], 0u);
  EXPECT_EQ(d[Counter::kPoolGet], 2u);
}

// MsQueue's default magazines: constructing the queue refilled this
// thread's magazine with the whole 9-node pool (one batch of up to 16), so
// both enqueues are magazine hits and the shared list is never touched;
// the two freed dummies go back into the magazine, which has room.
TEST(Counters, InstrumentedMagazineQueueAttributesOperations) {
  ArmedScope scope;
  queues::MsQueue<std::uint64_t> queue(8);
  const Snapshot before = snapshot();
  ASSERT_TRUE(queue.try_enqueue(1));
  ASSERT_TRUE(queue.try_enqueue(2));
  std::uint64_t out = 0;
  ASSERT_TRUE(queue.try_dequeue(out));
  ASSERT_TRUE(queue.try_dequeue(out));
  ASSERT_FALSE(queue.try_dequeue(out));
  const Snapshot d = snapshot() - before;
  EXPECT_EQ(d[Counter::kEnqueue], 2u);
  EXPECT_EQ(d[Counter::kDequeue], 2u);
  EXPECT_EQ(d[Counter::kDequeueEmpty], 1u);
  EXPECT_EQ(d[Counter::kCasAttempt], 4u);
  EXPECT_EQ(d[Counter::kCasFail], 0u);
  EXPECT_EQ(d[Counter::kMagHit], 2u);
  EXPECT_EQ(d[Counter::kMagRefill], 0u);
  EXPECT_EQ(d[Counter::kMagFlush], 0u);
  EXPECT_EQ(d[Counter::kPoolGet], 0u);
  EXPECT_EQ(d[Counter::kPoolCasRetry], 0u);
}

TEST(Histogram, ExactBucketsBelowSubCount) {
  for (std::uint64_t v = 0; v < Histogram::kSubCount; ++v) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_EQ(i, static_cast<std::size_t>(v));
    EXPECT_EQ(Histogram::bucket_floor(i), v);
    EXPECT_EQ(Histogram::bucket_ceil(i), v);  // exact region: width 1
  }
}

TEST(Histogram, BucketBoundariesRoundTrip) {
  // floor(i) must itself map back to bucket i, and ceil(i) must too; the
  // value just past ceil(i) must map to a later bucket.  Checked across
  // the full index range, which covers every octave boundary.
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    const std::uint64_t lo = Histogram::bucket_floor(i);
    const std::uint64_t hi = Histogram::bucket_ceil(i);
    ASSERT_LE(lo, hi);
    EXPECT_EQ(Histogram::bucket_index(lo), i);
    EXPECT_EQ(Histogram::bucket_index(hi), i);
    if (hi != ~0ull) {
      EXPECT_GT(Histogram::bucket_index(hi + 1), i);
    }
  }
  // Relative bucket width stays within the designed ~2^-kSubBits bound.
  const std::size_t i = Histogram::bucket_index(1'000'000);
  const double width = static_cast<double>(Histogram::bucket_ceil(i) -
                                           Histogram::bucket_floor(i) + 1);
  EXPECT_LT(width / 1e6, 1.0 / static_cast<double>(Histogram::kSubCount) + 1e-9);
}

TEST(Histogram, KnownDistributionPercentiles) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);  // 1..100, once each
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.percentile(100), 100u);
  // Log-bucketed: percentiles are exact below kSubCount and within one
  // bucket (~6%) above it.
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50.0, 50.0 / 16 + 1);
  EXPECT_NEAR(static_cast<double>(h.percentile(90)), 90.0, 90.0 / 16 + 1);
  EXPECT_EQ(h.percentile(1), 1u);
}

TEST(Histogram, EmptyHistogramIsAllZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
}

TEST(Histogram, MergeMatchesRecordingIntoOne) {
  Histogram a, b, combined;
  for (std::uint64_t v = 0; v < 1000; v += 3) {
    a.record(v);
    combined.record(v);
  }
  for (std::uint64_t v = 500; v < 200'000; v += 7) {
    b.record(v * v % 100'000);
    combined.record(v * v % 100'000);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  for (double p : {10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(a.percentile(p), combined.percentile(p)) << "p" << p;
  }
  for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
    ASSERT_EQ(a.bucket_count_at(i), combined.bucket_count_at(i)) << i;
  }
}

TEST(Histogram, MergedExtremeTailSurvivesManyFastShards) {
  // The fig_stall shape: per-thread shards where ONE thread (the stall
  // victim) contributes a few multi-millisecond sojourns while every other
  // shard holds thousands of sub-microsecond ones.  After the merge the
  // outliers must still be visible exactly where the experiment reads
  // them: p99.9 (when the tail mass is >0.1%), percentile(100), and max().
  constexpr std::uint64_t kFast = 700;        // ~0.7us
  constexpr std::uint64_t kStall = 2'000'000; // ~2ms sojourn
  std::vector<Histogram> shards(8);
  for (std::size_t t = 0; t + 1 < shards.size(); ++t) {
    for (int i = 0; i < 1000; ++i) shards[t].record(kFast + (i % 32));
  }
  // 10 stalled items in 7010 total: ~0.14% of mass, past the p99.9 cut.
  for (int i = 0; i < 10; ++i) shards.back().record(kStall + i);

  Histogram merged;
  for (const Histogram& s : shards) merged.merge(s);

  EXPECT_EQ(merged.count(), 7 * 1000u + 10u);
  // The slow bucket is ~6% wide (log bucketing); the assertion is that the
  // tail READS as milliseconds, not that the bucket edge is exact.
  EXPECT_GE(merged.percentile(99.9), kStall / 2);
  EXPECT_LT(merged.percentile(99.0), kFast * 4);
  // percentile() clamps to the observed max, so the extreme tail never
  // reports a bucket ceiling past a value that actually happened.
  EXPECT_EQ(merged.percentile(100), merged.max());
  EXPECT_EQ(merged.max(), kStall + 9);
  // Merge order must not matter for the tail.
  Histogram reversed;
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    reversed.merge(*it);
  }
  EXPECT_EQ(reversed.percentile(99.9), merged.percentile(99.9));
  EXPECT_EQ(reversed.max(), merged.max());
}

TEST(JsonWriter, StructureAndEscaping) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("name");
  w.value("line\nbreak \"quoted\" back\\slash");
  w.key("list");
  w.begin_array();
  w.value(std::uint64_t{1});
  w.value(2.5);
  w.value(false);
  w.end_array();
  w.key("nan");
  w.value(std::nan(""));
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\"name\":\"line\\nbreak \\\"quoted\\\" back\\\\slash\","
            "\"list\":[1,2.5,false],\"nan\":null}");
}

TEST(Report, CountersTextAndJson) {
  Snapshot s;
  s.totals[static_cast<std::size_t>(Counter::kCasAttempt)] = 1000;
  s.totals[static_cast<std::size_t>(Counter::kCasFail)] = 250;

  std::ostringstream text;
  print_counters(text, s, 500, "test counters");
  EXPECT_NE(text.str().find("cas_fail"), std::string::npos);
  EXPECT_NE(text.str().find("250"), std::string::npos);
  EXPECT_NE(text.str().find("0.5"), std::string::npos);  // per-op rate

  std::ostringstream json;
  JsonWriter w(json);
  write_counters_json(w, s, 500);
  EXPECT_NE(json.str().find("\"cas_fail\":{\"total\":250,\"per_op\":0.5}"),
            std::string::npos)
      << json.str();
}

TEST(Report, HistogramTextAndJson) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 64; ++v) h.record(v);

  std::ostringstream text;
  print_histogram(text, h, "enqueue latency", "ns");
  EXPECT_NE(text.str().find("enqueue latency"), std::string::npos);
  EXPECT_NE(text.str().find("p99"), std::string::npos);

  std::ostringstream json;
  JsonWriter w(json);
  write_histogram_json(w, h);
  EXPECT_NE(json.str().find("\"count\":64"), std::string::npos) << json.str();
  EXPECT_NE(json.str().find("\"max\":64"), std::string::npos) << json.str();
}

TEST(Harness, SojournHistogramMergesEveryThreadsShard) {
  queues::MsQueue<std::uint64_t> queue(64);
  harness::WorkloadConfig config;
  config.threads = 4;
  config.total_pairs = 2'000;
  const harness::WorkloadResult result = harness::run_workload(queue, config);
  // One sojourn sample per dequeued item, from all four threads' shards.
  EXPECT_EQ(result.sojourn_ns.count(), result.dequeues);
  EXPECT_GE(result.dequeues, config.total_pairs);
  EXPECT_GT(result.sojourn_ns.max(), 0u);
  EXPECT_GE(result.sojourn_ns.percentile(99),
            result.sojourn_ns.percentile(50));
}

}  // namespace
}  // namespace msq::obs
