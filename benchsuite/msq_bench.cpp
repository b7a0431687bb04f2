// msq_bench: the repo benchmark.  Four workloads (pairs, deep, split,
// steady) run against the three fast queue families (msq, segq, scq); every
// metric is printed by name with its unit, and every item is checked to be
// delivered exactly once and in per-producer FIFO order.  README.md next to
// this file says why each workload exists and how to compare two commits.
//
//   msq_bench --workload pairs|deep|split|steady [--seed N] [--seconds S]
//             [--trace 0|1] [--out results.json] [--trace-out spans.json]
//   msq_bench --smoke [--self-test] [--benchmark-json BENCHMARK.json]
//   msq_bench --self-test
//
// A run measures `--seconds` in total: 9 reps per family, interleaved
// across families so host drift hits all of them alike, each metric the
// median over its reps.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or
// with --trace 1 the per-layer ones.  Traced runs alternate traced and
// untraced reps; only traced reps time calls, arm the obs counters and
// record spans, so end-to-end numbers never carry tracing cost.
#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <unistd.h>

#include "fault/watchdog.hpp"
#include "harness/driver.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/report.hpp"
#include "port/clock.hpp"
#include "port/cpu.hpp"
#include "queues/ms_queue.hpp"
#include "queues/scq_queue.hpp"
#include "queues/segment_queue.hpp"
#include "scenario/arrival.hpp"

namespace msq::bench {
namespace {

using Item = std::uint64_t;

constexpr std::uint32_t kFamilies = 3;
constexpr std::uint32_t kReps = 9;
constexpr std::uint32_t kSetupRounds = 5;
constexpr std::uint32_t kMaxThreads = 4;
// Producer id of deep's prefill items (workers use 0..kMaxThreads-1).
constexpr std::uint32_t kPrefillProducer = kMaxThreads;
constexpr std::uint32_t kProducerIds = kMaxThreads + 1;
constexpr std::uint32_t kDeepCapacity = 1u << 20;
constexpr std::uint32_t kDeepPrefill = kDeepCapacity - 64;
constexpr double kSteadyRateHz = 150'000;
// Per-item hold in steady: 150 kHz x 4 us over 3 consumers is ~20% busy.
constexpr std::uint64_t kSteadyServiceNs = 4'000;
// The split producer's own work per item.  Without it split is bistable:
// an empty queue's polling consumers slow the lone producer enough to keep
// it empty, while a backlogged one lets it outrun them until it is full,
// and which state a rep lands in is chance.  With it the consumers keep up
// in every state, so split always measures the empty-poll regime.
constexpr std::uint64_t kSplitWorkNs = 500;
constexpr std::uint64_t kSpanSampleMask = 1023;  // 1 item in 1024
constexpr std::size_t kSpansPerWorker = 1u << 14;
constexpr std::size_t kMaxSpans = 1u << 18;

// ---- items ---------------------------------------------------------------
//
// An item is its producer id (top 8 bits) and a per-producer sequence (low
// 56 bits).  In the closed loops the sequence is the steady-clock stamp,
// in ns since the process epoch, taken just before the enqueue; in steady
// it is the arrival's index in the schedule, whose scheduled and actual
// offer times sit in a side table.  Each producer's sequence strictly
// increases, so a value names one item and a consumer can check
// per-producer FIFO order from values alone.

constexpr unsigned kSeqBits = 56;
constexpr Item kSeqMask = (Item{1} << kSeqBits) - 1;

constexpr Item make_item(std::uint32_t producer, std::uint64_t seq) noexcept {
  return (Item{producer} << kSeqBits) | (seq & kSeqMask);
}
constexpr std::uint32_t producer_of(Item v) noexcept {
  return static_cast<std::uint32_t>(v >> kSeqBits);
}
constexpr std::uint64_t seq_of(Item v) noexcept { return v & kSeqMask; }

/// SplitMix64 finaliser: the conservation checksum sums mix(item), so a
/// lost item and a duplicated one cannot cancel out, and span sampling
/// keys on it so producer and consumer agree without sharing state.
constexpr std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr bool sampled(Item v) noexcept {
  return (mix(v) & kSpanSampleMask) == 0;
}

const std::int64_t g_epoch_ns = port::now_ns();
bool g_oversubscribed = false;  // fewer CPUs than benchmark threads

std::uint64_t now_rel() noexcept {
  return static_cast<std::uint64_t>(port::now_ns() - g_epoch_ns);
}

std::uint32_t bench_threads() noexcept {
  return std::clamp(std::thread::hardware_concurrency(), 2u, kMaxThreads);
}

void relax() noexcept {
  port::cpu_relax();
  if (g_oversubscribed) std::this_thread::yield();
}

/// Linear interpolation inside the log bucket that holds quantile `q` of
/// `h`.  obs::Histogram::percentile reports the bucket ceiling, whose
/// 1/16-octave steps would read as run-to-run jumps of up to 6%.
double quantile(const obs::Histogram& h, double q) {
  if (h.count() == 0) return 0;
  const double rank = q * static_cast<double>(h.count());
  double seen = 0;
  for (std::size_t i = 0; i < obs::Histogram::kBucketCount; ++i) {
    const auto c = static_cast<double>(h.bucket_count_at(i));
    if (c == 0) continue;
    if (seen + c >= rank) {
      const double lo = static_cast<double>(
          std::max(obs::Histogram::bucket_floor(i), h.min()));
      const double hi = static_cast<double>(
          std::min(obs::Histogram::bucket_ceil(i), h.max())) + 1;
      return lo + (hi - lo) * std::clamp((rank - seen) / c, 0.0, 1.0);
    }
    seen += c;
  }
  return static_cast<double>(h.max());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0, resident = -1;
  if (!(statm >> size >> resident)) return -1;
  return resident * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

// ---- workloads -----------------------------------------------------------

enum class Shape {
  kPairs,  // closed loop: every thread enqueues, then dequeues
  kSplit,  // closed loop: one thread enqueues, the others dequeue
  kOpen,   // open loop: one paced generator, the rest serve
};

struct Workload {
  const char* name;
  Shape shape;
  std::uint32_t capacity;
  std::uint32_t prefill;
};

constexpr std::array<Workload, 4> kWorkloads = {{
    {"pairs", Shape::kPairs, 1024, 0},
    {"deep", Shape::kPairs, kDeepCapacity, kDeepPrefill},
    {"split", Shape::kSplit, 1u << 16, 0},
    {"steady", Shape::kOpen, 1u << 16, 0},
}};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- one rep ---------------------------------------------------------------

struct Span {
  const char* name;  // item, queues.try_enqueue, queues.try_dequeue, steady.service
  Item item;
  std::uint64_t start_ns;  // since the process epoch
  std::uint64_t end_ns;
  std::uint32_t tid;
};

/// One thread's tallies.  Private to its thread until the join.
struct alignas(port::kCacheLine) Worker {
  std::uint64_t offered = 0, offered_sum = 0;
  std::uint64_t delivered = 0, delivered_sum = 0;
  std::uint64_t order_violations = 0;
  std::uint64_t enq_refused = 0, deq_empty = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t exit_ns = 0;
  std::uint64_t last_stamp = 0;
  std::array<std::uint64_t, kProducerIds> next_seq{};  // per producer
  obs::Histogram sojourn_ns, gen_lag_ns, scheduled_sojourn_ns;
  obs::Histogram enq_ok_ns, enq_refused_ns, deq_ok_ns, deq_empty_ns;
  std::vector<Span> spans;

  /// Stamp for an item due at `due`, strictly above this producer's last.
  std::uint64_t stamp_for(std::uint64_t due) noexcept {
    last_stamp = std::max(due, last_stamp + 1);
    return last_stamp;
  }

  void offer(Item v) noexcept {
    ++offered;
    offered_sum += mix(v);
  }

  /// Conservation tally and per-producer FIFO check of one dequeued item.
  void receive(Item v) noexcept {
    ++delivered;
    delivered_sum += mix(v);
    const std::uint32_t p = producer_of(v);
    const std::uint64_t s = seq_of(v);
    if (p >= kProducerIds) {
      ++order_violations;  // not a value any producer made
      return;
    }
    if (s < next_seq[p]) ++order_violations;
    next_seq[p] = std::max(next_seq[p], s + 1);
  }

  void record_sojourn(std::uint64_t offered_at, std::uint64_t at) noexcept {
    sojourn_ns.record(at > offered_at ? at - offered_at : 0);
  }

  void span(const char* name, Item v, std::uint64_t start, std::uint64_t end,
            std::uint32_t tid) {
    if (spans.size() < spans.capacity()) spans.push_back({name, v, start, end, tid});
  }
};

struct RepResult {
  bool traced = false;
  double elapsed_s = 0;   // measured window
  double outside_s = 0;   // set-up before the window plus teardown after it
  std::uint64_t delivered = 0;  // dequeued by the workers inside the window
  std::uint64_t offered = 0;    // accepted by enqueue, prefill included
  std::uint64_t failed = 0;     // lost + duplicated + out of order
  std::uint64_t enq_refused = 0, deq_empty = 0;
  obs::Histogram sojourn_ns, gen_lag_ns;
  obs::Histogram scheduled_sojourn_ns;  // steady: from the due time
  // Traced reps only.
  obs::Histogram enq_ok_ns, enq_refused_ns, deq_ok_ns, deq_empty_ns;
  obs::Histogram item_self_ns;
  std::uint64_t busy_ns = 0, thread_ns = 0;
  obs::Snapshot counters;
  std::int64_t peak_nodes = 0;
  std::vector<Span> spans;

  [[nodiscard]] double mitems_per_s() const {
    return ratio(static_cast<double>(delivered), elapsed_s) / 1e6;
  }
};

struct RepPlan {
  const Workload* workload;
  std::uint32_t threads;
  std::uint64_t window_ns;
  std::uint64_t schedule_seed;  // steady's arrival draw
};

/// Enqueue `v`, retrying refusals until accepted or `stop` is raised.  The
/// span covers every attempt: the item exists from the first one.
template <bool kTraced, typename Q>
bool enqueue(Q& q, Item v, Worker& me, const std::atomic<bool>& stop,
             std::uint32_t tid) {
  std::uint64_t first = 0;
  for (;;) {
    bool ok = false;
    if constexpr (kTraced) {
      const std::uint64_t t0 = now_rel();
      ok = q.try_enqueue(v);
      const std::uint64_t t1 = now_rel();
      if (first == 0) first = t0;
      me.busy_ns += t1 - t0;
      (ok ? me.enq_ok_ns : me.enq_refused_ns).record(t1 - t0);
      if (ok && sampled(v)) me.span("queues.try_enqueue", v, first, t1, tid);
    } else {
      ok = q.try_enqueue(v);
    }
    if (ok) {
      me.offer(v);
      return true;
    }
    ++me.enq_refused;
    // relaxed: stop carries no data; tallies are read after the join
    if (stop.load(std::memory_order_relaxed)) return false;
    relax();
  }
}

/// One dequeue attempt; on success `at` is when the call returned.
template <bool kTraced, typename Q>
bool dequeue_once(Q& q, Item& out, Worker& me, std::uint64_t& at,
                  std::uint32_t tid) {
  bool ok = false;
  if constexpr (kTraced) {
    const std::uint64_t t0 = now_rel();
    ok = q.try_dequeue(out);
    at = now_rel();
    me.busy_ns += at - t0;
    (ok ? me.deq_ok_ns : me.deq_empty_ns).record(at - t0);
    if (ok && sampled(out)) me.span("queues.try_dequeue", out, t0, at, tid);
  } else {
    ok = q.try_dequeue(out);
    if (ok) at = now_rel();
  }
  if (!ok) ++me.deq_empty;
  return ok;
}

/// An item's self time is its span minus the part its children cover: the
/// wait inside the queue between the enqueue and the dequeue.  Children
/// can overlap (a consumer's poll may start before the enqueue returns),
/// so the covered part is the union of their intervals.
void item_self_times(const std::vector<Span>& spans, obs::Histogram& out) {
  std::unordered_map<Item, std::vector<std::pair<std::uint64_t, std::uint64_t>>> children;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "item") != 0) children[s.item].emplace_back(s.start_ns, s.end_ns);
  }
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "item") != 0) continue;
    auto& parts = children[s.item];
    std::sort(parts.begin(), parts.end());
    std::uint64_t covered = 0, reach = s.start_ns;
    for (const auto& [begin, end] : parts) {
      const std::uint64_t from = std::max(begin, reach);
      const std::uint64_t to = std::min(end, s.end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    out.record(s.end_ns - s.start_ns - covered);
  }
}

template <typename Q, bool kTraced>
RepResult run_rep(const RepPlan& plan) {
  const Workload& w = *plan.workload;
  const std::uint32_t n = plan.threads;
  RepResult r;
  r.traced = kTraced;
  const std::uint64_t setup_start = now_rel();

  scenario::ArrivalSchedule schedule;
  if (w.shape == Shape::kOpen) {
    scenario::ArrivalSpec spec;
    spec.ops = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(kSteadyRateHz *
                                      static_cast<double>(plan.window_ns) * 1e-9));
    spec.base_rate_hz = kSteadyRateHz;
    spec.producers = 1;
    schedule = scenario::generate_arrivals(spec, plan.schedule_seed);
  }

  if constexpr (kTraced) {
    obs::pool_gauge_reset();
    obs::arm();
  }
  auto queue = std::make_unique<Q>(w.capacity);
  std::vector<Worker> workers(n + 1);  // workers[n]: prefill and drain
  Worker& side = workers[n];
  const std::uint64_t prefill_base = now_rel();
  for (std::uint32_t i = 0; i < w.prefill; ++i) {
    const Item v = make_item(kPrefillProducer, side.stamp_for(prefill_base));
    if (!queue->try_enqueue(v)) {
      ++r.failed;  // a queue of this capacity must hold the prefill
      break;
    }
    side.offer(v);
  }
  if constexpr (kTraced) {
    for (std::uint32_t t = 0; t < n; ++t) workers[t].spans.reserve(kSpansPerWorker);
  }

  // steady's side table, indexed by arrival: the generator stores both
  // times before it enqueues the arrival's item, and the consumer loads
  // them after dequeuing it, so the queue's own hand-off orders them.
  const std::size_t arrivals = w.shape == Shape::kOpen ? schedule.per_producer[0].size() : 0;
  const auto due_ns = std::make_unique<std::atomic<std::uint64_t>[]>(arrivals);
  const auto offer_ns = std::make_unique<std::atomic<std::uint64_t>[]>(arrivals);

  // share-ok: start/stop handshake, read once per item at most
  std::atomic<bool> stop{false};
  std::atomic<bool> gen_done{false};  // share-ok: ^
  std::barrier start(static_cast<std::ptrdiff_t>(n) + 1);
  Q& q = *queue;
  // The one producer in split and steady runs on the last CPU.
  const std::uint32_t producer = n - 1;

  auto body = [&](std::uint32_t t) {
    Worker& me = workers[t];
    Item out = 0;
    std::uint64_t at = 0;
    // relaxed (every stop load below): stop carries no data; tallies are
    // read after the join
    switch (w.shape) {
      case Shape::kPairs:
        while (!stop.load(std::memory_order_relaxed)) {
          const Item v = make_item(t, me.stamp_for(now_rel()));
          if (!enqueue<kTraced>(q, v, me, stop, t)) break;
          // The loop keeps an item queued for every thread between its two
          // calls, so this only spins past transient empties -- or, on a
          // queue that lost items, until stop.
          bool got = false;
          while (!(got = dequeue_once<kTraced>(q, out, me, at, t)) &&
                 !stop.load(std::memory_order_relaxed)) {
            relax();
          }
          if (!got) break;
          me.receive(out);
          me.record_sojourn(seq_of(out), at);
          if (kTraced && sampled(out)) me.span("item", out, seq_of(out), at, t);
        }
        break;
      case Shape::kSplit:
        if (t == producer) {
          std::uint64_t ready = now_rel();
          while (!stop.load(std::memory_order_relaxed)) {
            std::uint64_t now = now_rel();
            while (now < ready) {
              port::cpu_relax();
              now = now_rel();
            }
            if (!enqueue<kTraced>(q, make_item(t, me.stamp_for(now)), me, stop, t)) break;
            ready = now_rel() + kSplitWorkNs;
          }
        } else {
          while (!stop.load(std::memory_order_relaxed)) {
            if (dequeue_once<kTraced>(q, out, me, at, t)) {
              me.receive(out);
              me.record_sojourn(seq_of(out), at);
              if (kTraced && sampled(out)) me.span("item", out, seq_of(out), at, t);
            } else {
              relax();
            }
          }
        }
        break;
      case Shape::kOpen:
        if (t == producer) {
          const std::uint64_t base = now_rel();
          for (std::size_t i = 0; i < arrivals; ++i) {
            const std::uint64_t due = base + schedule.per_producer[0][i];
            std::uint64_t now = now_rel();
            while (now < due) {
              relax();
              now = now_rel();
            }
            me.gen_lag_ns.record(now - due);
            due_ns[i].store(due, std::memory_order_relaxed);  // relaxed: see table
            offer_ns[i].store(now, std::memory_order_relaxed);  // relaxed: ^
            enqueue<kTraced>(q, make_item(t, i), me, stop, t);
          }
          gen_done.store(true, std::memory_order_release);
        } else {
          for (;;) {
            // acquire: pairs with the generator's release; an empty
            // dequeue that starts after seeing done means truly drained
            const bool done = gen_done.load(std::memory_order_acquire);
            if (dequeue_once<kTraced>(q, out, me, at, t)) {
              me.receive(out);
              const std::uint64_t i = seq_of(out);
              std::uint64_t due = at;
              if (i < arrivals) {
                due = due_ns[i].load(std::memory_order_relaxed);  // relaxed: see table
                me.record_sojourn(offer_ns[i].load(std::memory_order_relaxed), at);  // relaxed: ^
                me.scheduled_sojourn_ns.record(at > due ? at - due : 0);
              }
              std::uint64_t now = now_rel();
              while (now < at + kSteadyServiceNs) {
                port::cpu_relax();
                now = now_rel();
              }
              if (kTraced && sampled(out)) {
                me.span("steady.service", out, at, now, t);
                me.span("item", out, due, now, t);
              }
            } else if (done) {
              break;
            } else {
              relax();
            }
          }
        }
        break;
    }
    me.exit_ns = now_rel();
  };

  obs::Snapshot before;
  std::uint64_t t0 = 0;
  {
    const fault::Watchdog dog(
        std::chrono::milliseconds(60'000 + 4 * plan.window_ns / 1'000'000),
        std::string("msq_bench rep: ") + w.name);
    std::vector<std::jthread> threads;
    threads.reserve(n);
    for (std::uint32_t t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        harness::pin_current_thread(t);
        start.arrive_and_wait();
        body(t);
      });
    }
    if constexpr (kTraced) before = obs::snapshot();
    start.arrive_and_wait();
    t0 = now_rel();
    if (w.shape != Shape::kOpen) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(plan.window_ns));
      stop.store(true, std::memory_order_relaxed);  // relaxed: see body
    }
    threads.clear();  // join
  }
  std::uint64_t t_end = t0;
  for (std::uint32_t t = 0; t < n; ++t) t_end = std::max(t_end, workers[t].exit_ns);
  if constexpr (kTraced) {
    r.counters = obs::snapshot() - before;
    r.peak_nodes = obs::pool_gauge_hwm();
    obs::disarm();
  }

  // Teardown: drain what is left (deep's prefill, split's backlog) so the
  // conservation check sees every item, then tally.
  const std::uint64_t teardown_start = now_rel();
  Item out = 0;
  while (q.try_dequeue(out)) side.receive(out);
  queue.reset();

  std::uint64_t got = 0, got_sum = 0, offered_sum = 0, order = 0;
  for (std::uint32_t t = 0; t <= n; ++t) {
    const Worker& k = workers[t];
    r.offered += k.offered;
    offered_sum += k.offered_sum;
    got += k.delivered;
    got_sum += k.delivered_sum;
    order += k.order_violations;
    if (t == n) continue;
    r.delivered += k.delivered;
    r.enq_refused += k.enq_refused;
    r.deq_empty += k.deq_empty;
    r.sojourn_ns.merge(k.sojourn_ns);
    r.gen_lag_ns.merge(k.gen_lag_ns);
    r.scheduled_sojourn_ns.merge(k.scheduled_sojourn_ns);
    if constexpr (kTraced) {
      r.enq_ok_ns.merge(k.enq_ok_ns);
      r.enq_refused_ns.merge(k.enq_refused_ns);
      r.deq_ok_ns.merge(k.deq_ok_ns);
      r.deq_empty_ns.merge(k.deq_empty_ns);
      r.busy_ns += k.busy_ns;
      r.thread_ns += k.exit_ns - t0;
      r.spans.insert(r.spans.end(), k.spans.begin(), k.spans.end());
    }
  }
  const std::uint64_t lost_or_duplicated = r.offered > got ? r.offered - got : got - r.offered;
  r.failed += order + lost_or_duplicated +
              (lost_or_duplicated == 0 && offered_sum != got_sum ? 1 : 0);
  if constexpr (kTraced) item_self_times(r.spans, r.item_self_ns);
  r.elapsed_s = static_cast<double>(t_end - t0) * 1e-9;
  r.outside_s =
      static_cast<double>((t0 - setup_start) + (now_rel() - teardown_start)) * 1e-9;
  return r;
}

/// Resident bytes per item of a deep-sized queue: RSS delta over
/// construction and prefill, divided by the items.  Negative on failure.
template <typename Q>
double bytes_per_item_probe() {
  const std::int64_t before = resident_bytes();
  auto q = std::make_unique<Q>(kDeepCapacity);
  for (std::uint32_t i = 0; i < kDeepPrefill; ++i) {
    if (!q->try_enqueue(make_item(kPrefillProducer, i))) return -1;
  }
  const std::int64_t after = resident_bytes();
  if (before < 0 || after < 0) return -1;
  return static_cast<double>(after - before) / kDeepPrefill;
}

// ---- families --------------------------------------------------------------

using RepFn = RepResult (*)(const RepPlan&);

struct Family {
  const char* name;
  std::array<RepFn, 2> rep;  // [untraced, traced]
  double (*probe)();
};

template <typename Q>
constexpr Family make_family(const char* name) {
  return {name, {&run_rep<Q, false>, &run_rep<Q, true>}, &bytes_per_item_probe<Q>};
}

using Families = std::array<Family, kFamilies>;

constexpr Families kFamilyTable = {
    make_family<queues::MsQueue<Item>>("msq"),
    make_family<queues::SegmentQueue<Item>>("segq"),
    make_family<queues::ScqQueue<Item>>("scq"),
};

/// Drops every 1000th enqueue while reporting success: the correctness
/// gate must catch it (--self-test).
template <typename Q>
class LossyQueue {
 public:
  using value_type = typename Q::value_type;
  explicit LossyQueue(std::uint32_t capacity) : inner_(capacity) {}

  bool try_enqueue(value_type v) noexcept {
    // relaxed: a call count; nothing is published through it
    if (calls_.fetch_add(1, std::memory_order_relaxed) % 1000 == 999) return true;
    return inner_.try_enqueue(v);
  }
  bool try_dequeue(value_type& out) noexcept { return inner_.try_dequeue(out); }

 private:
  Q inner_;
  // share-ok: self-test only
  std::atomic<std::uint64_t> calls_{0};
};

// ---- a whole run -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RunSettings {
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::uint32_t reps = kReps;
  std::uint32_t setup_rounds = kSetupRounds;
};

struct TaggedSpan {
  Span span;
  std::uint32_t family;
};

struct RunOutput {
  const Workload* workload = nullptr;
  RunSettings settings;
  std::uint32_t threads = 0;
  double window_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::array<double, kFamilies> bytes_per_item{};
  double setup_s = 0;
  std::array<std::vector<RepResult>, kFamilies> reps;
  std::vector<TaggedSpan> spans;
};

std::string per(const char* metric, const Family& f) {
  return std::string(metric) + "." + f.name;
}

void end_to_end_metrics(RunOutput& o, const Families& fams) {
  for (std::uint32_t f = 0; f < kFamilies; ++f) {
    std::vector<double> mitems, p50, p90;
    for (const RepResult& r : o.reps[f]) {
      mitems.push_back(r.mitems_per_s());
      p50.push_back(quantile(r.sojourn_ns, 0.50) / 1e3);
      p90.push_back(quantile(r.sojourn_ns, 0.90) / 1e3);
    }
    o.metrics.push_back({per("mitems_per_s", fams[f]), median(mitems), "Mitems/s"});
    o.metrics.push_back({per("sojourn_p50_us", fams[f]), median(p50), "us"});
    o.metrics.push_back({per("sojourn_p90_us", fams[f]), median(p90), "us"});
    o.metrics.push_back({per("bytes_per_item", fams[f]), o.bytes_per_item[f], "B/item"});
  }
  o.metrics.push_back({"setup_s", o.setup_s, "s"});
  o.metrics.push_back(
      {"delivered_frac",
       ratio(static_cast<double>(o.attempted - std::min(o.failed, o.attempted)),
             static_cast<double>(o.attempted)),
       "frac"});
}

void per_layer_metrics(RunOutput& o, const Families& fams) {
  obs::Histogram gen_lag;
  for (std::uint32_t f = 0; f < kFamilies; ++f) {
    const Family& fam = fams[f];
    obs::Histogram enq, deq, deq_empty, self;
    obs::Snapshot c;
    double delivered = 0, refused = 0, empties = 0, busy = 0, thread = 0;
    std::vector<double> traced_mitems, plain_mitems, peak;
    for (const RepResult& r : o.reps[f]) {
      gen_lag.merge(r.gen_lag_ns);
      if (!r.traced) {
        plain_mitems.push_back(r.mitems_per_s());
        continue;
      }
      traced_mitems.push_back(r.mitems_per_s());
      enq.merge(r.enq_ok_ns);
      deq.merge(r.deq_ok_ns);
      deq_empty.merge(r.deq_empty_ns);
      self.merge(r.item_self_ns);
      for (std::size_t i = 0; i < obs::kCounterCount; ++i) c.totals[i] += r.counters.totals[i];
      delivered += static_cast<double>(r.delivered);
      refused += static_cast<double>(r.enq_refused);
      empties += static_cast<double>(r.deq_empty);
      busy += static_cast<double>(r.busy_ns);
      thread += static_cast<double>(r.thread_ns);
      peak.push_back(static_cast<double>(r.peak_nodes));
    }
    const auto per_item = [&](obs::Counter k) {
      return ratio(static_cast<double>(c[k]), delivered);
    };
    auto& m = o.metrics;
    m.push_back({per("queues.enq_ns_p50", fam), quantile(enq, 0.50), "ns"});
    m.push_back({per("queues.enq_ns_p99", fam), quantile(enq, 0.99), "ns"});
    m.push_back({per("queues.deq_ns_p50", fam), quantile(deq, 0.50), "ns"});
    m.push_back({per("queues.deq_ns_p99", fam), quantile(deq, 0.99), "ns"});
    m.push_back({per("queues.cas_fail_frac", fam),
                 ratio(static_cast<double>(c[obs::Counter::kCasFail]),
                       static_cast<double>(c[obs::Counter::kCasAttempt])),
                 "frac"});
    m.push_back({per("queues.deq_empty_ns_p50", fam), quantile(deq_empty, 0.50), "ns"});
    m.push_back({per("queues.deq_empty_per_item", fam), ratio(empties, delivered), "1/item"});
    m.push_back({per("queues.enq_refused_per_item", fam), ratio(refused, delivered), "1/item"});
    m.push_back({per("queues.busy_frac", fam), ratio(busy, thread), "frac"});
    m.push_back({per("trace.overhead_frac", fam),
                 plain_mitems.empty() ? 0 : 1 - ratio(median(traced_mitems), median(plain_mitems)),
                 "frac"});
    m.push_back({per("trace.item_self_us_p50", fam), quantile(self, 0.50) / 1e3, "us"});
    const std::string name = fam.name;
    if (name == "msq") {
      m.push_back({"sync.backoff_wait_per_item.msq", per_item(obs::Counter::kBackoffWait), "1/item"});
    }
    if (name == "segq") {
      m.push_back({"queues.seg_close_per_item.segq", per_item(obs::Counter::kSegClose), "1/item"});
      const double hits = static_cast<double>(c[obs::Counter::kMagHit]);
      m.push_back({"mem.mag_hit_frac.segq",
                   ratio(hits, hits + static_cast<double>(c[obs::Counter::kMagRefill])), "frac"});
      m.push_back({"mem.mag_refill_per_item.segq", per_item(obs::Counter::kMagRefill), "1/item"});
      m.push_back({"mem.mag_flush_per_item.segq", per_item(obs::Counter::kMagFlush), "1/item"});
    }
    if (name == "scq") {
      m.push_back({"queues.scq_catchup_per_item.scq", per_item(obs::Counter::kScqCatchup), "1/item"});
      m.push_back({"queues.scq_threshold_reset_per_item.scq",
                   per_item(obs::Counter::kScqThresholdReset), "1/item"});
    } else {
      m.push_back({per("mem.pool_cas_retry_per_item", fam), per_item(obs::Counter::kPoolCasRetry), "1/item"});
      m.push_back({per("mem.peak_nodes", fam), median(peak), "count"});
    }
  }
  o.metrics.push_back({"scenario.gen_lag_p99_us", quantile(gen_lag, 0.99) / 1e3, "us"});
  o.metrics.push_back({"scenario.gen_lag_max_us", static_cast<double>(gen_lag.max()) / 1e3, "us"});
}

RunOutput run_workload(const Workload& w, const RunSettings& s, const Families& fams) {
  RunOutput o;
  o.workload = &w;
  o.settings = s;
  o.threads = bench_threads();
  o.window_s = s.seconds / (kFamilies * s.reps);
  // Set-up: build one deep-sized queue of every family, a few times over.
  // Its median round is setup_s, so work moved into queue construction
  // shows; the RSS each build adds is bytes_per_item.
  std::array<std::vector<double>, kFamilies> bytes;
  std::vector<double> rounds;
  for (std::uint32_t round = 0; round < s.setup_rounds; ++round) {
    const std::uint64_t start = now_rel();
    for (std::uint32_t k = 0; k < kFamilies; ++k) {
      const auto f = static_cast<std::uint32_t>((s.seed + round + k) % kFamilies);
      bytes[f].push_back(fams[f].probe());
      if (bytes[f].back() <= 0) ++o.failed;
    }
    rounds.push_back(static_cast<double>(now_rel() - start) * 1e-9);
  }
  for (std::uint32_t f = 0; f < kFamilies; ++f) o.bytes_per_item[f] = median(bytes[f]);
  o.setup_s = median(rounds);
  const auto window_ns = static_cast<std::uint64_t>(o.window_s * 1e9);
  for (std::uint32_t round = 0; round < s.reps; ++round) {
    // Traced runs alternate traced and untraced rounds; the untraced ones
    // are the base of trace.overhead_frac.
    const bool traced = s.trace && round % 2 == 0;
    const RepPlan plan{&w, o.threads, window_ns, mix(s.seed * kReps + round)};
    for (std::uint32_t k = 0; k < kFamilies; ++k) {
      // The seed rotates which family opens each round.
      const auto f = static_cast<std::uint32_t>((s.seed + round + k) % kFamilies);
      RepResult r = fams[f].rep[traced ? 1 : 0](plan);
      o.attempted += r.offered;
      o.failed += r.failed;
      if (r.delivered == 0 || r.sojourn_ns.count() == 0) o.correct = false;
      for (const Span& span : r.spans) {
        if (o.spans.size() < kMaxSpans) o.spans.push_back({span, f});
      }
      r.spans.clear();
      o.reps[f].push_back(std::move(r));
    }
  }
  o.correct = o.correct && o.failed == 0 && o.attempted > 0;
  if (s.trace) {
    per_layer_metrics(o, fams);
  } else {
    end_to_end_metrics(o, fams);
  }
  return o;
}

// ---- output ----------------------------------------------------------------

void write_metrics(obs::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(m.unit);
    w.end_object();
  }
  w.end_object();
}

/// The contract line: the last line msq_bench prints.
std::string result_line(const RunOutput& o) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("correct");
  w.value(o.correct);
  w.key("attempted");
  w.value(o.attempted);
  w.key("failed");
  w.value(o.failed);
  w.key("metrics");
  write_metrics(w, o.metrics);
  w.end_object();
  return os.str();
}

void write_histogram_summary(obs::JsonWriter& w, const obs::Histogram& h) {
  w.begin_object();
  w.key("samples");
  w.value(h.count());
  w.key("p50_us");
  w.value(quantile(h, 0.50) / 1e3);
  w.key("p90_us");
  w.value(quantile(h, 0.90) / 1e3);
  w.key("p99_us");
  w.value(quantile(h, 0.99) / 1e3);
  w.key("p999_us");
  w.value(quantile(h, 0.999) / 1e3);
  w.key("max_us");
  w.value(static_cast<double>(h.max()) / 1e3);
  w.end_object();
}

/// Full results file: the contract metrics plus per-rep detail and the
/// ungated diagnostics (tail percentiles with their sample counts, lag).
bool write_results(const std::string& path, const RunOutput& o,
                   const Families& fams, double wall_s) {
  std::ofstream out(path);
  if (!out) return false;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema");
  w.value("msq-suite-v1");
  w.key("workload");
  w.value(o.workload->name);
  w.key("seed");
  w.value(o.settings.seed);
  w.key("trace");
  w.value(o.settings.trace);
  w.key("seconds");
  w.value(o.settings.seconds);
  w.key("threads");
  w.value(o.threads);
  w.key("reps");
  w.value(o.settings.reps);
  w.key("window_s");
  w.value(o.window_s);
  w.key("setup_rounds");
  w.value(o.settings.setup_rounds);
  w.key("wall_s");
  w.value(wall_s);
  w.key("correct");
  w.value(o.correct);
  w.key("attempted");
  w.value(o.attempted);
  w.key("failed");
  w.value(o.failed);
  w.key("metrics");
  write_metrics(w, o.metrics);
  w.key("families");
  w.begin_object();
  for (std::uint32_t f = 0; f < kFamilies; ++f) {
    obs::Histogram sojourn, lag, scheduled;
    for (const RepResult& r : o.reps[f]) {
      sojourn.merge(r.sojourn_ns);
      lag.merge(r.gen_lag_ns);
      scheduled.merge(r.scheduled_sojourn_ns);
    }
    w.key(fams[f].name);
    w.begin_object();
    w.key("sojourn_all_reps");
    write_histogram_summary(w, sojourn);
    w.key("gen_lag_all_reps");
    write_histogram_summary(w, lag);
    w.key("scheduled_sojourn_all_reps");
    write_histogram_summary(w, scheduled);
    w.key("reps");
    w.begin_array();
    for (const RepResult& r : o.reps[f]) {
      w.begin_object();
      w.key("traced");
      w.value(r.traced);
      w.key("elapsed_s");
      w.value(r.elapsed_s);
      w.key("outside_s");
      w.value(r.outside_s);
      w.key("delivered");
      w.value(r.delivered);
      w.key("offered");
      w.value(r.offered);
      w.key("failed");
      w.value(r.failed);
      w.key("mitems_per_s");
      w.value(r.mitems_per_s());
      w.key("enq_refused");
      w.value(r.enq_refused);
      w.key("deq_empty");
      w.value(r.deq_empty);
      w.key("sojourn");
      write_histogram_summary(w, r.sojourn_ns);
      w.key("scheduled_sojourn");
      write_histogram_summary(w, r.scheduled_sojourn_ns);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  out << '\n';
  return static_cast<bool>(out);
}

std::string hex(Item v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Sampled spans as Chrome-trace JSON (chrome://tracing, Perfetto): one
/// process per family, one thread per benchmark worker.
bool write_chrome_trace(const std::string& path, const RunOutput& o,
                        const Families& fams) {
  std::ofstream out(path);
  if (!out) return false;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::uint32_t f = 0; f < kFamilies; ++f) {
    w.begin_object();
    w.key("name");
    w.value("process_name");
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(f);
    w.key("args");
    w.begin_object();
    w.key("name");
    w.value(fams[f].name);
    w.end_object();
    w.end_object();
  }
  for (const TaggedSpan& ts : o.spans) {
    const Span& s = ts.span;
    const bool root = std::strcmp(s.name, "item") == 0;
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("cat");
    w.value(o.workload->name);
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(static_cast<double>(s.start_ns) / 1e3);
    w.key("dur");
    w.value(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.key("pid");
    w.value(ts.family);
    w.key("tid");
    w.value(s.tid);
    w.key("args");
    w.begin_object();
    const std::string item = hex(s.item);
    w.key("item");
    w.value(item);
    w.key("id");
    w.value(std::string(s.name) + ":" + item);
    if (!root) {
      w.key("parent");
      w.value("item:" + item);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  return static_cast<bool>(out);
}

// ---- checks (--smoke, --self-test) -----------------------------------------

/// Metric names listed under `section` in BENCHMARK.json.  Its metric
/// arrays hold flat objects only, so every "name" between the section's
/// brackets is one metric.
std::set<std::string> declared_metrics(const std::string& text, const std::string& section) {
  std::set<std::string> names;
  const std::size_t key = text.find('"' + section + '"');
  if (key == std::string::npos) return names;
  const std::size_t open = text.find('[', key);
  const std::size_t close = text.find(']', open);
  for (std::size_t p = text.find("\"name\"", open); p < close;
       p = text.find("\"name\"", p + 1)) {
    const std::size_t q = text.find('"', text.find(':', p));
    const std::size_t e = text.find('"', q + 1);
    names.insert(text.substr(q + 1, e - q - 1));
  }
  return names;
}

bool self_test(const Families& fams) {
  bool ok = true;
  // The per-consumer order check: a repeat and a step back both count.
  Worker consumer;
  for (const std::uint64_t stamp : {10, 20, 20, 15, 30}) consumer.receive(make_item(0, stamp));
  if (consumer.order_violations != 2) {
    std::cerr << "self-test: order check counted " << consumer.order_violations
              << " violations, want 2\n";
    ok = false;
  }
  // The conservation gate: a queue that drops 1 item in 1000 must fail.
  const RepPlan plan{&kWorkloads[0], 2, 50'000'000, 1};
  const RepResult lossy = run_rep<LossyQueue<queues::MsQueue<Item>>, false>(plan);
  const RepResult sound = fams[0].rep[0](plan);
  std::cerr << "self-test: lossy queue failed=" << lossy.failed << " of "
            << lossy.offered << "; msq failed=" << sound.failed << " of "
            << sound.offered << '\n';
  if (lossy.failed == 0 || sound.failed != 0) ok = false;
  std::cout << (ok ? "self-test: PASS" : "self-test: FAIL") << '\n';
  return ok;
}

bool smoke(const Families& fams, const std::string& benchmark_json) {
  std::ifstream in(benchmark_json);
  if (!in) {
    std::cerr << "smoke: cannot read " << benchmark_json << '\n';
    return false;
  }
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  bool ok = true;
  for (const bool trace : {false, true}) {
    const std::set<std::string> want =
        declared_metrics(text, trace ? "per_layer" : "end_to_end");
    for (const Workload& w : kWorkloads) {
      RunSettings s;
      s.trace = trace;
      s.reps = trace ? 2 : 1;  // a traced run needs an untraced round too
      s.setup_rounds = 1;
      s.seconds = 0.05 * kFamilies * s.reps;
      const RunOutput o = run_workload(w, s, fams);
      std::set<std::string> have;
      bool finite = true;
      for (const Metric& m : o.metrics) {
        have.insert(m.name);
        finite = finite && std::isfinite(m.value);
      }
      const bool pass = o.correct && finite && have == want;
      std::cout << "smoke: " << w.name << " trace=" << trace << " metrics="
                << have.size() << "/" << want.size() << " correct=" << o.correct
                << (pass ? " PASS" : " FAIL") << '\n';
      for (const std::string& name : want) {
        if (have.count(name) == 0) std::cerr << "  missing: " << name << '\n';
      }
      for (const std::string& name : have) {
        if (want.count(name) == 0) std::cerr << "  undeclared: " << name << '\n';
      }
      ok = ok && pass;
    }
  }
  return ok;
}

// ---- main ------------------------------------------------------------------

struct Args {
  std::string workload;
  RunSettings settings;
  std::string out;
  std::string trace_out;
  std::string benchmark_json = "BENCHMARK.json";
  bool smoke = false;
  bool self_test = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << flag << " needs a value\n";
      return false;
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.settings.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.settings.seconds = std::strtod(v.c_str(), nullptr);
      if (!(a.settings.seconds > 0)) {
        std::cerr << "--seconds must be positive\n";
        return false;
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        std::cerr << "--trace takes 0 or 1\n";
        return false;
      }
      a.settings.trace = v == "1";
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--benchmark-json") {
      a.benchmark_json = v;
    } else {
      std::cerr << "unknown flag " << flag
                << " (--workload/--seed/--seconds/--trace/--out/--trace-out/"
                   "--smoke/--self-test/--benchmark-json)\n";
      return false;
    }
  }
  return true;
}

int run(const Args& a) {
  const Families& fams = kFamilyTable;
  g_oversubscribed = std::thread::hardware_concurrency() < bench_threads();
  if (a.smoke || a.self_test) {
    bool ok = true;
    if (a.self_test) ok = self_test(fams) && ok;
    if (a.smoke) ok = smoke(fams, a.benchmark_json) && ok;
    return ok ? 0 : 1;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::cerr << "--workload must be one of pairs, deep, split, steady\n";
    return 2;
  }
  const std::int64_t wall_start = port::now_ns();
  const RunOutput o = run_workload(*w, a.settings, fams);
  const double wall_s = port::ns_to_seconds(port::now_ns() - wall_start);
  for (const Metric& m : o.metrics) {
    std::cout << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  }
  std::cerr << "msq_bench: " << w->name << " seed=" << a.settings.seed
            << " threads=" << o.threads << " window=" << o.window_s
            << "s wall=" << wall_s << "s attempted=" << o.attempted
            << " failed=" << o.failed << '\n';
  if (!a.out.empty() && !write_results(a.out, o, fams, wall_s)) {
    std::cerr << "cannot write " << a.out << '\n';
    return 2;
  }
  if (!a.trace_out.empty() && a.settings.trace && !write_chrome_trace(a.trace_out, o, fams)) {
    std::cerr << "cannot write " << a.trace_out << '\n';
    return 2;
  }
  std::cout << result_line(o) << std::endl;
  return o.correct ? 0 : 1;
}

}  // namespace
}  // namespace msq::bench

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Pools above 128 KiB come from mmap and go back to the OS when freed,
  // so each RSS delta sees only the queue under measurement.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  msq::bench::Args args;
  if (!msq::bench::parse_args(argc, argv, args)) return 2;
  return msq::bench::run(args);
}
