// Cross-queue memory-footprint family (ISSUE 10, EXPERIMENTS.md A10): the
// quantitative side of the bounded-memory story that motivates the SCQ.
//
// Every queue in the library makes a different memory promise:
//
//   msq     pool-backed free list behind per-thread magazines: nodes
//           outstanding == queue occupancy (+1 dummy) + nodes cached in
//           magazines, at most 16 slots x 32 (the gauge counts a node as
//           outstanding from the batch refill that takes it off the shared
//           list until the flush that returns it).  Bounded by the POOL,
//           not the queue -- a slow consumer lets producers push occupancy
//           (and thus node usage) all the way to pool exhaustion.
//   msq_hp  heap + hazard pointers: no pool, no refusal.  Outstanding
//           nodes = occupancy + the retired-but-unreclaimed limbo
//           population; a slow consumer grows it without bound.
//   segq    the same story at segment granularity (64 slots per node).
//   ring    fixed 2^k slot array allocated at construction; full stop at
//           capacity.  Bounded, but a stalled peer BLOCKS the matching op.
//   scq     one 2n-entry ring of 16-byte {meta, value} entries (32 B
//           per slot) allocated at construction; credits stop it at
//           capacity, and it is lock-free in both directions (the
//           bounded-memory + non-blocking combination the other five each
//           give up half of).
//   valois  reference-counted pool: one delayed reader holding a SafeRead
//           reference pins every subsequently dequeued node (paper
//           section 1 -- "we ran out of memory several times... using a
//           free list initialized with 64,000 nodes"), so bounded
//           OCCUPANCY still exhausts an arbitrarily large pool.
//   wfq     pool-backed like msq, plus wait-free helping; helping bounds
//           STEPS, not memory -- a slow consumer grows occupancy just the
//           same.
//
// Two scenarios per queue, one producer + one consumer each:
//
//   steady  occupancy is credit-capped at --occupancy (default 12, the
//           paper's experiment): measures the resident footprint a
//           well-behaved bounded workload pays per queued element.
//   stall   the consumer is slowed -- via the fault layer's sticky-victim
//           stall sites where the algorithm has a consumer-only window
//           (ms.D12 / segq.faa_deq / scq.deq / wfq.claim), via a plain
//           harness sleep for the two queues without such a site (msq_hp,
//           ring: the slow consumer is the SCENARIO here, not a window
//           inside an operation), and via the paper's delayed SafeRead
//           reader for valois (its exhaustion needs no slow consumer at
//           all -- the credit cap stays ON and the pool still drains).
//           Producers shed on refusal (counted), so the run always
//           terminates.  Measures peak nodes/bytes actually resident.
//
// Peaks come from the obs pool gauge (obs::pool_gauge_hwm -- freelist,
// refcount pool, and msq_hp's heap nodes all feed it; zero-cost and zero
// when probes are off) for the dynamically allocating queues, and from the
// fixed preallocation for ring/scq, whose enqueue path never allocates.
//
// The headline check, asserted by CI over the emitted BENCH_memory.json
// (schema msq-memory-v1, tools/check_bench_json.py): under the stall
// scenario the scq's peak stays at its fixed capacity while the unbounded
// queues' peaks sail past it.
//
// Flags: the common fig set (--pairs/--seed/--csv/--json) plus
//   --occupancy N   steady-state occupancy credit (default 12)
//   --capacity N    pool size for the pool-backed queues (default 64000,
//                   the paper's free-list size)
//   --stall-us D    consumer stall per sticky hit, microseconds
//                   (default 2000; one hit in 128 stalls)
//   --families a,b  run only the named families; --families valois is the
//                   paper's A4 exhaustion run
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "fig_common.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "queues/queues.hpp"
#include "tagged/tagged_index.hpp"

namespace msq::bench {
namespace {

/// One sticky-victim sleep per this many consumer hits: enough pressure to
/// let a free-running producer overtake, small enough that a full drain of
/// the default pool costs ~1s of injected sleep.
constexpr std::uint64_t kStallEvery = 128;

struct MemCfg {
  std::uint64_t items = 0;      // values the producer offers per run
  std::uint32_t occupancy = 0;  // steady-state credit cap
  std::uint32_t capacity = 0;   // pool size for pool-backed queues
  std::uint64_t stall_us = 0;
};

struct MemRun {
  std::string algo;
  std::string scenario;  // "steady" | "stall"
  std::uint64_t capacity_nodes = 0;  // allocation ceiling (0 = plain heap)
  std::uint64_t node_bytes = 0;      // allocation grain (segq: a segment)
  std::uint64_t peak_nodes = 0;      // high-water nodes resident
  std::uint64_t peak_bytes = 0;      // peak_nodes * node_bytes
  double bytes_per_element = 0;      // peak_bytes / occupancy credit
  std::uint64_t ops = 0;
  std::uint64_t enqueue_failures = 0;
  bool memory_bounded = false;  // peak can never exceed capacity_nodes
  obs::Snapshot counters;
};

struct LoopStats {
  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t empty_dequeues = 0;
  std::uint64_t enqueue_failures = 0;
};

/// 1 producer + 1 consumer.  `occupancy_cap` > 0 reserves a credit BEFORE
/// each enqueue (so the gauge never undercounts a momentary overshoot);
/// 0 lets the producer free-run.  The producer sheds on refusal -- no
/// retry -- so a dry pool or full ring never wedges the run.  The
/// consumer's optional harness sleep (`sleep_every` > 0) is the slow-
/// consumer injection for the queues without a consumer-only fault site.
template <typename Q>
LoopStats run_traffic(Q& queue, std::uint64_t items,
                      std::uint32_t occupancy_cap, std::uint64_t sleep_every,
                      std::uint64_t sleep_us) {
  LoopStats stats;
  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<bool> produced_all{false};

  std::thread producer([&] {
    std::uint64_t enq = 0;
    std::uint64_t failures = 0;
    for (std::uint64_t i = 0; i < items; ++i) {
      if (occupancy_cap > 0) {
        // acquire pairs with the consumer's release decrement
        while (in_flight.load(std::memory_order_acquire) >= occupancy_cap) {
          std::this_thread::yield();
        }
        in_flight.fetch_add(1, std::memory_order_acq_rel);
      }
      if (queue.try_enqueue(i)) {
        ++enq;
      } else {
        ++failures;
        if (occupancy_cap > 0) {
          in_flight.fetch_sub(1, std::memory_order_acq_rel);
        }
      }
    }
    stats.enqueues = enq;
    stats.enqueue_failures = failures;
    produced_all.store(true, std::memory_order_release);
  });

  std::thread consumer([&] {
    std::uint64_t out = 0;
    std::uint64_t deq = 0;
    std::uint64_t empty = 0;
    for (;;) {
      if (queue.try_dequeue(out)) {
        ++deq;
        if (occupancy_cap > 0) {
          in_flight.fetch_sub(1, std::memory_order_acq_rel);
        }
        if (sleep_every > 0 && deq % sleep_every == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
        }
        continue;
      }
      ++empty;
      if (produced_all.load(std::memory_order_acquire)) {
        // Every successful enqueue happened-before that release store, so
        // one more miss after observing it certifies the queue is drained.
        if (!queue.try_dequeue(out)) break;
        ++deq;
        if (occupancy_cap > 0) {
          in_flight.fetch_sub(1, std::memory_order_acq_rel);
        }
      } else {
        std::this_thread::yield();
      }
    }
    stats.dequeues = deq;
    stats.empty_dequeues = empty;
  });

  producer.join();
  consumer.join();
  return stats;
}

/// The allocation ceiling the gauge's peak is compared against, in the
/// gauge's own units (nodes for the node pools, segments for segq,
/// slots for the fixed rings; 0 = plain heap, no ceiling).
template <typename Q>
std::uint64_t allocation_ceiling(Q& queue, std::uint32_t cap_request) {
  if constexpr (requires { queue.unsafe_free_segments(); }) {
    // segq: free segments + the already-allocated initial one.
    return queue.unsafe_free_segments() +
           static_cast<std::uint64_t>(
               std::max<std::int64_t>(obs::pool_gauge_current(), 0));
  } else if constexpr (requires { queue.capacity(); }) {
    return queue.capacity();  // ring, scq: the fixed preallocation
  } else if constexpr (requires { queue.pool().capacity(); }) {
    return queue.pool().capacity();  // valois
  } else if constexpr (Q::traits.pool_backed) {
    return cap_request + 1;  // msq, wfq: capacity items + the dummy
  } else {
    return 0;  // msq_hp: heap-allocated, no ceiling to run into
  }
}

enum class StallMode {
  kFaultSite,      // sticky-victim sleep at a consumer-only probe site
  kHarnessSleep,   // plain consumer sleep (no consumer-only site exists)
  kDelayedReader,  // valois: the paper's pinned SafeRead reference
};

template <typename Q>
MemRun run_family(const std::string& algo, bool bounded, StallMode mode,
                  const char* site, bool stall, const MemCfg& mc) {
  MemRun r;
  r.algo = algo;
  r.scenario = stall ? "stall" : "steady";
  r.memory_bounded = bounded;
  r.node_bytes = Q::node_bytes();

  const std::uint32_t cap_request = bounded ? mc.occupancy : mc.capacity;

  // Stalled runs sleep ~items/kStallEvery times; budget generously.
  const auto deadline = std::chrono::milliseconds(
      120'000 + 4 * mc.items * mc.stall_us / (kStallEvery * 1000));
  fault::Watchdog watchdog(deadline, "fig_memory run");

  obs::pool_gauge_reset();  // BEFORE construction: the dummy/initial
                            // segment is part of the footprint
  const obs::Snapshot before = obs::snapshot();

  fault::FaultPlan plan;
  std::uint64_t sleep_every = 0;
  if (stall && mode == StallMode::kFaultSite) {
    plan.stall_at(site, std::chrono::microseconds(mc.stall_us), /*skip=*/0,
                  /*every=*/kStallEvery);
    plan.arm();
  }
  if (stall && mode == StallMode::kHarnessSleep) sleep_every = kStallEvery;

  {
    auto queue = std::make_unique<Q>(cap_request);
    r.capacity_nodes = allocation_ceiling(*queue, cap_request);

    // The delayed-reader scenario keeps the occupancy credit ON: the
    // whole point is that BOUNDED occupancy still exhausts the pool.
    const bool delayed = stall && mode == StallMode::kDelayedReader;
    const std::uint32_t credit =
        (!stall || delayed) ? mc.occupancy : 0;

    std::atomic<bool> stop_reader{false};
    std::thread reader;
    if constexpr (requires { queue->pool().safe_read(queue->head_cell()); }) {
      if (delayed) {
        reader = std::thread([&, q = queue.get()] {
          // Grab a reference, sleep through "an arbitrary number" of other
          // processes' operations, release, repeat (paper section 1).
          while (!stop_reader.load(std::memory_order_acquire)) {
            const std::uint32_t pinned =
                q->pool().safe_read(q->head_cell()).index();
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            if (pinned != tagged::kNullIndex) q->pool().release(pinned);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        });
      }
    }

    const LoopStats s =
        run_traffic(*queue, mc.items, credit, sleep_every, mc.stall_us);

    stop_reader.store(true, std::memory_order_release);
    if (reader.joinable()) reader.join();
    plan.disarm();

    r.enqueue_failures = s.enqueue_failures;
    r.ops = s.enqueues + s.dequeues + s.empty_dequeues + s.enqueue_failures;
    // ring/scq never allocate after construction: their peak IS the fixed
    // preallocation.  Everyone else reports the gauge's high-water mark.
    r.peak_nodes =
        bounded ? r.capacity_nodes
                : static_cast<std::uint64_t>(
                      std::max<std::int64_t>(obs::pool_gauge_hwm(), 0));
  }

  r.peak_bytes = r.peak_nodes * r.node_bytes;
  r.bytes_per_element =
      mc.occupancy > 0
          ? static_cast<double>(r.peak_bytes) / mc.occupancy
          : 0.0;
  r.counters = obs::snapshot() - before;
  return r;
}

using RunFn = MemRun (*)(const std::string&, bool, StallMode, const char*,
                         bool, const MemCfg&);

struct Family {
  std::string name;
  bool bounded;
  StallMode mode;
  const char* site;  // StallMode::kFaultSite only
  RunFn run;
};

std::vector<Family> make_families() {
  using std::uint64_t;
  return {
      {"msq", false, StallMode::kFaultSite, "ms.D12",
       &run_family<queues::MsQueue<uint64_t>>},
      {"msq_hp", false, StallMode::kHarnessSleep, nullptr,
       &run_family<queues::MsQueueHp<uint64_t>>},
      {"segq", false, StallMode::kFaultSite, "segq.faa_deq",
       &run_family<queues::SegmentQueue<uint64_t>>},
      {"ring", true, StallMode::kHarnessSleep, nullptr,
       &run_family<queues::RingQueue<uint64_t>>},
      {"scq", true, StallMode::kFaultSite, "scq.deq",
       &run_family<queues::ScqQueue<uint64_t>>},
      {"valois", false, StallMode::kDelayedReader, nullptr,
       &run_family<queues::ValoisQueue<uint64_t>>},
      {"wfq", false, StallMode::kFaultSite, "wfq.claim",
       &run_family<queues::WfQueue<uint64_t>>},
  };
}

/// Parse "--<flag> N" out of argv; leaves `out` alone when the flag is
/// absent.
bool extract_u64(int& argc, char** argv, const char* flag,
                 std::uint64_t& out) {
  const char* value = extract_flag(argc, argv, flag);
  if (value == nullptr) return true;
  if (*value == '\0') {
    std::cerr << flag << " needs a number\n";
    return false;
  }
  if (!parse_u64(value, out)) {
    std::cerr << flag << ": bad number '" << value << "'\n";
    return false;
  }
  return true;
}

void print_table(const std::vector<MemRun>& runs, bool csv) {
  if (csv) {
    std::cout << "algo,scenario,capacity_nodes,node_bytes,peak_nodes,"
                 "peak_bytes,bytes_per_element,enqueue_failures,bounded\n";
    for (const MemRun& r : runs) {
      std::cout << r.algo << ',' << r.scenario << ',' << r.capacity_nodes
                << ',' << r.node_bytes << ',' << r.peak_nodes << ','
                << r.peak_bytes << ',' << r.bytes_per_element << ','
                << r.enqueue_failures << ',' << (r.memory_bounded ? 1 : 0)
                << '\n';
    }
    return;
  }
  std::cout << "\npeak resident memory (nodes = the queue's allocation "
               "grain; segq counts segments)\n";
  std::cout << std::left << std::setw(8) << "algo" << std::setw(8)
            << "scen" << std::right << std::setw(10) << "cap_nodes"
            << std::setw(8) << "node_B" << std::setw(11) << "peak_nodes"
            << std::setw(12) << "peak_bytes" << std::setw(10) << "B/elem"
            << std::setw(11) << "enq_fail" << std::setw(9) << "bounded"
            << '\n';
  for (const MemRun& r : runs) {
    std::cout << std::left << std::setw(8) << r.algo << std::setw(8)
              << r.scenario << std::right << std::setw(10)
              << r.capacity_nodes << std::setw(8) << r.node_bytes
              << std::setw(11) << r.peak_nodes << std::setw(12)
              << r.peak_bytes << std::setw(10) << std::fixed
              << std::setprecision(1) << r.bytes_per_element << std::setw(11)
              << r.enqueue_failures << std::setw(9)
              << (r.memory_bounded ? "yes" : "no") << '\n';
  }
}

bool write_json(const FigConfig& config, const MemCfg& mc,
                const std::vector<MemRun>& runs) {
  std::ofstream out(config.json_path);
  if (!out) {
    std::cerr << "cannot open " << config.json_path << " for writing\n";
    return false;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema");
  w.value("msq-memory-v1");
  w.key("title");
  w.value(config.title);
  w.key("pairs");
  w.value(mc.items);
  w.key("occupancy");
  w.value(static_cast<std::uint64_t>(mc.occupancy));
  w.key("capacity");
  w.value(static_cast<std::uint64_t>(mc.capacity));
  w.key("stall_us");
  w.value(mc.stall_us);
  w.key("seed");
  w.value(config.seed);
  w.key("probes_enabled");
  w.value(static_cast<bool>(MSQ_OBS));
  w.key("runs");
  w.begin_array();
  for (const MemRun& r : runs) {
    w.begin_object();
    w.key("algo");
    w.value(r.algo);
    w.key("scenario");
    w.value(r.scenario);
    w.key("capacity_nodes");
    w.value(r.capacity_nodes);
    w.key("node_bytes");
    w.value(r.node_bytes);
    w.key("peak_nodes");
    w.value(r.peak_nodes);
    w.key("peak_bytes");
    w.value(r.peak_bytes);
    w.key("bytes_per_element");
    w.value(r.bytes_per_element);
    w.key("ops");
    w.value(r.ops);
    w.key("enqueue_failures");
    w.value(r.enqueue_failures);
    w.key("memory_bounded");
    w.value(r.memory_bounded);
    w.key("counters");
    obs::write_counters_json(w, r.counters, r.ops);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return finish_json_file(out, config.json_path);
}

int run(const FigConfig& config, const MemCfg& mc,
        const std::vector<Family>& families) {
  obs::reset();
  obs::arm();
#if !MSQ_PROBES
  std::cerr << "fig_memory: built with MSQ_PROBES=0 -- the pool gauge and "
               "fault sites are compiled out; peaks for the pool-backed "
               "queues degenerate to 0\n";
#endif

  std::vector<MemRun> runs;
  runs.reserve(families.size() * 2);
  for (const Family& f : families) {
    for (const bool stall : {false, true}) {
      // Progress to stderr BEFORE each run: a watchdog abort then names
      // the run it fired in.
      std::cerr << "[fig_memory] " << f.name << ' '
                << (stall ? "stall" : "steady") << '\n';
      runs.push_back(f.run(f.name, f.bounded, f.mode, f.site, stall, mc));
    }
  }
  print_table(runs, config.csv);
  return config.json && !write_json(config, mc, runs) ? 1 : 0;
}

}  // namespace
}  // namespace msq::bench

int main(int argc, char** argv) {
  std::vector<msq::bench::Family> families = msq::bench::make_families();
  std::uint64_t occupancy = 12;    // the paper's experiment
  std::uint64_t capacity = 64'000;  // the paper's free-list size
  std::uint64_t stall_us = 2'000;
  if (!msq::bench::select_by_name(
          "--families",
          msq::bench::extract_flag(argc, argv, "--families"), families)) {
    return 1;
  }
  if (!msq::bench::extract_u64(argc, argv, "--occupancy", occupancy))
    return 1;
  if (!msq::bench::extract_u64(argc, argv, "--capacity", capacity)) return 1;
  if (!msq::bench::extract_u64(argc, argv, "--stall-us", stall_us)) return 1;
  msq::bench::FigConfig config;
  config.title = "peak resident memory by queue family";
  config.json_path = "BENCH_memory.json";
  config.pairs = 200'000;  // items per run; --pairs overrides
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  if (occupancy == 0 || capacity == 0 || occupancy > capacity) {
    std::cerr << "need 0 < --occupancy <= --capacity\n";
    return 1;
  }
  msq::bench::MemCfg mc;
  mc.items = config.pairs;
  mc.occupancy = static_cast<std::uint32_t>(occupancy);
  mc.capacity = static_cast<std::uint32_t>(capacity);
  mc.stall_us = stall_us;
  return msq::bench::run(config, mc, families);
}
