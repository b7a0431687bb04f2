// Shard-count sweep for the queue-of-queues front end (ISSUE 6,
// EXPERIMENTS.md "Shard-count ablation"): the FAA-segment queue bare vs
// wrapped in ShardedQueue<SegmentQueue, K> for each requested K, on real
// threads 1..max_procs.
//
// Series:
//   segq          bare SegmentQueue (the baseline the sharded front end
//                 must beat at high thread counts)
//   shardK-segq   ShardedQueue<SegmentQueue, K> for each K in --shards
//
// The shard count is a template parameter (the shard array and its hint
// table are sized at compile time), so the sweep supports K in
// {1, 2, 4, 8, 16} and --shards picks a subset.
//
// Flags: the common fig set (fig_common.hpp: --pairs/--max-procs/--seed/
// --pin/--csv/--json) plus
//   --shards K1,K2,...   shard counts to sweep (default 1,2,4)
// --json writes BENCH_fig_sharded.json (schema msq-bench-v1, validated by
// tools/check_bench_json.py).  The counter companion tables surface the
// shard_hit / shard_steal / shard_rehome / empty_rescan rates that
// EXPERIMENTS.md uses to diagnose a mis-sized shard count.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "harness/calibrate.hpp"
#include "harness/driver.hpp"
#include "harness/table.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "queues/queues.hpp"
#include "scenario/stamped_loop.hpp"

namespace msq::bench {
namespace {

using Seg = queues::SegmentQueue<std::uint64_t>;

struct SweepPoint {
  std::uint32_t procs = 0;
  double net_seconds_per_million = 0;
  std::uint64_t ops = 0;
  std::uint64_t empty_dequeues = 0;
  std::uint64_t enqueue_failures = 0;
  std::uint64_t p99_ns = 0;   // item sojourn (submit stamp -> dequeue)
  std::uint64_t p999_ns = 0;  // ^
  obs::Snapshot counters;
};

struct SweepSeries {
  std::string algo;
  std::vector<SweepPoint> points;
};

/// One sweep point on the SHARED stamped pair loop (scenario/
/// stamped_loop.hpp -- the same stamping and sojourn convention as
/// fig_stall and the open-loop scenarios), so this sweep reports tail
/// sojourn next to throughput instead of private re-derivations.
template <typename Q>
scenario::StampedLoopResult run_one(std::uint32_t threads,
                                    const FigConfig& config) {
  scenario::StampedLoopConfig loop;
  loop.threads = threads;
  loop.pairs = config.pairs;
  loop.pin_threads = config.pin;
  loop.think_iters = harness::spin_iters_for_us(6.0);  // paper: ~6us
  Q queue(threads * 4 + 64);
  return scenario::run_stamped_pairs(queue, loop);
}

using RunFn = scenario::StampedLoopResult (*)(std::uint32_t,
                                              const FigConfig&);

/// Map a runtime shard count onto the compile-time instantiations.
RunFn sharded_run_fn(std::uint32_t shards) {
  switch (shards) {
    case 1:
      return &run_one<queues::ShardedQueue<Seg, 1>>;
    case 2:
      return &run_one<queues::ShardedQueue<Seg, 2>>;
    case 4:
      return &run_one<queues::ShardedQueue<Seg, 4>>;
    case 8:
      return &run_one<queues::ShardedQueue<Seg, 8>>;
    case 16:
      return &run_one<queues::ShardedQueue<Seg, 16>>;
    default:
      return nullptr;
  }
}

struct Variant {
  std::string name;
  RunFn run;
};

/// Parse "--shards 1,2,4" out of argv before handing the rest to the
/// common parser; fig_common knows nothing about this flag.
bool extract_shards(int& argc, char** argv, std::vector<std::uint32_t>& out) {
  const char* value = extract_flag(argc, argv, "--shards");
  if (value == nullptr) {
    out = {1, 2, 4};
    return true;
  }
  if (*value == '\0') {
    std::cerr << "--shards needs a comma-separated list (e.g. 1,2,4)\n";
    return false;
  }
  for (const char* p = value; *p != '\0';) {
    char* end = nullptr;
    const unsigned long k = std::strtoul(p, &end, 10);
    if (end == p || sharded_run_fn(static_cast<std::uint32_t>(k)) == nullptr) {
      std::cerr << "--shards: unsupported count in '" << value
                << "' (supported: 1, 2, 4, 8, 16)\n";
      return false;
    }
    out.push_back(static_cast<std::uint32_t>(k));
    p = (*end == ',') ? end + 1 : end;
  }
  return true;
}

/// The counters that tell the sharding story, per operation so shard
/// counts are directly comparable at every thread level.
void print_counter_tables(const FigConfig& config,
                          const std::vector<SweepSeries>& series) {
  const struct {
    obs::Counter counter;
    const char* title;
  } kTables[] = {
      {obs::Counter::kShardHit,
       "home-shard dequeues per operation (locality kept)"},
      {obs::Counter::kShardSteal,
       "cross-shard steals per operation (imbalance being repaired)"},
      {obs::Counter::kShardRehome,
       "producer re-homes per operation (persistently full home shards)"},
      {obs::Counter::kEmptyRescan,
       "empty-verdict rescans per operation (ticket races observed)"},
      {obs::Counter::kCasFail,
       "CAS failures per operation (the contention sharding spreads out)"},
  };
  for (const auto& spec : kTables) {
    harness::SeriesTable table(std::string(spec.title) + "  [real]", "procs");
    std::vector<std::size_t> cols;
    cols.reserve(series.size());
    for (const SweepSeries& s : series) cols.push_back(table.add_series(s.algo));
    const std::size_t rows = series.empty() ? 0 : series.front().points.size();
    for (std::size_t r = 0; r < rows; ++r) {
      table.add_row(series.front().points[r].procs);
      for (std::size_t a = 0; a < series.size(); ++a) {
        const SweepPoint& p = series[a].points[r];
        table.set(cols[a], p.counters.per_op(spec.counter, p.ops));
      }
    }
    if (config.csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  }

  // Tail sojourn from the shared stamped loop: does spreading the
  // contention across shards also flatten the item-latency tail?
  harness::SeriesTable tail(
      "p99.9 item sojourn, ns (submit -> dequeue)  [real]", "procs");
  std::vector<std::size_t> cols;
  cols.reserve(series.size());
  for (const SweepSeries& s : series) cols.push_back(tail.add_series(s.algo));
  const std::size_t rows = series.empty() ? 0 : series.front().points.size();
  for (std::size_t r = 0; r < rows; ++r) {
    tail.add_row(series.front().points[r].procs);
    for (std::size_t a = 0; a < series.size(); ++a) {
      tail.set(cols[a], static_cast<double>(series[a].points[r].p999_ns));
    }
  }
  if (config.csv) {
    tail.print_csv(std::cout);
  } else {
    tail.print(std::cout);
  }
}

void write_json(const FigConfig& config,
                const std::vector<SweepSeries>& all_series) {
  std::ofstream out(config.json_path);
  if (!out) {
    std::cerr << "cannot open " << config.json_path << " for writing\n";
    return;
  }
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema");
  w.value("msq-bench-v1");
  w.key("title");
  w.value(config.title);
  w.key("pairs");
  w.value(config.pairs);
  w.key("max_procs");
  w.value(config.max_procs);
  w.key("procs_per_processor");
  w.value(config.procs_per_processor);
  w.key("seed");
  w.value(config.seed);
  w.key("backoff_max");
  w.value(config.backoff_max);
  w.key("probes_enabled");
  w.value(static_cast<bool>(MSQ_OBS));
  w.key("series");
  w.begin_array();
  for (const SweepSeries& s : all_series) {
    w.begin_object();
    w.key("algo");
    w.value(s.algo);
    w.key("source");
    w.value("real");
    w.key("points");
    w.begin_array();
    for (const SweepPoint& p : s.points) {
      w.begin_object();
      w.key("procs");
      w.value(static_cast<std::uint64_t>(p.procs));
      w.key("net_seconds_per_million_pairs");
      w.value(p.net_seconds_per_million);
      const double net_actual =
          p.net_seconds_per_million * static_cast<double>(config.pairs) / 1e6;
      w.key("throughput_pairs_per_sec");
      w.value(net_actual > 0 ? static_cast<double>(config.pairs) / net_actual
                             : 0.0);
      w.key("ops");
      w.value(p.ops);
      w.key("empty_dequeues");
      w.value(p.empty_dequeues);
      w.key("enqueue_failures");
      w.value(p.enqueue_failures);
      w.key("p99_ns");
      w.value(p.p99_ns);
      w.key("p999_ns");
      w.value(p.p999_ns);
      w.key("counters");
      obs::write_counters_json(w, p.counters, p.ops);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  std::cout << "wrote " << config.json_path << '\n';
}

int run(const FigConfig& config, const std::vector<std::uint32_t>& shards) {
  obs::reset();
  obs::arm();

  std::vector<Variant> variants;
  variants.push_back({"segq", &run_one<Seg>});
  for (const std::uint32_t k : shards) {
    variants.push_back({"shard" + std::to_string(k) + "-segq",
                        sharded_run_fn(k)});
  }

  harness::SeriesTable table(
      config.title + "  [real threads; net seconds per 10^6 pairs]",
      "threads");
  std::vector<std::size_t> cols;
  std::vector<SweepSeries> series(variants.size());
  for (std::size_t a = 0; a < variants.size(); ++a) {
    cols.push_back(table.add_series(variants[a].name));
    series[a].algo = variants[a].name;
  }

  const double scale = 1e6 / static_cast<double>(config.pairs);
  for (std::uint32_t threads = 1; threads <= config.max_procs; ++threads) {
    table.add_row(threads);
    for (std::size_t a = 0; a < variants.size(); ++a) {
      // Discarded warmup: on a busy or frequency-scaling host the first
      // run of each row absorbs cache/scheduler warmup, which otherwise
      // biases the sweep against whichever variant runs first (a shard1
      // control run showed the wrapper "beating" its own inner queue).
      (void)variants[a].run(threads, config);
      const obs::Snapshot before = obs::snapshot();
      const scenario::StampedLoopResult result =
          variants[a].run(threads, config);
      // Net time as before: elapsed minus one processor's "other work"
      // (the stamped loop spins think_iters twice per pair, matching the
      // two-spin iterations other_work_seconds measures).
      const double net_seconds =
          result.elapsed_seconds -
          harness::other_work_seconds(
              harness::spin_iters_for_us(6.0),
              static_cast<double>(config.pairs) /
                  static_cast<double>(threads));
      table.set(cols[a], net_seconds * scale);

      SweepPoint point;
      point.procs = threads;
      point.net_seconds_per_million = net_seconds * scale;
      point.ops = result.enqueues + result.dequeues + result.empty_dequeues +
                  result.enqueue_failures;
      point.empty_dequeues = result.empty_dequeues;
      point.enqueue_failures = result.enqueue_failures;
      point.p99_ns = result.sojourn_ns.percentile(99.0);
      point.p999_ns = result.sojourn_ns.percentile(99.9);
      point.counters = obs::snapshot() - before;
      series[a].points.push_back(point);
    }
  }
  if (config.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  print_counter_tables(config, series);
  if (config.json) write_json(config, series);
  return 0;
}

}  // namespace
}  // namespace msq::bench

int main(int argc, char** argv) {
  std::vector<std::uint32_t> shards;
  if (!msq::bench::extract_shards(argc, argv, shards)) return 1;
  msq::bench::FigConfig config;
  config.title = "shard-count sweep: segment queue behind a sharded front end";
  config.json_path = "BENCH_fig_sharded.json";
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  return msq::bench::run(config, shards);
}
