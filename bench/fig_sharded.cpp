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
#include <iostream>
#include <string>
#include <vector>

#include "fig_common.hpp"
#include "obs/counters.hpp"
#include "queues/queues.hpp"

namespace msq::bench {
namespace {

using Seg = queues::SegmentQueue<std::uint64_t>;
using PointFn = SweepPoint (*)(std::uint32_t, const FigConfig&);

/// Map a runtime shard count onto the compile-time instantiations.  Every
/// run is the shared pair loop (harness::run_workload), which stamps each
/// item, so this sweep reports tail sojourn next to throughput.
PointFn sharded_run_fn(std::uint32_t shards) {
  switch (shards) {
    case 1:
      return &run_paired<queues::ShardedQueue<Seg, 1>>;
    case 2:
      return &run_paired<queues::ShardedQueue<Seg, 2>>;
    case 4:
      return &run_paired<queues::ShardedQueue<Seg, 4>>;
    case 8:
      return &run_paired<queues::ShardedQueue<Seg, 8>>;
    case 16:
      return &run_paired<queues::ShardedQueue<Seg, 16>>;
    default:
      return nullptr;
  }
}

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
constexpr CounterTable kTables[] = {
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

int run(const FigConfig& config, const std::vector<std::uint32_t>& shards) {
  obs::reset();
  obs::arm();

  std::vector<Variant> variants = {{"segq", &run_paired<Seg>, {}}};
  for (const std::uint32_t k : shards) {
    variants.push_back(
        {"shard" + std::to_string(k) + "-segq", sharded_run_fn(k), {}});
  }
  const std::vector<SweepSeries> series =
      sweep(config, variants, Source::kReal);
  print_table(config,
              config.title + "  [real threads; net seconds per 10^6 pairs]",
              series, net_time);
  print_per_op_tables(config, series, kTables, "real");
  // Tail sojourn from the shared pair loop: does spreading the
  // contention across shards also flatten the item-latency tail?
  print_table(config, "p99.9 item sojourn, ns (submit -> dequeue)  [real]",
              series, [](const SweepPoint& p) {
                return static_cast<double>(p.p999_ns);
              });
  return config.json && !write_json(config, series) ? 1 : 0;
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
