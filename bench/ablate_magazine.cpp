// Magazine ablation (EXPERIMENTS.md): the same queue algorithms with the
// per-thread magazine layer on vs off, on real threads.
//
// The magazine layer (src/mem/magazine.hpp) batches free-list traffic:
// allocations are served from a thread-cached stack of node indices and the
// shared Treiber top is touched once per ~kCap/2 operations instead of once
// per operation.  The claim under test is that this removes free-list CAS
// retries (obs counter pool_cas_retry) and with them the coherence traffic
// that makes the 1996 free list a second contention hotspot next to the
// queue itself.
//
// Series (all real threads; sweep 1..max_procs):
//   msq        MsQueue + shared FreeList            (the paper's layout)
//   msq+mag    MsQueue + MagazineAllocator<_, 32>   (MsQueue's default)
//   segq-nomag SegmentQueue + shared FreeList
//   segq       SegmentQueue + its default magazines
//
// Flags are the common fig set (fig_common.hpp): --pairs/--max-procs/
// --seed/--pin/--csv/--json.  --json writes BENCH_ablate_magazine.json
// (schema msq-bench-v1, validated by tools/check_bench_json.py).
#include <cstdint>
#include <vector>

#include "fig_common.hpp"
#include "mem/freelist.hpp"
#include "obs/counters.hpp"
#include "queues/queues.hpp"
#include "sync/backoff.hpp"

namespace msq::bench {
namespace {

using MsqPlain = queues::MsQueue<std::uint64_t, sync::Backoff, mem::FreeList>;
using MsqMag = queues::MsQueue<std::uint64_t>;
using SegPlain = queues::SegmentQueue<std::uint64_t, mem::FreeList>;
using SegMag = queues::SegmentQueue<std::uint64_t>;

const Variant kVariants[] = {
    {"msq", &run_paired<MsqPlain>, {}},
    {"msq+mag", &run_paired<MsqMag>, {}},
    {"segq-nomag", &run_paired<SegPlain>, {}},
    {"segq", &run_paired<SegMag>, {}},
};

/// The counters that tell the ablation story, printed per operation so the
/// on/off columns are directly comparable at every thread count.
constexpr CounterTable kTables[] = {
    // Every pool_get is a successful CAS on the shared Treiber top -- a
    // guaranteed cache-line transfer even when it does not retry.  On a
    // single-core host retries need a preemption inside the tiny
    // load-to-CAS window, so pool_get is the robust proxy there;
    // pool_cas_retry shows the same collapse once cores run in parallel.
    {obs::Counter::kPoolGet,
     "shared free-list acquisitions per operation (coherence transfers)"},
    {obs::Counter::kPoolCasRetry,
     "free-list CAS retries per operation (the ablated hotspot)"},
    {obs::Counter::kMagHit, "magazine hits per operation"},
    {obs::Counter::kMagRefill, "magazine batch refills per operation"},
};

int run(const FigConfig& config) {
  obs::reset();
  obs::arm();
  const std::vector<SweepSeries> series =
      sweep(config, kVariants, Source::kReal);
  print_table(config,
              config.title + "  [real threads; net seconds per 10^6 pairs]",
              series, net_time);
  print_per_op_tables(config, series, kTables, "real");
  return config.json && !write_json(config, series) ? 1 : 0;
}

}  // namespace
}  // namespace msq::bench

int main(int argc, char** argv) {
  msq::bench::FigConfig config;
  config.title = "magazine ablation: thread-cached node allocation on/off";
  config.json_path = "BENCH_ablate_magazine.json";
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  return msq::bench::run(config);
}
