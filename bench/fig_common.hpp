// Shared driver for the processor-count sweeps in bench/: the paper's
// section 4 figures (3, 4, 5), the backoff and magazine ablations, the
// shard-count sweep and the stall tail-latency sweep.  Every one of them is
// the same shape -- one loop, swept over p processors, one curve per
// variant -- so the sweep loop, the point/series types, the per-procs table
// printer and the msq-bench-v1 JSON writer live here once, and each bench
// is a variant list plus whatever is truly its own.
//
// Every real-thread point is one run of harness::run_workload, the paper's
// pair loop with enqueue-time stamps: it reports net time (elapsed minus
// one processor's "other work"), elapsed time, and the item-sojourn tail
// (p99/p99.9) plus injected stall time.  Simulated points report net and
// elapsed time only.
//
// Command line (all optional):
//   --pairs N      total enqueue/dequeue pairs per run, N >= 1 (default
//                  100000; the paper uses 10^6 -- pass --pairs 1000000)
//   --max-procs P  sweep 1..P processors, P >= 1          (default 12)
//   --real         ALSO run the real-thread harness (multiprogrammed on
//                  this host; reported separately).  The real sweep adds a
//                  "segq" series (FAA-segment queue; no simulator model)
//   --pin          pin real-harness worker t to CPU t mod hw cores (Linux
//                  only; a no-op elsewhere).  Leave off for the Figure 4/5
//                  multiprogrammed runs, which rely on preemption
//   --csv          emit CSV instead of the aligned table
//   --seed S       simulator seed
//   --json         ALSO write the sweep (net/elapsed time, throughput, the
//                  real points' sojourn tail, and per-op observability
//                  counters per algorithm and proc count) to the bench's
//                  BENCH_*.json file, and print per-op counter companion
//                  tables (schema: tools/check_bench_json.py)
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "harness/driver.hpp"
#include "json_file.hpp"
#include "obs/counters.hpp"

namespace msq::bench {

struct FigConfig {
  std::string title;
  std::uint32_t procs_per_processor = 1;  // 1=Fig3, 2=Fig4, 3=Fig5
  std::uint64_t pairs = 100'000;
  std::uint32_t max_procs = 12;
  bool also_real = false;
  bool pin = false;  // --pin: CPU-affinity for the real-thread sweep
  bool csv = false;
  bool json = false;              // --json: emit machine-readable output
  std::string json_path = "BENCH_fig.json";  // overridden by each bench main
  std::uint64_t seed = 1;
  double backoff_max = 1024;  // ablation overrides this
};

/// Parse the common flags into `config` (title/procs_per_processor are set
/// by the caller).  Returns false (after printing usage) on a bad flag.
bool parse_args(int argc, char** argv, FigConfig& config);

/// Take "FLAG VALUE" out of argv before parse_args runs (it rejects flags
/// it does not know) and return VALUE.  Returns nullptr when FLAG is
/// absent and "" when FLAG is the last argument; the caller checks the
/// value and reports its own error.
const char* extract_flag(int& argc, char** argv, const char* flag);

/// Parse `text` as a whole unsigned decimal number: no sign, no trailing
/// characters, no overflow.
bool parse_u64(const char* text, std::uint64_t& out);

/// The names in the comma-separated `list` given for `flag`, each checked
/// against `known`.  Empty (after printing the known names) when `list` is
/// empty or names something not in `known`.
std::vector<std::string> parse_names(const char* flag, const char* list,
                                     const std::vector<std::string>& known);

/// The benches' family selector (`--families a,b`; scenarios also uses it
/// for `--presets`): keep the entries of `table` (each has a `.name`) that
/// `list` names, in table order.  `list` is `flag`'s value as extract_flag
/// returned it; null (flag absent) keeps every entry.  Returns false, after
/// listing the table's names, when `list` is empty or names an entry that
/// `table` lacks.
template <typename Entry>
bool select_by_name(const char* flag, const char* list,
                    std::vector<Entry>& table) {
  if (list == nullptr) return true;
  std::vector<std::string> known;
  for (const Entry& entry : table) known.emplace_back(entry.name);
  const std::vector<std::string> chosen = parse_names(flag, list, known);
  std::erase_if(table, [&](const Entry& entry) {
    return std::find(chosen.begin(), chosen.end(), entry.name) ==
           chosen.end();
  });
  return !chosen.empty();
}

/// One point of a sweep: a run's net and elapsed time, its operation
/// accounting and its observability-counter delta.  The sojourn and stall
/// fields come from the real-thread loop (harness::run_workload); every
/// Source::kReal point carries them and no simulated point does.
struct SweepPoint {
  std::uint32_t procs = 0;
  double net_seconds_per_million = 0;
  double elapsed_seconds_per_million = 0;  // before subtracting other work
  double throughput_pairs_per_sec = 0;  // completed pairs / net seconds
  std::uint64_t ops = 0;  // operations attempted (completed + refused/empty)
  std::uint64_t empty_dequeues = 0;
  std::uint64_t enqueue_failures = 0;
  std::uint64_t p99_ns = 0;             // item sojourn (submit -> dequeue)
  std::uint64_t p999_ns = 0;            // ^
  std::uint64_t injected_stall_ns = 0;  // fault-layer sleep delivered
  obs::Snapshot counters;
};

enum class Source { kSim, kReal };

struct SweepSeries {
  std::string algo;
  Source source = Source::kReal;
  std::vector<SweepPoint> points;
};

/// The paper's loop (harness::run_workload) at procs * procs_per_processor
/// threads with ~6us of "other work" between operations.
harness::WorkloadConfig paired_config(std::uint32_t procs,
                                      const FigConfig& config);
/// The loop runs every thread until ALL reach quota, so it completes at
/// least the requested pairs: times are scaled by the completed pairs
/// (`result.dequeues`), not config.pairs.
SweepPoint make_point(const harness::WorkloadResult& result);

/// Queue capacity for a sweep run: a few items in flight per thread.
constexpr std::uint32_t queue_capacity(std::uint32_t threads) {
  return threads * 4 + 64;
}

template <typename Q>
SweepPoint run_paired(std::uint32_t procs, const FigConfig& config) {
  const harness::WorkloadConfig workload = paired_config(procs, config);
  Q queue(queue_capacity(workload.threads));
  return make_point(harness::run_workload(queue, workload));
}

using RunFn = std::function<SweepPoint(std::uint32_t procs,
                                       const FigConfig& config)>;

/// One curve of a sweep.  A real sweep runs `warmup` (default: `run`) once
/// before each measured point and discards it: on a busy or
/// frequency-scaling host the first run of a row absorbs cache/scheduler
/// warmup, which otherwise biases the sweep against whichever variant runs
/// first (a one-shard control run once "beat" its own inner queue).
struct Variant {
  std::string name;
  RunFn run;
  RunFn warmup;
};

/// Run procs 1..max_procs x `variants`, bracketing each measured run with
/// obs::snapshot() for its counter delta.  Only kReal sweeps warm up (the
/// simulator is deterministic).  Arm the counters first.
std::vector<SweepSeries> sweep(const FigConfig& config,
                               std::span<const Variant> variants,
                               Source source);

/// One table: a row per procs, a column per series, `cell` per point
/// (CSV instead when --csv).
void print_table(const FigConfig& config, const std::string& title,
                 const std::vector<SweepSeries>& series,
                 const std::function<double(const SweepPoint&)>& cell);

inline double net_time(const SweepPoint& point) {
  return point.net_seconds_per_million;
}

/// A per-operation counter table: `counter` / ops for every point.
struct CounterTable {
  obs::Counter counter;
  const char* title;
};

void print_per_op_tables(const FigConfig& config,
                         const std::vector<SweepSeries>& series,
                         std::span<const CounterTable> tables,
                         const char* source_label);

/// Write `series` as an msq-bench-v1 document to config.json_path.  False
/// (after printing why) when the file cannot be opened or written.
bool write_json(const FigConfig& config,
                const std::vector<SweepSeries>& series);

/// Run the simulated sweep (and the real one with --real), print the
/// figure's tables, and write --json.  Returns the process exit status.
int run_figure(const FigConfig& config);

}  // namespace msq::bench
