// Shared driver for the figure-reproduction benches (Figures 3, 4, 5 and
// the backoff ablation): sweeps processor counts, runs every algorithm on
// the simulated multiprocessor (and optionally with real threads), and
// prints the figure's series as a table.
//
// Command line (all optional):
//   --pairs N      total enqueue/dequeue pairs per run   (default 100000;
//                  the paper uses 10^6 -- pass --pairs 1000000 to match)
//   --max-procs P  sweep 1..P processors                 (default 12)
//   --real         ALSO run the real-thread harness (multiprogrammed on
//                  this host; reported separately).  The real sweep adds a
//                  "segq" series (FAA-segment queue; no simulator model)
//   --pin          pin real-harness worker t to CPU t mod hw cores (Linux
//                  only; a no-op elsewhere).  Leave off for the Figure 4/5
//                  multiprogrammed runs, which rely on preemption
//   --csv          emit CSV instead of the aligned table
//   --seed S       simulator seed
//   --json         ALSO write the sweep (throughput + per-op observability
//                  counters per algorithm and proc count) to the bench's
//                  BENCH_*.json file, and print per-op counter companion
//                  tables (schema: tools/check_bench_json.py)
#pragma once

#include <cstdint>
#include <string>

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

/// Run the sweep and print the table(s) to stdout.
void run_figure(const FigConfig& config);

}  // namespace msq::bench
