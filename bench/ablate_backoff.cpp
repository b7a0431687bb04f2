// Ablation A2: bounded exponential backoff on vs. off (paper section 4:
// "performance was not sensitive to the exact choice of backoff parameters
// in programs that do at least a modest amount of work between queue
// operations" -- but REMOVING it entirely under high contention does hurt,
// which is why they use it).
//
// Runs the dedicated-machine sweep twice: with the default bounded
// exponential backoff and with backoff disabled (retry immediately).
#include <iostream>

#include "fig_common.hpp"

int main(int argc, char** argv) {
  msq::bench::FigConfig config;
  config.procs_per_processor = 1;
  config.max_procs = 8;
  if (!msq::bench::parse_args(argc, argv, config)) return 1;

  config.title = "Ablation A2a: bounded exponential backoff ON (max window 1024)";
  config.backoff_max = 1024;
  config.json_path = "BENCH_ablate_backoff_on.json";
  if (const int status = msq::bench::run_figure(config)) return status;

  std::cout << '\n';
  config.title = "Ablation A2b: backoff OFF (immediate retry)";
  config.backoff_max = 0;
  config.json_path = "BENCH_ablate_backoff_off.json";
  return msq::bench::run_figure(config);
}
