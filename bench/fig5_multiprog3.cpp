// Figure 5: "Net execution time for one million enqueue/dequeue pairs on a
// multiprogrammed system with 3 processes per processor".
//
// Expected shape (paper): same story as Figure 4 but worse -- "the degree
// of performance degradation increases with the level of multiprogramming"
// for the blocking algorithms, while the non-blocking ones hold steady.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  msq::bench::FigConfig config;
  config.title = "Figure 5: multiprogrammed, 3 processes per processor";
  config.procs_per_processor = 3;
  config.json_path = "BENCH_fig5.json";
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  return msq::bench::run_figure(config);
}
