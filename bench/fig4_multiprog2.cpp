// Figure 4: "Net execution time for one million enqueue/dequeue pairs on a
// multiprogrammed system with 2 processes per processor".
//
// Expected shape (paper): the blocking algorithms (single lock, two-lock,
// Mellor-Crummey) degrade badly -- an inopportune preemption of a lock
// holder or slot claimant stalls everyone sharing that resource for whole
// scheduling quanta -- while the non-blocking algorithms (MS, PLJ, Valois)
// degrade only mildly.  MS remains the fastest overall.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  msq::bench::FigConfig config;
  config.title = "Figure 4: multiprogrammed, 2 processes per processor";
  config.procs_per_processor = 2;
  config.json_path = "BENCH_fig4.json";
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  return msq::bench::run_figure(config);
}
