// Figure 3: "Net execution time for one million enqueue/dequeue pairs on a
// dedicated multiprocessor", p = 1..12, six algorithms.
//
// Expected shape (paper): with one processor everything is cheap and the
// single lock is fastest; from ~2-3 processors contention dominates and the
// new non-blocking (MS) queue wins, with PLJ close behind, the two-lock
// queue beating the single lock beyond ~5 processors, and Valois slowest of
// the non-blocking algorithms but improving as overlap hides its memory-
// management overhead.  See EXPERIMENTS.md for measured-vs-paper notes.
#include "fig_common.hpp"

int main(int argc, char** argv) {
  msq::bench::FigConfig config;
  config.title = "Figure 3: dedicated multiprocessor (1 process/processor)";
  config.procs_per_processor = 1;
  config.json_path = "BENCH_fig3.json";
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  return msq::bench::run_figure(config);
}
