#include "fig_common.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "harness/calibrate.hpp"
#include "harness/driver.hpp"
#include "harness/table.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "queues/queues.hpp"
#include "sim/workload.hpp"

namespace msq::bench {
namespace {

/// One sweep point with its observability-counter delta, kept for --json.
struct SweepPoint {
  std::uint32_t procs = 0;
  double net_seconds_per_million = 0;
  std::uint64_t ops = 0;  // operations attempted (completed + refused/empty)
  std::uint64_t empty_dequeues = 0;
  std::uint64_t enqueue_failures = 0;
  obs::Snapshot counters;
};

struct SweepSeries {
  std::string algo;
  const char* source = "sim";  // "sim" or "real"
  std::vector<SweepPoint> points;
};

/// The real-thread sweep runs every simulated algorithm PLUS the
/// FAA-segment queue, which has no simulator model (its fetch_add ticket
/// discipline is exactly what the real hardware benchmark exists to show).
constexpr std::size_t kRealExtraAlgos = 1;

std::size_t real_algo_count() {
  return std::size(sim::kAllAlgos) + kRealExtraAlgos;
}

std::string real_algo_name(std::size_t algo) {
  if (algo < std::size(sim::kAllAlgos)) {
    return sim::algo_name(sim::kAllAlgos[algo]);
  }
  return "segq";
}

/// Real-thread sweep point: run the paper's loop on the actual std::atomic
/// implementations.  On this one-core host all p > 1 runs are inherently
/// multiprogrammed; the numbers are reported for completeness next to the
/// simulator's dedicated-machine curves.
harness::WorkloadResult real_run(std::size_t algo, std::uint32_t threads,
                                 std::uint64_t pairs, bool pin) {
  harness::WorkloadConfig config;
  config.threads = threads;
  config.total_pairs = pairs;
  config.pin_threads = pin;
  config.other_work_iters = harness::spin_iters_for_us(6.0);  // paper: ~6us
  const std::uint32_t capacity = threads * 4 + 64;
  switch (algo) {
    case 0: {
      queues::SingleLockQueue<std::uint64_t> q(capacity);
      return harness::run_workload(q, config);
    }
    case 1: {
      queues::MellorCrummeyQueue<std::uint64_t> q(capacity);
      return harness::run_workload(q, config);
    }
    case 2: {
      queues::ValoisQueue<std::uint64_t> q(capacity);
      return harness::run_workload(q, config);
    }
    case 3: {
      queues::TwoLockQueue<std::uint64_t> q(capacity);
      return harness::run_workload(q, config);
    }
    case 4: {
      queues::PljQueue<std::uint64_t> q(capacity);
      return harness::run_workload(q, config);
    }
    case 5: {
      queues::MsQueue<std::uint64_t> q(capacity);
      return harness::run_workload(q, config);
    }
    default: {
      queues::SegmentQueue<std::uint64_t> q(capacity);
      return harness::run_workload(q, config);
    }
  }
}

/// Companion tables for --json runs: the counters the paper's analysis
/// talks about, normalised per operation (contention made visible).
void print_counter_tables(const FigConfig& config,
                          const std::vector<SweepSeries>& series,
                          const char* source_label) {
  const struct {
    obs::Counter counter;
    const char* title;
  } kTables[] = {
      {obs::Counter::kCasFail, "CAS failures per operation (contention)"},
      {obs::Counter::kLockSpin, "lock spins per operation (lock waiting)"},
      {obs::Counter::kBackoffWait, "backoff wait units per operation"},
  };
  for (const auto& spec : kTables) {
    harness::SeriesTable table(
        std::string(spec.title) + "  [" + source_label + "]", "procs");
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
    w.value(s.source);
    w.key("points");
    w.begin_array();
    for (const SweepPoint& p : s.points) {
      w.begin_object();
      w.key("procs");
      w.value(static_cast<std::uint64_t>(p.procs));
      w.key("net_seconds_per_million_pairs");
      w.value(p.net_seconds_per_million);
      // Throughput over the net time, scaled back to the actual pair count.
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

}  // namespace

const char* extract_flag(int& argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 >= argc) return "";
    const char* value = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
    return value;
  }
  return nullptr;
}

bool parse_args(int argc, char** argv, FigConfig& config) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_u64 = [&](std::uint64_t& out) {
      if (i + 1 >= argc) return false;
      out = std::strtoull(argv[++i], nullptr, 10);
      return true;
    };
    std::uint64_t v = 0;
    if (std::strcmp(arg, "--pairs") == 0 && next_u64(v)) {
      config.pairs = v;
    } else if (std::strcmp(arg, "--max-procs") == 0 && next_u64(v)) {
      config.max_procs = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(arg, "--seed") == 0 && next_u64(v)) {
      config.seed = v;
    } else if (std::strcmp(arg, "--real") == 0) {
      config.also_real = true;
    } else if (std::strcmp(arg, "--pin") == 0) {
      config.pin = true;
    } else if (std::strcmp(arg, "--csv") == 0) {
      config.csv = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      config.json = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--pairs N] [--max-procs P] [--seed S] [--real] [--pin]"
                   " [--csv] [--json]\n";
      return false;
    }
  }
  return true;
}

void run_figure(const FigConfig& config) {
  // Arm the observability counters for the whole sweep; each run's counts
  // are isolated by snapshot deltas, so one process-wide registry is fine.
  obs::reset();
  obs::arm();

  // Simulated-multiprocessor sweep (the paper's testbed substitute).
  // Time unit: one simulated cost unit ~ 10ns; we report "seconds for 10^6
  // pairs" like the paper by scaling to the requested pair count.
  harness::SeriesTable table(config.title + "  [simulated multiprocessor; "
                             "net sim-seconds per 10^6 pairs]",
                             "procs");
  std::vector<std::size_t> cols;
  cols.reserve(std::size(sim::kAllAlgos));
  std::vector<SweepSeries> sim_series(std::size(sim::kAllAlgos));
  for (std::size_t a = 0; a < std::size(sim::kAllAlgos); ++a) {
    cols.push_back(table.add_series(sim::algo_name(sim::kAllAlgos[a])));
    sim_series[a].algo = sim::algo_name(sim::kAllAlgos[a]);
    sim_series[a].source = "sim";
  }

  const double to_seconds_per_million =
      1e-8 * 1e6 / static_cast<double>(config.pairs);  // 10ns/unit, scaled

  for (std::uint32_t procs = 1; procs <= config.max_procs; ++procs) {
    table.add_row(procs);
    for (std::size_t a = 0; a < std::size(sim::kAllAlgos); ++a) {
      sim::SimRunConfig run;
      run.algo = sim::kAllAlgos[a];
      run.processors = procs;
      run.procs_per_processor = config.procs_per_processor;
      run.total_pairs = config.pairs;
      run.seed = config.seed;
      run.backoff_max = config.backoff_max;
      const obs::Snapshot before = obs::snapshot();
      const sim::SimRunResult result = sim::run_sim_workload(run);
      table.set(cols[a], result.net * to_seconds_per_million);

      SweepPoint point;
      point.procs = procs;
      point.net_seconds_per_million = result.net * to_seconds_per_million;
      point.ops = 2 * config.pairs + result.empty_dequeues +
                  result.enqueue_failures;
      point.empty_dequeues = result.empty_dequeues;
      point.enqueue_failures = result.enqueue_failures;
      point.counters = obs::snapshot() - before;
      sim_series[a].points.push_back(point);
    }
  }
  if (config.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (config.json) print_counter_tables(config, sim_series, "simulated");

  std::vector<SweepSeries> all_series = sim_series;

  if (config.also_real) {
    harness::SeriesTable real_table(
        config.title + "  [real threads on this host (" +
            std::to_string(std::thread::hardware_concurrency()) +
            " hardware core(s), oversubscribed => multiprogrammed" +
            (config.pin ? "; pinned" : "") +
            "); net seconds per 10^6 pairs]",
        "threads");
    std::vector<std::size_t> real_cols;
    std::vector<SweepSeries> real_series(real_algo_count());
    for (std::size_t a = 0; a < real_algo_count(); ++a) {
      real_cols.push_back(real_table.add_series(real_algo_name(a)));
      real_series[a].algo = real_algo_name(a);
      real_series[a].source = "real";
    }
    const double scale = 1e6 / static_cast<double>(config.pairs);
    for (std::uint32_t procs = 1; procs <= config.max_procs; ++procs) {
      const std::uint32_t threads = procs * config.procs_per_processor;
      real_table.add_row(procs);
      for (std::size_t a = 0; a < real_algo_count(); ++a) {
        const obs::Snapshot before = obs::snapshot();
        const harness::WorkloadResult result =
            real_run(a, threads, config.pairs, config.pin);
        real_table.set(real_cols[a], result.net_seconds * scale);

        SweepPoint point;
        point.procs = procs;
        point.net_seconds_per_million = result.net_seconds * scale;
        point.ops = result.enqueues + result.dequeues + result.empty_dequeues +
                    result.enqueue_failures;
        point.empty_dequeues = result.empty_dequeues;
        point.enqueue_failures = result.enqueue_failures;
        point.counters = obs::snapshot() - before;
        real_series[a].points.push_back(point);
      }
    }
    if (config.csv) {
      real_table.print_csv(std::cout);
    } else {
      real_table.print(std::cout);
    }
    if (config.json) print_counter_tables(config, real_series, "real");
    all_series.insert(all_series.end(), real_series.begin(), real_series.end());
  }

  if (config.json) write_json(config, all_series);
}

}  // namespace msq::bench
