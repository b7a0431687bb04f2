#include "fig_common.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string_view>
#include <thread>

#include "harness/calibrate.hpp"
#include "harness/table.hpp"
#include "mem/freelist.hpp"
#include "obs/report.hpp"
#include "queues/queues.hpp"
#include "sim/workload.hpp"
#include "sync/backoff.hpp"

namespace msq::bench {
namespace {

using Item = std::uint64_t;

/// The real-thread series of Figures 3-5: every simulated algorithm PLUS
/// the FAA-segment queue, which has no simulator model (its fetch_add
/// ticket discipline is exactly what the real hardware benchmark exists to
/// show).  On a host with fewer cores than threads the p > 1 runs are
/// multiprogrammed; they are reported next to the simulator's
/// dedicated-machine curves for completeness.  MS names mem::FreeList:
/// the paper's layout, not MsQueue's default magazines.
const Variant kRealVariants[] = {
    {"single-lock", &run_paired<queues::SingleLockQueue<Item>>, {}},
    {"MC", &run_paired<queues::MellorCrummeyQueue<Item>>, {}},
    {"Valois", &run_paired<queues::ValoisQueue<Item>>, {}},
    {"two-lock", &run_paired<queues::TwoLockQueue<Item>>, {}},
    {"PLJ", &run_paired<queues::PljQueue<Item>>, {}},
    {"MS", &run_paired<queues::MsQueue<Item, sync::Backoff, mem::FreeList>>, {}},
    {"segq", &run_paired<queues::SegmentQueue<Item>>, {}},
};

/// Net and elapsed time per 10^6 pairs and throughput for `pairs` completed
/// pairs; every point builder goes through this one scaling.
SweepPoint timed_point(double net_seconds, double elapsed_seconds,
                       std::uint64_t pairs) {
  SweepPoint point;
  if (pairs == 0) return point;
  point.net_seconds_per_million =
      net_seconds * 1e6 / static_cast<double>(pairs);
  point.elapsed_seconds_per_million =
      elapsed_seconds * 1e6 / static_cast<double>(pairs);
  point.throughput_pairs_per_sec =
      net_seconds > 0 ? static_cast<double>(pairs) / net_seconds : 0.0;
  return point;
}

/// The simulated multiprocessor (the paper's testbed substitute): one
/// simulated cost unit ~ 10ns, so net time converts to seconds like the
/// paper's figures.
std::vector<Variant> sim_variants() {
  std::vector<Variant> variants;
  for (const sim::Algo algo : sim::kAllAlgos) {
    variants.push_back(
        {sim::algo_name(algo),
         [algo](std::uint32_t procs, const FigConfig& config) {
           sim::SimRunConfig run;
           run.algo = algo;
           run.processors = procs;
           run.procs_per_processor = config.procs_per_processor;
           run.total_pairs = config.pairs;
           run.seed = config.seed;
           run.backoff_max = config.backoff_max;
           const sim::SimRunResult result = sim::run_sim_workload(run);
           SweepPoint point = timed_point(
               result.net * 1e-8, result.elapsed * 1e-8, config.pairs);
           point.ops = 2 * config.pairs + result.empty_dequeues +
                       result.enqueue_failures;
           point.empty_dequeues = result.empty_dequeues;
           point.enqueue_failures = result.enqueue_failures;
           return point;
         },
         {}});
  }
  return variants;
}

/// The counters the paper's analysis talks about, per operation
/// (contention made visible).
constexpr CounterTable kContentionTables[] = {
    {obs::Counter::kCasFail, "CAS failures per operation (contention)"},
    {obs::Counter::kLockSpin, "lock spins per operation (lock waiting)"},
    {obs::Counter::kBackoffWait, "backoff wait units per operation"},
};

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

bool parse_u64(const char* text, std::uint64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, out);
  return text != end && error == std::errc() && stop == end;
}

std::vector<std::string> parse_names(const char* flag, const char* list,
                                     const std::vector<std::string>& known) {
  std::vector<std::string> chosen;
  std::string_view rest = list;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string name(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? "" : rest.substr(comma + 1);
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << flag << ": unknown name '" << name << "'\n";
      chosen.clear();
      break;
    }
    chosen.push_back(name);
  }
  if (chosen.empty()) {
    std::cerr << flag << " takes a comma-separated list of:";
    for (const std::string& name : known) std::cerr << ' ' << name;
    std::cerr << '\n';
  }
  return chosen;
}

bool parse_args(int argc, char** argv, FigConfig& config) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    // The flag's value as a whole number in [min, max].
    auto number = [&](std::uint64_t& out, std::uint64_t min,
                      std::uint64_t max) {
      const char* value = i + 1 < argc ? argv[++i] : "";
      std::uint64_t v = 0;
      if (!parse_u64(value, v) || v < min || v > max) {
        std::cerr << arg << ": '" << value << "' is not an integer in ["
                  << min << ", " << max << "]\n";
        return false;
      }
      out = v;
      return true;
    };
    std::uint64_t v = 0;
    if (std::strcmp(arg, "--pairs") == 0) {
      if (!number(config.pairs, 1, UINT64_MAX)) return false;
    } else if (std::strcmp(arg, "--max-procs") == 0) {
      if (!number(v, 1, UINT32_MAX)) return false;
      config.max_procs = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!number(config.seed, 0, UINT64_MAX)) return false;
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

harness::WorkloadConfig paired_config(std::uint32_t procs,
                                      const FigConfig& config) {
  harness::WorkloadConfig workload;
  workload.threads = procs * config.procs_per_processor;
  workload.total_pairs = config.pairs;
  workload.pin_threads = config.pin;
  workload.other_work_iters = harness::spin_iters_for_us(6.0);  // paper: ~6us
  return workload;
}

SweepPoint make_point(const harness::WorkloadResult& result) {
  SweepPoint point = timed_point(result.net_seconds, result.elapsed_seconds,
                                 result.dequeues);
  point.ops = result.enqueues + result.dequeues + result.empty_dequeues +
              result.enqueue_failures;
  point.empty_dequeues = result.empty_dequeues;
  point.enqueue_failures = result.enqueue_failures;
  point.p99_ns = result.sojourn_ns.percentile(99.0);
  point.p999_ns = result.sojourn_ns.percentile(99.9);
  point.injected_stall_ns = result.injected_stall_ns;
  return point;
}

std::vector<SweepSeries> sweep(const FigConfig& config,
                               std::span<const Variant> variants,
                               Source source) {
  std::vector<SweepSeries> series;
  for (const Variant& v : variants) series.push_back({v.name, source, {}});
  for (std::uint32_t procs = 1; procs <= config.max_procs; ++procs) {
    for (std::size_t a = 0; a < variants.size(); ++a) {
      const Variant& v = variants[a];
      if (source == Source::kReal) {
        (void)(v.warmup ? v.warmup : v.run)(procs, config);
      }
      const obs::Snapshot before = obs::snapshot();
      SweepPoint point = v.run(procs, config);
      point.counters = obs::snapshot() - before;
      point.procs = procs;
      series[a].points.push_back(point);
    }
  }
  return series;
}

void print_table(const FigConfig& config, const std::string& title,
                 const std::vector<SweepSeries>& series,
                 const std::function<double(const SweepPoint&)>& cell) {
  harness::SeriesTable table(title, "procs");
  for (const SweepSeries& s : series) table.add_series(s.algo);
  const std::size_t rows = series.empty() ? 0 : series.front().points.size();
  for (std::size_t r = 0; r < rows; ++r) {
    table.add_row(series.front().points[r].procs);
    for (std::size_t a = 0; a < series.size(); ++a) {
      table.set(a, cell(series[a].points[r]));
    }
  }
  if (config.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

void print_per_op_tables(const FigConfig& config,
                         const std::vector<SweepSeries>& series,
                         std::span<const CounterTable> tables,
                         const char* source_label) {
  for (const CounterTable& spec : tables) {
    print_table(config,
                std::string(spec.title) + "  [" + source_label + "]", series,
                [&spec](const SweepPoint& p) {
                  return p.counters.per_op(spec.counter, p.ops);
                });
  }
}

bool write_json(const FigConfig& config,
                const std::vector<SweepSeries>& series) {
  std::ofstream out(config.json_path);
  if (!out) {
    std::cerr << "cannot open " << config.json_path << " for writing\n";
    return false;
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
  for (const SweepSeries& s : series) {
    w.begin_object();
    w.key("algo");
    w.value(s.algo);
    w.key("source");
    w.value(s.source == Source::kSim ? "sim" : "real");
    w.key("points");
    w.begin_array();
    for (const SweepPoint& p : s.points) {
      w.begin_object();
      w.key("procs");
      w.value(static_cast<std::uint64_t>(p.procs));
      w.key("net_seconds_per_million_pairs");
      w.value(p.net_seconds_per_million);
      w.key("elapsed_seconds_per_million_pairs");
      w.value(p.elapsed_seconds_per_million);
      w.key("throughput_pairs_per_sec");
      w.value(p.throughput_pairs_per_sec);
      w.key("ops");
      w.value(p.ops);
      w.key("empty_dequeues");
      w.value(p.empty_dequeues);
      w.key("enqueue_failures");
      w.value(p.enqueue_failures);
      if (s.source == Source::kReal) {
        w.key("p99_ns");
        w.value(p.p99_ns);
        w.key("p999_ns");
        w.value(p.p999_ns);
        w.key("injected_stall_ns");
        w.value(p.injected_stall_ns);
      }
      w.key("counters");
      obs::write_counters_json(w, p.counters, p.ops);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return finish_json_file(out, config.json_path);
}

int run_figure(const FigConfig& config) {
  // Arm the observability counters for the whole sweep; each run's counts
  // are isolated by snapshot deltas, so one process-wide registry is fine.
  obs::reset();
  obs::arm();

  std::vector<SweepSeries> series =
      sweep(config, sim_variants(), Source::kSim);
  print_table(config,
              config.title + "  [simulated multiprocessor; net sim-seconds "
                             "per 10^6 pairs]",
              series, net_time);
  if (config.json) {
    print_per_op_tables(config, series, kContentionTables, "simulated");
  }

  if (config.also_real) {
    const std::vector<SweepSeries> real =
        sweep(config, kRealVariants, Source::kReal);
    print_table(config,
                config.title + "  [real threads on this host (" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    " hardware core(s), oversubscribed => multiprogrammed" +
                    (config.pin ? "; pinned" : "") +
                    "); net seconds per 10^6 pairs]",
                real, net_time);
    // Elapsed beside net: the gap between the two tables is the subtracted
    // "other work", so a bad subtraction shows instead of hiding inside the
    // net figure.
    print_table(config,
                config.title + "  [real threads; elapsed seconds per 10^6 "
                               "pairs, other work included]",
                real, [](const SweepPoint& p) {
                  return p.elapsed_seconds_per_million;
                });
    if (config.json) {
      print_per_op_tables(config, real, kContentionTables, "real");
    }
    series.insert(series.end(), real.begin(), real.end());
  }

  return config.json && !write_json(config, series) ? 1 : 0;
}

}  // namespace msq::bench
