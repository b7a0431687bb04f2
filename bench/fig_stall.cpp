// Tail latency under a stalled thread (ISSUE 7, EXPERIMENTS.md A7): the
// experiment the wait-free helping queue exists for.
//
// One thread -- the fault layer's sticky victim -- sleeps a fixed duration
// every time it reaches its queue's critical CAS window (the paper's
// "process delayed", scaled from a cache miss to a page fault to a
// descheduled quantum).  Every item carries its submission timestamp, and
// the consumer records the SOJOURN (submit -> dequeue) into per-thread
// histograms.  Sojourn, not call latency, is where progress guarantees
// become measurable:
//
//   msq    the victim stalls between reading Tail and its E9 link CAS; its
//          item does not exist in shared memory yet, so NOBODY can help --
//          that item's sojourn grows by the full stall, and p99.9 tracks
//          the stall duration.  Sleeping on EVERY E9 hit is unbounded
//          starvation, not a latency experiment: each sleep guarantees a
//          running peer moved Tail, so the victim's CAS loses, it re-reads,
//          sleeps again, and never completes an enqueue while any peer
//          keeps operating.  (Before src/mem/freelist.hpp made per-node
//          link tags monotone, tag reuse let those stale CASes "succeed"
//          by ABA -- corruption masquerading as progress.)  The shipped
//          configuration stalls alternate hits (stall_at every=2) so each
//          victim operation absorbs ~one stall and terminates.
//   segq   same shape at the pre-reservation window ("segq.faa_enq").
//          NOT at "segq.fill": a sticky stall between the ticket FAA and
//          the fill CAS is a kill-retry storm -- every sleep ends with the
//          reserved slot already killed by an impatient dequeuer, the
//          enqueuer re-tickets, sleeps, is killed again, forever.  The
//          system stays lock-free (the killers progress) but the victim's
//          enqueue literally never completes; the run cannot terminate.
//          That unbounded single-thread starvation is itself a headline
//          result (see EXPERIMENTS.md A7), it just cannot be a bench
//          configuration.
//   shard4 the sharded front end isolates THROUGHPUT (other producers'
//          shards flow on), but the victim's own item still waits out the
//          stall inside its shard.
//   wfq    the victim ANNOUNCED its operation before entering the link
//          window, so any other thread completes it while the victim
//          sleeps: p99.9 stays near the unstalled baseline once there is
//          at least one helper (procs >= 2; a lone thread has no helpers
//          and its own sleep is unavoidable -- wait-freedom bounds steps,
//          not naps).
//
// Series are named "<algo>+stall<D>us", one full procs sweep each on the
// shared sweep (fig_common.hpp; schema msq-bench-v1, the per-point
// p99_ns/p999_ns fields are validated by tools/check_bench_json.py).  The
// injected sleep itself is accounted via fault::injected_stall_ns() and
// reported per point, so runs are comparable and the victim's stall budget
// is visible next to the damage it did (or failed to do).  Each point's
// discarded warmup runs unstalled: it exists for the memory system, not
// the fault layer.
//
// Flags: the common fig set (--pairs/--max-procs/--seed/--pin/--csv/
// --json) plus
//   --stalls D1,D2,...   stall durations in MICROSECONDS (default
//                        0,1000; 0 = unstalled baseline; up to 10000)
//   --families a,b,...   run only the named variants; bisection and smoke
//                        runs
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "fig_common.hpp"
#include "obs/counters.hpp"
#include "queues/queues.hpp"

namespace msq::bench {
namespace {

constexpr std::uint64_t kMaxStallUs = 10'000;

/// One stalled point: arm the fault plan around the shared pair loop
/// (harness::run_workload -- the run-until-all-quota shape, stamping
/// convention, and sojourn recording live there, common to every real
/// sweep).  This bench keeps only what is its own: the sticky-victim stall
/// choreography and the generous watchdog budget it requires.
template <typename Q>
SweepPoint run_stall(const char* site, std::uint64_t stall_us,
                     std::uint32_t procs, const FigConfig& config) {
  const harness::WorkloadConfig workload = paired_config(procs, config);
  Q queue(queue_capacity(workload.threads));

  fault::FaultPlan plan;
  if (stall_us > 0) {
    // every=2 (alternate hits): sleeping on EVERY hit of a retry-loop site
    // is unbounded starvation for the lock-free queues -- each sleep lets a
    // peer invalidate the read the pending CAS depends on, so the victim
    // re-arrives at the site forever and its operation never completes
    // (see the header; FaultPlan::stall_at documents the general rule).
    // On alternate hits each victim operation absorbs ~one stall and
    // terminates, which is the measurable regime.
    plan.stall_at(site, std::chrono::microseconds(stall_us), /*skip=*/0,
                  /*every=*/2);
    plan.arm();
  }

  // Generous deadline: the victim sleeps on every window hit, so a stalled
  // run legitimately takes ~ (pairs/threads) * stall on top of the work.
  const auto deadline =
      std::chrono::milliseconds(60'000 + config.pairs * stall_us / 250);
  fault::Watchdog watchdog(deadline, "fig_stall run");

  const SweepPoint point = make_point(harness::run_workload(queue, workload));
  plan.disarm();
  return point;
}

using StallFn = SweepPoint (*)(const char*, std::uint64_t, std::uint32_t,
                               const FigConfig&);

struct StallCase {
  const char* name;
  const char* site;  // the CAS window the sticky victim sleeps in
  StallFn run;
};

const std::vector<StallCase> kCases = {
    {"msq", "ms.E9", &run_stall<queues::MsQueue<std::uint64_t>>},
    // segq.fill would livelock under a sticky stall (see header); the
    // pre-reservation window measures the same item-invisibility effect.
    {"segq", "segq.faa_enq", &run_stall<queues::SegmentQueue<std::uint64_t>>},
    {"shard4", "ms.E9",
     &run_stall<queues::ShardedQueue<queues::MsQueue<std::uint64_t>, 4>>},
    {"wfq", "wfq.link", &run_stall<queues::WfQueue<std::uint64_t>>},
};

/// Parse "--stalls 0,1000" out of argv before the common parser runs;
/// durations are microseconds.
bool extract_stalls(int& argc, char** argv, std::vector<std::uint64_t>& out) {
  const char* value = extract_flag(argc, argv, "--stalls");
  if (value == nullptr) {
    out = {0, 1000};
    return true;
  }
  if (*value == '\0') {
    std::cerr << "--stalls needs a comma-separated us list (e.g. 0,1000)\n";
    return false;
  }
  for (const char* p = value; *p != '\0';) {
    char* end = nullptr;
    const unsigned long us = std::strtoul(p, &end, 10);
    if (end == p || us > kMaxStallUs) {
      std::cerr << "--stalls: bad duration in '" << value << "' (0.."
                << kMaxStallUs << " us)\n";
      return false;
    }
    out.push_back(us);
    p = (*end == ',') ? end + 1 : end;
  }
  return true;
}

constexpr struct {
  const char* title;
  std::uint64_t SweepPoint::* field;
} kTables[] = {
    {"p99 item sojourn, ns (submit -> dequeue)", &SweepPoint::p99_ns},
    {"p99.9 item sojourn, ns (the stall-victim's items live here)",
     &SweepPoint::p999_ns},
    {"injected victim sleep, ns (stall budget actually delivered)",
     &SweepPoint::injected_stall_ns},
};

int run(const FigConfig& config, const std::vector<std::uint64_t>& stalls,
        const std::vector<StallCase>& cases) {
  obs::reset();
  obs::arm();
#if !MSQ_PROBES
  std::cerr << "fig_stall: built with MSQ_PROBES=0 -- the fault sites are "
               "compiled out, every stall duration degenerates to 0\n";
#endif

  std::vector<Variant> variants;
  for (const StallCase& c : cases) {
    for (const std::uint64_t us : stalls) {
      const std::string name =
          std::string(c.name) + "+stall" + std::to_string(us) + "us";
      variants.push_back(
          {name,
           [c, us, name](std::uint32_t procs, const FigConfig& cfg) {
             // Progress to stderr BEFORE each run: a watchdog abort then
             // names the run it fired in (breadcrumbs alone accumulate
             // across runs).
             std::cerr << "[fig_stall] " << name << " procs=" << procs
                       << "\n";
             return c.run(c.site, us, procs, cfg);
           },
           [c](std::uint32_t procs, const FigConfig& cfg) {
             return c.run(c.site, 0, procs, cfg);
           }});
    }
  }
  const std::vector<SweepSeries> series =
      sweep(config, variants, Source::kReal);
  for (const auto& spec : kTables) {
    print_table(config, std::string(spec.title) + "  [real]", series,
                [&spec](const SweepPoint& p) {
                  return static_cast<double>(p.*(spec.field));
                });
  }
  return config.json && !write_json(config, series) ? 1 : 0;
}

}  // namespace
}  // namespace msq::bench

int main(int argc, char** argv) {
  std::vector<std::uint64_t> stalls;
  std::vector<msq::bench::StallCase> cases = msq::bench::kCases;
  if (!msq::bench::select_by_name(
          "--families",
          msq::bench::extract_flag(argc, argv, "--families"), cases)) {
    return 1;
  }
  if (!msq::bench::extract_stalls(argc, argv, stalls)) return 1;
  msq::bench::FigConfig config;
  config.title = "item sojourn tail latency vs injected stalls";
  config.json_path = "BENCH_stall.json";
  if (!msq::bench::parse_args(argc, argv, config)) return 1;
  return msq::bench::run(config, stalls, cases);
}
