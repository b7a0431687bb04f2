// Observability layer, part 4: human-readable and machine-readable output.
//
// Two consumers with different needs share the same data:
//  * people, reading a post-run report (obs_tour, the bench tables, the
//    watchdog's wedge attribution) -- aligned text, per-op rates;
//  * machines, consuming BENCH_*.json (bench/json_smoke.py, external
//    plotting) -- strict JSON via the small streaming JsonWriter below,
//    which is also what bench/fig_common uses for its --json output.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"

namespace msq::obs {

/// Minimal streaming JSON writer: objects/arrays with automatic comma
/// placement, string escaping, and NaN/Inf mapped to null (JSON has no
/// representation for them).  No DOM, no allocation beyond the nesting
/// stack -- enough for bench output, small enough to audit.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) { return value(std::uint64_t{v}); }
  JsonWriter& value(bool v);

 private:
  void separate();  // emit ',' if needed before a sibling element
  static void write_escaped(std::ostream& os, std::string_view s);

  std::ostream& os_;
  std::vector<bool> needs_comma_;  // one flag per open container
  bool after_key_ = false;
};

/// Aligned text table of counter totals and per-op rates ("- " when ops is
/// unknown/zero).  Zero-valued counters are listed too: "this mechanism
/// never fired" is a finding (e.g. cas_fail == 0 at p = 1).
void print_counters(std::ostream& os, const Snapshot& s, std::uint64_t ops,
                    std::string_view title = "counters");

/// One-line-per-quantile latency summary: count, mean, p50/p90/p99, max.
void print_histogram(std::ostream& os, const Histogram& h,
                     std::string_view title, std::string_view unit);

/// JSON object {"<name>": {"total": N, "per_op": R}, ...} for all counters.
void write_counters_json(JsonWriter& w, const Snapshot& s, std::uint64_t ops);

/// JSON object {"count": .., "mean": .., "p50": .., "p90": .., "p99": ..,
/// "max": ..} for a histogram.
void write_histogram_json(JsonWriter& w, const Histogram& h);

/// async-signal-unsafe-free-ish stderr dump for the watchdog's abort path:
/// fprintf only, no ostreams, no allocation.  Prints nothing when every
/// counter is zero (probes disabled or never armed) except a note saying so.
void dump_counters_stderr(const char* why) noexcept;

}  // namespace msq::obs
