// Observability layer, part 3: labelled probe macros.
//
// A probe site is one place in an algorithm where two orthogonal tools
// want a hook:
//  * fault injection (src/fault): stall or halt a thread exactly there, to
//    replay the paper's "processes halted or delayed" hypothesis;
//  * counting (src/obs): record that the mechanism fired, to explain the
//    benchmark curves.
//
// MSQ_PROBE_COUNT fuses both at the labelled CAS windows the queues
// already annotate (ms.E9, ms.D12, ...), so the site label stays the
// single source of truth shared by the simulator's co_await p.at(...)
// lines, the fault plans, and the counter reports.  Sites that only ever
// stall (e.g. lock-held critical sections) keep plain MSQ_PROBE.
//
// Cost: both macros inherit the layered gating of their halves -- compiled
// out entirely under MSQ_PROBES=0 / MSQ_OBS=0, one relaxed load each when
// compiled in but not armed.
//
// Model build (MSQ_MODEL=1, see port/cpu.hpp): a probe is a label point
// of the fiber process that reaches it instead (sim::Proc::reach), so
// Engine::label_hits(), freeze_at_label() and crash_at_label() see the
// header's own labels.  Off a fiber it does nothing.
#pragma once

#include "fault/fault_plan.hpp"
#include "obs/counters.hpp"

#if MSQ_MODEL
namespace msq::sim::model {
/// The running fiber reaches label `site` (sim/engine.cpp).
void probe(const char* site) noexcept;
}  // namespace msq::sim::model
#define MSQ_PROBE(site) ::msq::sim::model::probe(site)
#else
/// Fault-injection stall point only (no counter).
#define MSQ_PROBE(site) ::msq::fault::point(site)
#endif

/// Stall point + counter bump, e.g. the linearizing CAS attempts:
///   MSQ_PROBE_COUNT("ms.E9", kCasAttempt);
#define MSQ_PROBE_COUNT(site, counter) \
  do {                                 \
    MSQ_PROBE(site);                   \
    MSQ_COUNT(counter);                \
  } while (0)
