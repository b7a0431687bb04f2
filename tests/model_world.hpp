// Helpers for driving the model build's fiber worlds (MSQ_MODEL=1), shared
// by every test that runs a real queue header under sim::Engine: the
// engine config that arms one MSQ_MUTANT negative control, the half-step
// history clock, and stepping a process past a labelled access.
#pragma once

#include <cstdint>
#include <cstring>

#include "sim/engine.hpp"

static_assert(MSQ_MODEL, "the helpers drive the model build's fibers");

namespace msq::sim {

[[nodiscard]] inline EngineConfig with_mutant(const char* mutant) {
  EngineConfig config;
  config.mutant = mutant;
  return config;
}

// History clock in half-steps.  A call's first step runs in the same
// resume that invokes it, but its response is recorded on a LATER resume,
// possibly right before a peer's invocation with no step in between.
// After k steps a response reads 2k and an invocation 2k + 1, so such a
// pair is strictly ordered; k = clock / 2 either way.
inline std::int64_t invoked_at(Proc& p) {
  return 2 * static_cast<std::int64_t>(p.engine().total_steps()) + 1;
}
inline std::int64_t returned_at(Proc& p) {
  return 2 * static_cast<std::int64_t>(p.engine().total_steps());
}

/// Step `id` until it has made `n` more accesses at mo_table site `site`;
/// false if it finished (or halted) first.
[[nodiscard]] inline bool run_past(Engine& e, std::uint32_t id,
                                   const char* site, int n = 1) {
  while (n > 0) {
    if (!e.step(id)) return false;
    if (e.last_access().valid && std::strcmp(e.label(id), site) == 0) --n;
  }
  return true;
}

}  // namespace msq::sim
