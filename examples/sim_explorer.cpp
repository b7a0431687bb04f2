// Drive the simulated multiprocessor interactively from the command line:
// replay the paper's liveness arguments (section 3.3) by stalling a process
// at a chosen pseudo-code line and watching who still makes progress.
//
//   ./build/examples/sim_explorer                 # default: MS, stall E13
//   ./build/examples/sim_explorer ms E9
//   ./build/examples/sim_explorer two-lock T_HELD
//   ./build/examples/sim_explorer single-lock LOCK_HELD
//   ./build/examples/sim_explorer mc MC_LINK
//
// Labels: MS E5 E9 E12 E13 D2 D9 D12; two-lock T_HELD H_HELD;
//         single-lock LOCK_HELD; mc MC_LINK MC_SWING;
//         plj PLJ_LINK PLJ_SWING; valois V_LINK V_SWING.
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/queue_iface.hpp"
#include "sim/workload.hpp"

namespace {

using msq::sim::Algo;
using msq::sim::Engine;
using msq::sim::kEmpty;
using msq::sim::Proc;
using msq::sim::SimQueue;
using msq::sim::Task;

struct Counts {
  std::uint64_t enq = 0;
  std::uint64_t deq = 0;
  std::uint64_t empty = 0;
};

Task<void> pairs_forever(Proc& p, SimQueue& queue, std::uint32_t id,
                         Counts& counts) {
  for (std::uint64_t i = 0;; ++i) {
    const bool ok = co_await queue.enqueue(p, (std::uint64_t{id} << 40) | i);
    if (ok) ++counts.enq;
    const std::uint64_t got = co_await queue.dequeue(p);
    if (got != kEmpty) {
      ++counts.deq;
    } else {
      ++counts.empty;
    }
  }
}

constexpr std::pair<const char*, Algo> kAlgos[] = {
    {"ms", Algo::kMs},
    {"two-lock", Algo::kTwoLock},
    {"single-lock", Algo::kSingleLock},
    {"mc", Algo::kMc},
    {"plj", Algo::kPlj},
    {"valois", Algo::kValois},
};

std::optional<Algo> parse_algo(const std::string& name) {
  for (const auto& [known, algo] : kAlgos) {
    if (name == known) return algo;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string algo_arg = argc > 1 ? argv[1] : "ms";
  const std::string label = argc > 2 ? argv[2] : "E13";
  const std::optional<Algo> parsed = parse_algo(algo_arg);
  if (!parsed) {
    std::cerr << "unknown algorithm '" << algo_arg << "'; valid names:";
    for (const auto& [known, algo] : kAlgos) std::cerr << ' ' << known;
    std::cerr << '\n';
    return 2;
  }
  const Algo algo = *parsed;

  msq::sim::EngineConfig config;
  config.seed = 2026;
  Engine engine(config);
  auto queue = msq::sim::make_sim_queue(algo, engine, 64);

  constexpr std::uint32_t kProcs = 4;
  static Counts counts[kProcs];
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    engine.spawn(0, [&, i](Proc& p) {
      return pairs_forever(p, *queue, i, counts[i]);
    });
  }
  // Process 0 is the victim: stall it the moment it reaches `label`.
  engine.freeze_at_label(0, label.c_str());

  constexpr std::uint64_t kSteps = 50'000;
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    if (!engine.step_random()) break;
  }

  std::cout << "algorithm " << msq::sim::algo_name(algo) << ", victim stalled at '"
            << label << "' (reached: "
            << (std::string(engine.label(0)) == label ? "yes" : "NO") << ")\n"
            << "after " << kSteps << " random steps:\n";
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    std::cout << "  process " << i << (i == 0 ? " (victim)" : "         ")
              << "  enqueues=" << counts[i].enq << "  dequeues=" << counts[i].deq
              << "  saw-empty=" << counts[i].empty << '\n';
  }
  std::cout << "\nInterpretation: for the non-blocking algorithms (ms, plj,\n"
               "valois) the other processes keep completing operations no\n"
               "matter where the victim stalls; for single-lock everything\n"
               "stops; for two-lock only the victim's end stops; for mc the\n"
               "other end stalls once it reaches the victim's claimed slot.\n";
  return 0;
}
