// The atomics seam: the one place where a queue header's shared words can
// be swapped out for simulated ones.
//
//   port::Atomic<T>       a shared word (std::atomic<T> in normal builds)
//   port::AtomicRef<T>    an atomic view of a plain word (std::atomic_ref)
//   port::MemoryOrder     what an access's order argument is
//   MSQ_MO(site, order)   an order, labelled with its sim/mo_table.hpp row
//   MSQ_MUTANT(name)      a negative-control hook, constant false
//
// In normal builds every name above is the plain C++ one -- an alias, the
// bare order, the literal `false` -- so a header written against the seam
// compiles to exactly the code it had before (tests/atomics_seam_test.cpp
// checks this at compile time).
//
// The model build (MSQ_MODEL=1; test and tool targets that link msq_model)
// swaps in sim/model.hpp: each access through the seam becomes one step of
// the sim::Engine fiber process that makes it, on a word of simulated
// memory, with its order resolved through the engine's MoTable (so the
// memory-order mutation sweep can weaken it) and its site name as the
// process label (so race reports name the line).  MSQ_MUTANT(name) is then
// true iff the engine was configured with that mutant, which is how the
// DPOR tests' negative controls run the shipped header with one
// deliberate defect.  tools/atomics_lint.py checks every MSQ_MO call
// against its table row.
#pragma once

#include <atomic>

#include "port/cpu.hpp"

#if MSQ_MODEL

#include "sim/model.hpp"

#define MSQ_MO(site, order) (::msq::port::MemoryOrder{site, order})
#define MSQ_MUTANT(name) (::msq::sim::model::mutant(name))

#else

namespace msq::port {

template <typename T>
using Atomic = std::atomic<T>;
template <typename T>
using AtomicRef = std::atomic_ref<T>;
using MemoryOrder = std::memory_order;

}  // namespace msq::port

#define MSQ_MO(site, order) order
#define MSQ_MUTANT(name) false

#endif
