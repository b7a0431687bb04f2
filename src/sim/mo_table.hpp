// The memory-order site table: the single source of truth for which
// MemOrder every annotated sim-model access uses, what its real C++
// counterpart is, and -- the part that makes the orders PROVABLE -- which
// capability of the order is load-bearing.
//
// Each site names one access in a sim model (sim/ms_queue_sim.hpp,
// sim/valois_queue_sim.hpp, sim/sim_freelist.hpp, sim/sim_lock.hpp, or the
// litmus worlds in tools/mo_mutation_sweep.cpp) -- or, for the scq.* rows,
// an access of the real queues/scq_queue.hpp itself: the header labels it
// `MSQ_MO("scq.<site>", order)` (port/atomic.hpp), and the model build runs
// the header under the explorer with the row's override applied, so there
// is no model to keep in step.  The mutation sweep
// weakens each site one notch at a time and asserts the explorer's verdict
// matches the site's needs_* flags:
//
//   needs_acquire  losing acquire semantics must be caught
//   needs_release  losing release semantics must be caught
//   needs_atomic   demoting the access to a plain (non-atomic) one must be
//                  caught
//   needs_sc       weakening seq_cst must be caught (store-buffer mode)
//
// A flag left false is a MEASURED fact with a rationale in `note`: either
// the capability genuinely protects nothing in this algorithm, or another
// annotation masks it (belt-and-braces) -- the sweep proves the mutation
// stays silent, so the note is machine-checked, not vibes.  See
// docs/ALGORITHMS.md "Memory orders" and tools/mo_mutation_sweep.cpp.
//
// tools/atomics_lint.py parses this table (the MSQ_MO_SITE rows) to
// validate `proof: mo-sweep:<site>` references in the real sources, and to
// check that every MSQ_MO call passes its row's annotated order to an
// access of its row's kind; site names are part of the repo's lint
// contract: rename with care.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "check/race.hpp"

namespace msq::sim {

enum class MoKind : std::uint8_t { kLoad, kStore, kRmw };

struct MoSite {
  const char* name;
  MoKind kind;
  check::MemOrder annotated;
  bool needs_acquire = false;
  bool needs_release = false;
  bool needs_atomic = false;
  bool needs_sc = false;
  const char* note = "";
};

// clang-format off
#define MSQ_MO_SITE(...) ::msq::sim::MoSite{__VA_ARGS__}
inline constexpr MoSite kMoSites[] = {
    // --- MS queue (sim/ms_queue_sim.hpp; real: queues/ms_queue.hpp) -----
    MSQ_MO_SITE("ms.E2.value_write", MoKind::kStore, check::MemOrder::kRelaxed,
                false, false, true, false,
                "mem/value_cell.hpp put(): atomicity defends the D11 "
                "read-before-validate of a concurrently recycled node; "
                "ordering rides E9/D4"),
    MSQ_MO_SITE("ms.E3.next_init", MoKind::kStore, check::MemOrder::kRelease,
                false, false, true, false,
                "counted null keeps the tag monotone across recycles; "
                "release is masked by E9's (the only nulls readers chase "
                "are pre-publication)"),
    MSQ_MO_SITE("ms.E5.tail_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "tail is a performance hint guarded by counted tags; every "
                "value publication flows through E9 -- matches GenMC's "
                "relaxed-tail ms-queue"),
    MSQ_MO_SITE("ms.E6.next_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "E7 revalidation + tags make a stale read harmless; "
                "atomicity still required (concurrent E9/E3 writers)"),
    MSQ_MO_SITE("ms.E7.tail_reload", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "consistency re-check only; compared, never dereferenced"),
    MSQ_MO_SITE("ms.E9.link_cas", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "the publication edge -- yet individually masked: the free "
                "list's acq_rel CASes republish every enqueue (allocate "
                "releases the payload into free_top, D14's pop re-acquires "
                "it before D13 returns), so the sweep proves no single "
                "weakening here is observable.  Pool-decoupled deployments "
                "(magazine caches) would restore its load-bearing role"),
    MSQ_MO_SITE("ms.E13.tail_swing", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "masked by E9: the swing republishes what the link CAS "
                "already released.  The sweep proves the relaxation safe; "
                "the real port keeps acq_rel for non-TSO targets"),
    MSQ_MO_SITE("ms.E12.tail_help", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "helping CAS; same masking as E13"),
    MSQ_MO_SITE("ms.D2.head_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "D5 revalidation + D12's acq_rel carry the ordering; "
                "atomicity required (concurrent D12 writers)"),
    MSQ_MO_SITE("ms.D3.tail_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "compared at D6, never dereferenced"),
    MSQ_MO_SITE("ms.D4.next_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "the consume edge, masked like ms.E9 (D14's free-list pop "
                "re-acquires the payload before the value is returned); "
                "atomicity IS load-bearing: a plain D4 races with the "
                "concurrent E9 link CAS"),
    MSQ_MO_SITE("ms.D5.head_reload", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "consistency re-check only"),
    MSQ_MO_SITE("ms.D9.tail_help", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "helping CAS; see ms.E13.tail_swing"),
    MSQ_MO_SITE("ms.D11.value_read", MoKind::kLoad, check::MemOrder::kRelaxed,
                false, false, true, false,
                "mem/value_cell.hpp get(): may read a node recycled after "
                "D4 (discarded when D12 fails) -- the exact race plain "
                "data cannot survive"),
    MSQ_MO_SITE("ms.D12.head_swing", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "the dummy hand-off to the free list is published by D14's "
                "push CAS, and head readers revalidate at D5, so the sweep "
                "proves no single weakening here observable"),

    // --- Treiber free list (mem/freelist.hpp labels its pop and push with
    // these rows; the sweep's world D and tests/sim_aba_test.cpp run it,
    // and sim/sim_freelist.hpp's copy resolves them for the MS models)
    MSQ_MO_SITE("fl.pop_top", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "acquire is belt-and-braces: pop_cas's acquire side covers "
                "the ownership hand-off when this load is relaxed"),
    MSQ_MO_SITE("fl.pop_next", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "read of a node another thread may concurrently pop-and-"
                "push (the Treiber ABA window): atomicity load-bearing, "
                "ordering masked by push_link's release"),
    MSQ_MO_SITE("fl.pop_cas", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "the ownership hand-off needs an acquire on the pop path, "
                "but pop_top's acquire and pop_cas's are mutually "
                "redundant -- the sweep proves either alone suffices"),
    MSQ_MO_SITE("fl.push_link", MoKind::kStore, check::MemOrder::kRelease,
                false, false, true, false,
                "monotone-tag link write; stale traversals read it "
                "concurrently (atomicity), ordering masked by push_cas"),
    MSQ_MO_SITE("fl.push_cas", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "release publishes the freed node's final state, but "
                "push_link's release already does too (the popper reads "
                "the node's next word with acquire): mutually masked pair"),

    // --- TATAS lock (sim/sim_lock.hpp; real: sync/tatas_lock.hpp) -------
    MSQ_MO_SITE("lock.spin_load", MoKind::kLoad, check::MemOrder::kRelaxed,
                false, false, true, false,
                "test-and-test-and-set spin: value is advisory, the CAS "
                "decides; plain demotion races with the unlock store"),
    MSQ_MO_SITE("lock.acquire_cas", MoKind::kRmw, check::MemOrder::kAcquire,
                true, false, false, false,
                "the lock acquire: joins the previous holder's unlock "
                "release; without it the critical section's plain data is "
                "unordered"),
    MSQ_MO_SITE("lock.unlock_store", MoKind::kStore, check::MemOrder::kRelease,
                false, true, true, false,
                "the lock release: publishes the critical section.  Its "
                "loss is invisible to SC value checks (mutual exclusion "
                "still holds) -- caught only by the order-aware explorer"),

    // --- Valois queue (sim/valois_queue_sim.hpp; real: "
    //     queues/valois_queue.hpp + mem/refcount_pool.hpp) ---------------
    MSQ_MO_SITE("valois.init_value", MoKind::kStore, check::MemOrder::kRelaxed,
                false, false, false, false,
                "pre-publication write: ordering rides link_cas, and the "
                "refcount pins prevent the recycled-node stale reads that "
                "make atomicity load-bearing in the tag-based models"),
    MSQ_MO_SITE("valois.init_next", MoKind::kStore, check::MemOrder::kRelease,
                false, false, false, false,
                "counted null init; masked like ms.E3, and pin-protected "
                "like valois.init_value"),
    MSQ_MO_SITE("valois.ptr_read", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "SafeRead's load of a shared pointer cell.  Its acquire is "
                "masked by the protocol's own acq_rel refcount FAAs (every "
                "reader bumps a count the writer also bumped after its "
                "payload write); atomicity is load-bearing: a plain read "
                "races with the concurrent link CAS"),
    MSQ_MO_SITE("valois.ptr_reread", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "SafeRead revalidation; compared, not dereferenced"),
    MSQ_MO_SITE("valois.refct_faa", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "CopyRef/SafeRead count bump; individually redundant with "
                "the pointer-cell acquires and the Release CAS (the sweep "
                "proves each single weakening silent), jointly the mesh "
                "that masks the queue-level edges"),
    MSQ_MO_SITE("valois.refct_cas", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "DecrementAndTestAndSet: the reclaim hand-off it guards is "
                "republished by the pool's push/pop CASes, so no single "
                "weakening is observable"),
    MSQ_MO_SITE("valois.link_cas", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "the publication CAS (enqueue link / head+tail swings); "
                "its release is masked by the acq_rel refcount mesh -- see "
                "valois.ptr_read"),
    MSQ_MO_SITE("valois.value_read", MoKind::kLoad, check::MemOrder::kRelaxed,
                false, false, false, false,
                "read under refcount pin: unlike ms.D11 the pin prevents "
                "recycling, so even the plain demotion stays ordered "
                "through the refcount mesh"),
    MSQ_MO_SITE("valois.reclaim_next", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, false, false,
                "sole-owner read of a dead node's link during the "
                "reclamation cascade; ordered through refct_cas + the "
                "pool mesh"),

    // --- SCQ ring (the MSQ_MO labels of queues/scq_queue.hpp) ------------
    MSQ_MO_SITE("scq.credit_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "the taking pass's read of each credit word (own slot, "
                "depot, other slots): a count, never a publication, but "
                "plain demotion races with a consumer's credit return"),
    MSQ_MO_SITE("scq.credit_take", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "credit CAS-decrement on the own slot or the depot: the "
                "capacity bound is a property of each word's modification "
                "order, which every RMW keeps; the deposit validates its "
                "entry by cycle and full bit, so no payload rides the "
                "credit"),
    MSQ_MO_SITE("scq.credit_steal", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "credit CAS-decrement on another thread's slot; see "
                "scq.credit_take"),
    MSQ_MO_SITE("scq.credit_collect", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "the refusal's second pass, compared with the first: the "
                "refusal argument rests on each word's modification order "
                "and the version bump, not on ordering (tests/"
                "sim_scq_test.cpp's refusal worlds); plain demotion races "
                "with a consumer's credit return"),
    MSQ_MO_SITE("scq.credit_return", MoKind::kRmw, check::MemOrder::kRelease,
                false, false, false, false,
                "credit fetch_add to the own slot after the consume; see "
                "scq.credit_take -- the entry's next deposit syncs with "
                "the consume itself"),
    MSQ_MO_SITE("scq.credit_spill_cas", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "a full slot's CAS-decrement before the spill; a count, "
                "see scq.credit_take"),
    MSQ_MO_SITE("scq.credit_spill_add", MoKind::kRmw, check::MemOrder::kRelease,
                false, false, false, false,
                "the spill's fetch_add to the depot; a count, see "
                "scq.credit_return"),
    MSQ_MO_SITE("scq.enq_faa_tail", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "ticket allocation; publication rides the entry CAS, and "
                "the tail word is only consumed by the empty-verdict path "
                "whose own load re-acquires it"),
    MSQ_MO_SITE("scq.enq_entry_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "pre-CAS read of an entry with concurrent CAS/fetch_and "
                "writers (load_halves: two 8-byte loads, meta then value): "
                "atomicity load-bearing, ordering masked by enq_cas "
                "(failure re-reads through the CAS itself)"),
    MSQ_MO_SITE("scq.enq_head_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "the unsafe-entry deposit guard (head <= ticket) and the "
                "catch-up losers' head reload: value advisory, never "
                "dereferenced, but plain demotion races with a consumer's "
                "head FAA"),
    MSQ_MO_SITE("scq.enq_cas", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, true, false, false,
                "THE publication edge, the 16-byte {cycle, full, value} "
                "deposit: releases the producer's plain writes to the "
                "consumer whose entry load/consume acquires it -- nothing "
                "masks it, unlike ms.E9 (there is no pool mesh here; "
                "bounded rings reuse entries in place)"),
    MSQ_MO_SITE("scq.threshold_check", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "the threshold reads (dequeue fast path + enqueue "
                "reset-skip); liveness-only value, but demoting to plain "
                "races with concurrent threshold fetch_subs"),
    MSQ_MO_SITE("scq.threshold_store", MoKind::kStore, check::MemOrder::kRelease,
                false, false, true, false,
                "threshold re-arm; liveness-only value (a stale read just "
                "costs an extra empty verdict), plain demotion races with "
                "the dequeuers' fetch_subs"),
    MSQ_MO_SITE("scq.threshold_faa", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "the livelock-freedom budget decrement: pure liveness, no "
                "payload flows through it -- the bound is proven over "
                "schedules in tests/sim_scq_test.cpp, not by ordering"),
    MSQ_MO_SITE("scq.deq_faa_head", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "ticket allocation; see scq.enq_faa_tail"),
    MSQ_MO_SITE("scq.deq_entry_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "entry probe with concurrent CAS writers (the meta load, "
                "then the value load on a cycle match): atomicity "
                "load-bearing; its acquire is mutually masked with the "
                "consume's (the consume reads-from the same deposit, so "
                "either acquire alone orders the payload)"),
    MSQ_MO_SITE("scq.deq_consume_and", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "the consume, meta &= ~full: its acquire is mutually "
                "masked with deq_entry_load's -- fl.pop_top/pop_cas all "
                "over again; its release orders the value-half load "
                "before the entry's next deposit, but both are atomic, so "
                "losing it is no data race, and each sweep payload word is "
                "written once"),
    MSQ_MO_SITE("scq.deq_mark_cas", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "cycle-advance / unsafe-mark CAS on meta: control-flow "
                "only, no payload is published or consumed through it"),
    MSQ_MO_SITE("scq.deq_tail_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "the empty-verdict read (tail <= head+1): value advisory "
                "-- a stale read only delays the verdict -- but plain "
                "demotion races with every enqueuer's FAA"),
    MSQ_MO_SITE("scq.catchup_cas", MoKind::kRmw, check::MemOrder::kAcqRel,
                false, false, false, false,
                "tail catch-up: liveness-only (keeps deposits ahead of the "
                "scanned region); losers re-read both counters"),
    MSQ_MO_SITE("scq.empty_head_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "the gated empty check's first read: compared, never "
                "dereferenced, and no payload rides an empty verdict; "
                "plain demotion races with a sibling consumer's head FAA. "
                "Its acquire keeps the tail load after it on targets that "
                "reorder loads -- SC and TSO exploration never do, so that "
                "role is argued (tests/sim_scq_test.cpp's tail-first "
                "control), not swept"),
    MSQ_MO_SITE("scq.empty_tail_load", MoKind::kLoad, check::MemOrder::kAcquire,
                false, false, true, false,
                "the gated empty check's verdict read (tail <= head): "
                "value advisory like scq.deq_tail_load, but plain "
                "demotion races with every enqueuer's FAA"),

    // --- litmus worlds (tools/mo_mutation_sweep.cpp, "
    //     tests/sim_weak_memory_test.cpp) --------------------------------
    MSQ_MO_SITE("sb.store_flag", MoKind::kStore, check::MemOrder::kSeqCst,
                false, false, true, true,
                "store-buffer litmus (Dekker's handshake): anything below "
                "seq_cst lets TSO defer the store past the peer's load -- "
                "the mutation only weak-memory execution can catch"),
    MSQ_MO_SITE("sb.load_peer", MoKind::kLoad, check::MemOrder::kSeqCst,
                false, false, true, false,
                "TSO loads are acquire-strong, so weakening the load side "
                "is invisible here (x86); kept seq_cst to match the "
                "C++ idiom -- see docs for the honest scope note"),
    MSQ_MO_SITE("mp.flag_store", MoKind::kStore, check::MemOrder::kRelease,
                false, true, true, false,
                "message-passing flag: release publishes the plain data "
                "write.  TSO's FIFO buffer masks it in execution, so this "
                "is caught by the hb layer alone"),
    MSQ_MO_SITE("mp.flag_load", MoKind::kLoad, check::MemOrder::kAcquire,
                true, false, true, false,
                "message-passing consume side"),
};
#undef MSQ_MO_SITE
// clang-format on

[[nodiscard]] inline const MoSite* mo_find(const char* name) noexcept {
  for (const MoSite& s : kMoSites) {
    if (std::strcmp(s.name, name) == 0) return &s;
  }
  return nullptr;
}

/// Order overrides for mutation runs.  Models resolve each site ONCE at
/// construction (resolve() is a linear scan), so a table must be mutated
/// before the model is built -- which is how the sweep works: fresh world
/// per schedule, table fixed for the world's lifetime.
class MoTable {
 public:
  /// The annotated order, unless overridden.  Unknown sites assert: a typo
  /// here would silently un-annotate a model.
  [[nodiscard]] check::MemOrder resolve(const char* site) const noexcept {
    const MoSite* s = mo_find(site);
    assert(s != nullptr && "unknown memory-order site");
    if (s == nullptr) return check::MemOrder::kSeqCst;
    for (const auto& [name, order] : overrides_) {
      if (std::strcmp(name, site) == 0) return order;
    }
    return s->annotated;
  }

  /// The override of `site`, else `declared` -- the order the access
  /// itself names (the model build's seam: tools/atomics_lint.py keeps
  /// that equal to the site's `annotated` row).
  [[nodiscard]] check::MemOrder resolve_or(
      const char* site, check::MemOrder declared) const noexcept {
    for (const auto& [name, order] : overrides_) {
      if (std::strcmp(name, site) == 0) return order;
    }
    return declared;
  }

  /// Override one site (the sweep's single-mutation entry point).
  void set(const char* site, check::MemOrder order) {
    assert(mo_find(site) != nullptr && "unknown memory-order site");
    overrides_.emplace_back(site, order);
  }

  [[nodiscard]] bool empty() const noexcept { return overrides_.empty(); }

 private:
  std::vector<std::pair<const char*, check::MemOrder>> overrides_;
};

/// Resolve helper for model constructors: annotated order when no table is
/// supplied (the common case outside the sweep).
[[nodiscard]] inline check::MemOrder mo_resolve(const MoTable* table,
                                                const char* site) noexcept {
  if (table != nullptr) return table->resolve(site);
  const MoSite* s = mo_find(site);
  assert(s != nullptr && "unknown memory-order site");
  return s != nullptr ? s->annotated : check::MemOrder::kSeqCst;
}

/// Every strictly weaker order a site can be mutated to, respecting the
/// access kind (an RMW cannot be plain; a load cannot "lose release").
[[nodiscard]] inline std::vector<check::MemOrder> mo_weakenings(
    const MoSite& s) {
  using check::MemOrder;
  std::vector<MemOrder> out;
  switch (s.annotated) {
    case MemOrder::kSeqCst:
      if (s.kind == MoKind::kRmw) {
        out = {MemOrder::kAcqRel, MemOrder::kAcquire, MemOrder::kRelease,
               MemOrder::kRelaxed};
      } else if (s.kind == MoKind::kStore) {
        out = {MemOrder::kRelease, MemOrder::kRelaxed, MemOrder::kPlain};
      } else {
        out = {MemOrder::kAcquire, MemOrder::kRelaxed, MemOrder::kPlain};
      }
      break;
    case MemOrder::kAcqRel:
      out = {MemOrder::kAcquire, MemOrder::kRelease, MemOrder::kRelaxed};
      break;
    case MemOrder::kAcquire:
      out = (s.kind == MoKind::kRmw)
                ? std::vector<MemOrder>{MemOrder::kRelaxed}
                : std::vector<MemOrder>{MemOrder::kRelaxed, MemOrder::kPlain};
      break;
    case MemOrder::kRelease:
      out = (s.kind == MoKind::kRmw)
                ? std::vector<MemOrder>{MemOrder::kRelaxed}
                : std::vector<MemOrder>{MemOrder::kRelaxed, MemOrder::kPlain};
      break;
    case MemOrder::kRelaxed:
      if (s.kind != MoKind::kRmw) out = {MemOrder::kPlain};
      break;
    case MemOrder::kPlain:
      break;
  }
  return out;
}

/// Must weakening site `s` to `m` be caught, per the site's needs flags?
[[nodiscard]] inline bool mo_must_catch(const MoSite& s,
                                        check::MemOrder m) noexcept {
  using check::MemOrder;
  const bool lost_sc = s.annotated == MemOrder::kSeqCst && m != MemOrder::kSeqCst;
  const bool lost_acq =
      check::order_acquires(s.annotated) && !check::order_acquires(m);
  const bool lost_rel =
      check::order_releases(s.annotated) && !check::order_releases(m);
  const bool lost_atomic =
      s.annotated != MemOrder::kPlain && m == MemOrder::kPlain;
  return (lost_sc && s.needs_sc) || (lost_acq && s.needs_acquire) ||
         (lost_rel && s.needs_release) || (lost_atomic && s.needs_atomic);
}

}  // namespace msq::sim
