// Simulated SCQ ring, mirroring queues/scq_queue.hpp::ScqQueue op-for-op
// so DPOR schedules over this model transfer to the real code: one ring of
// {cycle, unsafe, full, value} entries plus the credit words.
//
// Word layout (simulated memory):
//   entries_[0..2*half)  -- packed {cycle[63:32], unsafe[31], full[30],
//                           value[29:0]}
//   head_, tail_         -- FAA ticket counters
//   threshold_           -- int64 search budget, stored as two's-complement
//                           in the u64 word (faa with ~0ull decrements)
//   depot_               -- spare credits, {version[63:32], count[31:0]};
//                           starts at {0, half}
//   slots_[0..kSlots)    -- per-process spare credits, same layout; a
//                           process owns slot id % kSlots
//
// Divergences from the real header, annotated inline: an entry is ONE
// packed sim word, where the real entry is 16 bytes whose halves are read
// with two 8-byte loads and validated by the 16-byte deposit CAS (a torn
// read there fails the CAS exactly like a stale read here); the consume
// fetch_and becomes a CAS loop (the engine has no fetch_and; equivalent
// because only the unsafe bit can change under our feet); and the credit
// slots are scaled down -- kSlots 3 and kSpillAbove 1 where the real queue
// has 16 and 32 -- so that worlds of three processes and capacity two
// reach every credit path: own slot, depot, steal, spill, and both passes
// of the refusal's double collect.  The Variant knob adds deliberately
// broken models that tests/sim_scq_test.cpp and
// tests/sim_scq_credit_test.cpp use as negative controls:
// one without the threshold EXHIBITS the livelock the budget exists to
// kill, one whose read-only empty check reads tail before head reports a
// non-empty ring empty, one that replaces the credits with a read-only
// `tail - head >= n` check lets concurrent enqueuers overfill the ring,
// and one that refuses after a single collect, or after a double collect
// over unversioned words, refuses while a credit is free.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mo_table.hpp"
#include "sim/task.hpp"

namespace msq::sim {

class SimScqRing {
 public:
  /// dequeue()'s "observed empty"; enqueued values must be below it.
  static constexpr std::uint32_t kBottom = 0x3FFFFFFFu;

  enum class Variant {
    kFaithful,     // op-for-op the real ScqQueue
    kNoThreshold,  // no search budget (and so no gated empty check)
    kTailFirst,    // the gated empty check loads tail, then head
    kNoCredits,    // refuse iff tail - head >= half, read-only; no credits
    kSingleCollect,  // refuse when one pass reads every credit word zero
    kNoVersion,      // credit increases leave the version alone
  };

  /// Credit slots and the spill bound (the real queue: 16 and 32).
  static constexpr std::uint32_t kSlots = 3;
  static constexpr std::uint32_t kSpillAbove = 1;

  enum class Enq : std::uint8_t {
    kDone,    // deposited
    kFull,    // refused: no credit (kNoCredits: tail - head >= half)
    kGaveUp,  // max_rounds ran out holding a credit, deposit pending
  };

  /// Progress accounting for the threshold-bound proof, and credit-path
  /// counts that show a DPOR world reached each path: the engine runs
  /// coroutines cooperatively on one OS thread, so plain (non-simulated)
  /// members are race-free.
  struct Stats {
    std::uint64_t last_deq_rounds = 0;  // FAA rounds of the latest dequeue
    std::uint64_t max_deq_rounds = 0;   // worst dequeue seen on this ring
    std::uint64_t read_only_empties = 0;  // verdicts of the gated check
    std::uint64_t steals = 0;      // credits taken from another's slot
    std::uint64_t spills = 0;      // slot overflows moved to the depot
    std::uint64_t recollects = 0;  // second passes that saw a word move
  };

  // `mo` overrides the annotated orders (mutation sweeps); defaults mirror
  // queues/scq_queue.hpp -- rationale per site in sim/mo_table.hpp.
  SimScqRing(Engine& engine, std::uint32_t half, const MoTable* mo = nullptr,
             Variant variant = Variant::kFaithful)
      : half_(half),
        size_(half * 2),
        mask_(size_ - 1),
        order_(log2_pow2(size_)),
        rot_(order_ < kMaxRot ? order_ : kMaxRot),
        threshold_init_(3 * static_cast<std::int64_t>(half) - 1),
        variant_(variant),
        threshold_enabled_(variant != Variant::kNoThreshold),
        entries_(engine.memory().alloc(size_)),
        head_(engine.memory().alloc(1)),
        tail_(engine.memory().alloc(1)),
        threshold_(engine.memory().alloc(1)),
        depot_(engine.memory().alloc(1)),
        slots_(engine.memory().alloc(kSlots)),
        mo_credit_load_(site(mo, "scq.credit_load")),
        mo_credit_take_(site(mo, "scq.credit_take")),
        mo_credit_steal_(site(mo, "scq.credit_steal")),
        mo_credit_collect_(site(mo, "scq.credit_collect")),
        mo_credit_return_(site(mo, "scq.credit_return")),
        mo_credit_spill_cas_(site(mo, "scq.credit_spill_cas")),
        mo_credit_spill_add_(site(mo, "scq.credit_spill_add")),
        mo_enq_faa_tail_(site(mo, "scq.enq_faa_tail")),
        mo_enq_entry_load_(site(mo, "scq.enq_entry_load")),
        mo_enq_head_load_(site(mo, "scq.enq_head_load")),
        mo_enq_cas_(site(mo, "scq.enq_cas")),
        mo_threshold_check_(site(mo, "scq.threshold_check")),
        mo_threshold_store_(site(mo, "scq.threshold_store")),
        mo_threshold_faa_(site(mo, "scq.threshold_faa")),
        mo_deq_faa_head_(site(mo, "scq.deq_faa_head")),
        mo_deq_entry_load_(site(mo, "scq.deq_entry_load")),
        mo_deq_consume_and_(site(mo, "scq.deq_consume_and")),
        mo_deq_mark_cas_(site(mo, "scq.deq_mark_cas")),
        mo_deq_tail_load_(site(mo, "scq.deq_tail_load")),
        mo_catchup_cas_(site(mo, "scq.catchup_cas")),
        mo_empty_head_load_(site(mo, "scq.empty_head_load")),
        mo_empty_tail_load_(site(mo, "scq.empty_tail_load")) {
    // Construction is single-site: raw memory writes, no simulated cost
    // (the real ring is value-initialised: every entry cycle 0, empty).
    SimMemory& mem = engine.memory();
    for (std::uint32_t i = 0; i < size_; ++i) mem.word(entries_ + i) = 0;
    mem.word(head_) = 0;
    mem.word(tail_) = 0;
    // Empty ring: threshold -1 arms the dequeue fast path immediately.
    mem.word(threshold_) = static_cast<std::uint64_t>(std::int64_t{-1});
    mem.word(depot_) = half_;
    for (std::uint32_t i = 0; i < kSlots; ++i) mem.word(slots_ + i) = 0;
  }

  /// Take a credit, then deposit `v` (< kBottom).  `max_rounds` bounds the
  /// FAA-retry loop so DPOR worlds that race a lagging consumer stay
  /// finite; 0 = unbounded, like the real code.
  Task<Enq> enqueue(Proc& p, std::uint32_t v, std::uint32_t max_rounds = 0) {
    if (variant_ == Variant::kNoCredits) {
      // The tempting read-only bound: every enqueuer that reads the ring
      // below capacity goes ahead, however many do so at once.
      const std::uint64_t t = co_await read(p, tail_, mo_empty_tail_load_);
      const std::uint64_t h = co_await read(p, head_, mo_empty_head_load_);
      if (t >= h + half_) co_return Enq::kFull;
    } else {
      const bool credited = co_await take_credit(p);
      if (!credited) co_return Enq::kFull;
    }
    for (std::uint32_t round = 0;; ++round) {
      if (max_rounds != 0 && round == max_rounds) co_return Enq::kGaveUp;
      const std::uint64_t t = co_await faa(p, tail_, 1, mo_enq_faa_tail_);
      const Addr slot = entries_ + remap(t);
      const std::uint32_t cycle = ticket_cycle(t);
      // Real code: two 8-byte loads (meta, then value); see the header.
      std::uint64_t e = co_await read(p, slot, mo_enq_entry_load_);
      for (;;) {
        bool depositable =
            cycle_less(entry_cycle(e), cycle) && !entry_full(e);
        if (depositable && !entry_safe(e)) {
          const std::uint64_t h = co_await read(p, head_, mo_enq_head_load_);
          depositable = h <= t;
        }
        if (!depositable) break;  // take a new ticket
        const std::uint64_t seen = co_await cas(
            p, slot, e, make_entry(cycle, true, true, v), mo_enq_cas_);
        if (seen != e) {
          e = seen;
          continue;  // entry changed: re-test the same entry
        }
        if (threshold_enabled_) {
          const auto th = static_cast<std::int64_t>(
              co_await read(p, threshold_, mo_threshold_check_));
          if (th != threshold_init_) {
            co_await write(p, threshold_,
                           static_cast<std::uint64_t>(threshold_init_),
                           mo_threshold_store_);
          }
        }
        co_return Enq::kDone;
      }
    }
  }

  /// Take a value, or kBottom if the ring is (observably) empty.
  Task<std::uint32_t> dequeue(Proc& p) {
    if (threshold_enabled_) {
      const auto th = static_cast<std::int64_t>(
          co_await read(p, threshold_, mo_threshold_check_));
      if (th < 0) co_return kBottom;
      if (th != threshold_init_) {
        // The read-only empty check; kTailFirst swaps the two loads.
        std::uint64_t h = 0;
        std::uint64_t t = 0;
        if (variant_ == Variant::kTailFirst) {
          t = co_await read(p, tail_, mo_empty_tail_load_);
          h = co_await read(p, head_, mo_empty_head_load_);
        } else {
          h = co_await read(p, head_, mo_empty_head_load_);
          t = co_await read(p, tail_, mo_empty_tail_load_);
        }
        if (t <= h) {
          ++stats_.read_only_empties;
          co_return kBottom;
        }
      }
    }
    std::uint64_t rounds = 0;
    for (;;) {
      ++rounds;
      const std::uint64_t h = co_await faa(p, head_, 1, mo_deq_faa_head_);
      const Addr slot = entries_ + remap(h);
      const std::uint32_t cycle = ticket_cycle(h);
      // Real code: the meta load; the value half is loaded on a match.
      std::uint64_t e = co_await read(p, slot, mo_deq_entry_load_);
      for (;;) {
        if (entry_cycle(e) == cycle) {
          // Real code: fetch_and(~full) on meta.  The engine has no
          // fetch_and, so CAS until it lands; between our load and the CAS
          // only LATER dequeue tickets can touch a cycle-matching full
          // entry, and all they can do is set the unsafe bit -- so
          // retrying with the seen value is the same fetch_and.
          for (;;) {
            const std::uint64_t seen = co_await cas(
                p, slot, e, e & ~kFullBit, mo_deq_consume_and_);
            if (seen == e) break;
            e = seen;
          }
          if (variant_ != Variant::kNoCredits) co_await return_credit(p);
          note_rounds(rounds);
          co_return entry_value(e);
        }
        if (cycle_less(entry_cycle(e), cycle)) {
          // The real mark is an 8-byte CAS on meta: the value half (here
          // the value bits) rides along unchanged.
          const std::uint64_t desired =
              entry_full(e)
                  ? (e | kUnsafeBit)
                  : make_entry(cycle, entry_safe(e), false, entry_value(e));
          const std::uint64_t seen =
              co_await cas(p, slot, e, desired, mo_deq_mark_cas_);
          if (seen != e) {
            e = seen;
            continue;  // entry changed: re-test (it may now match our cycle)
          }
        }
        const std::uint64_t t = co_await read(p, tail_, mo_deq_tail_load_);
        if (t <= h + 1) {
          co_await catch_up(p, t, h + 1);
          if (threshold_enabled_) {
            (void)co_await faa(p, threshold_, ~0ull, mo_threshold_faa_);
          }
          note_rounds(rounds);
          co_return kBottom;
        }
        if (threshold_enabled_) {
          const auto prior = static_cast<std::int64_t>(
              co_await faa(p, threshold_, ~0ull, mo_threshold_faa_));
          if (prior <= 0) {
            note_rounds(rounds);
            co_return kBottom;  // search budget exhausted
          }
        }
        break;  // keep scanning with a new ticket
      }
    }
  }

  [[nodiscard]] std::uint32_t half() const noexcept { return half_; }
  [[nodiscard]] std::int64_t threshold_init() const noexcept {
    return threshold_init_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Raw-word peeks for test assertions (no simulated cost).
  [[nodiscard]] std::uint64_t peek_head(const Engine& e) const {
    return e.memory().peek(head_);
  }
  [[nodiscard]] std::uint64_t peek_tail(const Engine& e) const {
    return e.memory().peek(tail_);
  }
  [[nodiscard]] std::int64_t peek_threshold(const Engine& e) const {
    return static_cast<std::int64_t>(e.memory().peek(threshold_));
  }

  /// Spare credits: the depot's count plus every slot's (no simulated
  /// cost).  Credits held by items and by calls in progress make up the
  /// rest of `half`.
  [[nodiscard]] std::uint32_t peek_free_credits(const Engine& e) const {
    std::uint32_t n = count(e.memory().peek(depot_));
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      n += count(e.memory().peek(slots_ + i));
    }
    return n;
  }

  /// Values deposited at tickets no dequeuer holds yet (>= head), in
  /// ticket order (no simulated cost).  An item whose ticket a dequeuer
  /// already drew is that dequeuer's, so these are what an empty verdict
  /// must not miss; at quiescence they are the ring's whole contents.
  [[nodiscard]] std::vector<std::uint32_t> peek_unclaimed(
      const Engine& e) const {
    std::vector<std::uint32_t> items;
    const std::uint64_t head = e.memory().peek(head_);
    for (std::uint64_t t = head; t < head + size_; ++t) {
      const std::uint64_t entry = e.memory().peek(entries_ + remap(t));
      if (entry_cycle(entry) == ticket_cycle(t) && entry_full(entry)) {
        items.push_back(entry_value(entry));
      }
    }
    return items;
  }

  /// Deposited values not yet consumed, wherever they sit (no simulated
  /// cost): the count the capacity bound limits to `half`.
  [[nodiscard]] std::uint32_t peek_unconsumed(const Engine& e) const {
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (entry_full(e.memory().peek(entries_ + i))) ++n;
    }
    return n;
  }

  /// Pre-arm the search budget as if a deposit had just happened (models
  /// "some earlier enqueue/dequeue pair completed"), less `misses`
  /// fruitless dequeues since -- misses > 0 opens the gated empty check.
  /// Construction-time only, raw write.
  void arm_threshold(Engine& e, std::int64_t misses = 0) const {
    e.memory().word(threshold_) =
        static_cast<std::uint64_t>(threshold_init_ - misses);
  }

  /// Deposit `v` at the next tail ticket as a completed enqueue would,
  /// spending a credit and re-arming the budget.  Construction-time only,
  /// raw writes.
  void prefill(Engine& e, std::uint32_t v) const {
    SimMemory& mem = e.memory();
    const std::uint64_t t = mem.word(tail_);
    mem.word(entries_ + remap(t)) = make_entry(ticket_cycle(t), true, true, v);
    mem.word(tail_) = t + 1;
    mem.word(depot_) -= 1;
    arm_threshold(e);
  }

  /// Move one depot credit into `slot`, as a dequeue on a thread that
  /// owns it would have returned one.  Construction-time only, raw writes.
  void park_credit(Engine& e, std::uint32_t slot) const {
    SimMemory& mem = e.memory();
    mem.word(depot_) -= 1;
    mem.word(slots_ + slot % kSlots) += kBump + 1;
  }

 private:
  static constexpr std::uint64_t kValueMask = 0x3FFFFFFFull;
  static constexpr std::uint64_t kFullBit = 0x40000000ull;
  static constexpr std::uint64_t kUnsafeBit = 0x80000000ull;
  static constexpr std::uint32_t kMaxRot = 4;
  static constexpr std::uint64_t kBump = std::uint64_t{1} << 32;

  /// One annotated access: its sim/mo_table.hpp site and resolved order.
  /// The accessors below tag the process with the site name (zero cost)
  /// before the access, so hb race reports name the line.
  struct Site {
    const char* name;
    check::MemOrder order;
  };
  static Site site(const MoTable* mo, const char* name) {
    return {name, mo_resolve(mo, name)};
  }
  static Proc::OpAwaiter read(Proc& p, Addr a, const Site& s) {
    p.annotate(s.name);
    return p.read(a, s.order);
  }
  static Proc::OpAwaiter write(Proc& p, Addr a, std::uint64_t v,
                               const Site& s) {
    p.annotate(s.name);
    return p.write(a, v, s.order);
  }
  static Proc::OpAwaiter cas(Proc& p, Addr a, std::uint64_t expected,
                             std::uint64_t desired, const Site& s) {
    p.annotate(s.name);
    return p.cas(a, expected, desired, s.order);
  }
  static Proc::OpAwaiter faa(Proc& p, Addr a, std::uint64_t delta,
                             const Site& s) {
    p.annotate(s.name);
    return p.faa(a, delta, s.order);
  }

  static constexpr std::uint64_t make_entry(std::uint32_t cycle, bool safe,
                                            bool full,
                                            std::uint32_t v) noexcept {
    return (static_cast<std::uint64_t>(cycle) << 32) |
           (safe ? 0ull : kUnsafeBit) | (full ? kFullBit : 0ull) |
           (v & kValueMask);
  }
  static constexpr std::uint32_t entry_cycle(std::uint64_t e) noexcept {
    return static_cast<std::uint32_t>(e >> 32);
  }
  static constexpr bool entry_safe(std::uint64_t e) noexcept {
    return (e & kUnsafeBit) == 0;
  }
  static constexpr bool entry_full(std::uint64_t e) noexcept {
    return (e & kFullBit) != 0;
  }
  static constexpr std::uint32_t entry_value(std::uint64_t e) noexcept {
    return static_cast<std::uint32_t>(e & kValueMask);
  }
  static constexpr bool cycle_less(std::uint32_t a, std::uint32_t b) noexcept {
    return static_cast<std::int32_t>(a - b) < 0;
  }
  static constexpr std::uint32_t count(std::uint64_t credit_word) noexcept {
    return static_cast<std::uint32_t>(credit_word);
  }
  static constexpr std::uint32_t log2_pow2(std::uint32_t n) noexcept {
    std::uint32_t l = 0;
    while ((1u << l) < n) ++l;
    return l;
  }

  /// Ticket t's lap plus one, so the zeroed ring is older than lap one.
  [[nodiscard]] std::uint32_t ticket_cycle(std::uint64_t ticket) const
      noexcept {
    return static_cast<std::uint32_t>(ticket >> order_) + 1;
  }
  [[nodiscard]] std::uint32_t remap(std::uint64_t ticket) const noexcept {
    const std::uint32_t i = static_cast<std::uint32_t>(ticket) & mask_;
    return ((i << rot_) | (i >> (order_ - rot_))) & mask_;
  }

  /// Credit word i in take order: the caller's slot, the depot, then the
  /// other slots from the caller's onward.
  [[nodiscard]] Addr credit_word(std::uint32_t own, std::uint32_t i) const {
    if (i == 1) return depot_;
    return slots_ + (own + (i == 0 ? 0 : i - 1)) % kSlots;
  }

  /// The real take_credit: a taking pass, then (unless kSingleCollect) a
  /// read-only pass that refuses only if every word still holds the value
  /// the taking pass last read.
  Task<bool> take_credit(Proc& p) {
    const std::uint32_t own = p.id() % kSlots;
    std::uint64_t seen[kSlots + 1] = {};
    for (;;) {
      for (std::uint32_t i = 0; i <= kSlots; ++i) {
        const Addr word = credit_word(own, i);
        std::uint64_t w = co_await read(p, word, mo_credit_load_);
        while (count(w) != 0) {
          const std::uint64_t got = co_await cas(
              p, word, w, w - 1, i >= 2 ? mo_credit_steal_ : mo_credit_take_);
          if (got == w) {
            if (i >= 2) ++stats_.steals;
            co_return true;
          }
          w = got;
        }
        seen[i] = w;
      }
      if (variant_ == Variant::kSingleCollect) co_return false;
      bool moved = false;
      for (std::uint32_t i = 0; i <= kSlots && !moved; ++i) {
        moved = co_await read(p, credit_word(own, i), mo_credit_collect_) !=
                seen[i];
      }
      if (!moved) co_return false;
      ++stats_.recollects;
    }
  }

  /// The real return_credit: bump the caller's slot; a slot above
  /// kSpillAbove keeps kSpillAbove / 2 and moves the rest to the depot.
  Task<void> return_credit(Proc& p) {
    const Addr slot = slots_ + p.id() % kSlots;
    const std::uint64_t bump = variant_ == Variant::kNoVersion ? 0 : kBump;
    std::uint64_t w =
        co_await faa(p, slot, bump + 1, mo_credit_return_) + bump + 1;
    while (count(w) > kSpillAbove) {
      const std::uint32_t spill = count(w) - kSpillAbove / 2;
      const std::uint64_t got =
          co_await cas(p, slot, w, w - spill, mo_credit_spill_cas_);
      if (got == w) {
        (void)co_await faa(p, depot_, bump + spill, mo_credit_spill_add_);
        ++stats_.spills;
        co_return;
      }
      w = got;
    }
  }

  Task<void> catch_up(Proc& p, std::uint64_t t, std::uint64_t h) {
    for (;;) {
      const std::uint64_t seen = co_await cas(p, tail_, t, h, mo_catchup_cas_);
      if (seen == t) co_return;
      // The losers' head reload shares the enqueue's head-word load site.
      h = co_await read(p, head_, mo_enq_head_load_);
      t = co_await read(p, tail_, mo_deq_tail_load_);
      if (t >= h) co_return;
    }
  }

  void note_rounds(std::uint64_t rounds) noexcept {
    stats_.last_deq_rounds = rounds;
    if (rounds > stats_.max_deq_rounds) stats_.max_deq_rounds = rounds;
  }

  std::uint32_t half_;
  std::uint32_t size_;
  std::uint32_t mask_;
  std::uint32_t order_;
  std::uint32_t rot_;
  std::int64_t threshold_init_;
  Variant variant_;
  bool threshold_enabled_;
  Addr entries_;
  Addr head_;
  Addr tail_;
  Addr threshold_;
  Addr depot_;
  Addr slots_;
  Site mo_credit_load_;
  Site mo_credit_take_;
  Site mo_credit_steal_;
  Site mo_credit_collect_;
  Site mo_credit_return_;
  Site mo_credit_spill_cas_;
  Site mo_credit_spill_add_;
  Site mo_enq_faa_tail_;
  Site mo_enq_entry_load_;
  Site mo_enq_head_load_;
  Site mo_enq_cas_;
  Site mo_threshold_check_;
  Site mo_threshold_store_;
  Site mo_threshold_faa_;
  Site mo_deq_faa_head_;
  Site mo_deq_entry_load_;
  Site mo_deq_consume_and_;
  Site mo_deq_mark_cas_;
  Site mo_deq_tail_load_;
  Site mo_catchup_cas_;
  Site mo_empty_head_load_;
  Site mo_empty_tail_load_;
  Stats stats_;
};

}  // namespace msq::sim
