// Umbrella header: every queue and stack in the library, plus FifoFamilies,
// the one list of its globally-FIFO queue families.
//
// The FIFO test suites (queue_basic, queue_concurrent,
// queue_linearizability, pool_exhaustion), the differential sweep and
// micro_ops all derive their family lists from FifoFamilies, so adding a
// family is one line here (DESIGN.md, "Adding a queue family").  Not in the
// registry, because they are not globally-FIFO MPMC queues: SpscRing
// (Lamport single-producer/single-consumer), TreiberStack (the LIFO behind
// the free list) and ShardedQueue with N > 1 shards (per-shard FIFO only;
// tests/sharded_queue_test.cpp holds it to that contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "mem/freelist.hpp"
#include "queues/mellor_crummey_queue.hpp"
#include "queues/ms_queue.hpp"
#include "queues/ms_queue_hp.hpp"
#include "queues/plj_queue.hpp"
#include "queues/queue_concept.hpp"
#include "queues/ring_queue.hpp"
#include "queues/scq_queue.hpp"
#include "queues/segment_queue.hpp"
#include "queues/sharded_queue.hpp"
#include "queues/single_lock_queue.hpp"
#include "queues/spsc_ring.hpp"
#include "queues/treiber_stack.hpp"
#include "queues/two_lock_queue.hpp"
#include "queues/valois_queue.hpp"
#include "queues/wf_queue.hpp"
#include "sync/backoff.hpp"

namespace msq::queues {

/// A string literal as a template argument: a family's name.
template <std::size_t N>
struct FamilyName {
  // Implicit, so that Family<"msq", ...> converts the literal.
  constexpr FamilyName(const char (&text)[N]) {
    for (std::size_t i = 0; i < N; ++i) chars[i] = text[i];
  }
  char chars[N];
};

/// One registry entry: a short name that stays stable (test instance
/// names, micro_ops rows) and the queue type.
template <FamilyName Name, typename Q>
struct Family {
  static constexpr std::string_view name{Name.chars};
  using type = Q;
};

template <typename... Fs>
struct FamilyList;

/// The entries of `List` whose `Q::traits` set `Flag`, in list order.
template <typename List, bool QueueTraits::*Flag>
struct FamiliesWith;

/// A compile-time list of Family entries.
template <typename... Fs>
struct FamilyList {
  /// The entries' queue types as the arguments of `L`.
  template <template <typename...> class L>
  using apply = L<typename Fs::type...>;

  /// This list followed by `More`.
  template <typename... More>
  using plus = FamilyList<Fs..., More...>;

  /// The entries whose `Q::traits` set `Flag`, in list order.
  template <bool QueueTraits::*Flag>
  using with = typename FamiliesWith<FamilyList, Flag>::type;

  /// Calls `fn.template operator()<F>()` for every entry F, in list order.
  template <typename Fn>
  static void for_each(Fn&& fn) {
    (fn.template operator()<Fs>(), ...);
  }

  /// The name of the entry whose queue type is Q ("" if none is).
  template <typename Q>
  static constexpr std::string_view name_of() {
    std::string_view name;
    (void)((std::is_same_v<Q, typename Fs::type> && (name = Fs::name, true)) ||
           ...);
    return name;
  }

  /// Every entry is a ConcurrentQueue and no name repeats.
  static constexpr bool well_formed() {
    if (!(ConcurrentQueue<typename Fs::type> && ...)) return false;
    constexpr std::string_view names[] = {Fs::name..., ""};
    for (std::size_t i = 0; i < sizeof...(Fs); ++i) {
      for (std::size_t j = i + 1; j < sizeof...(Fs); ++j) {
        if (names[i] == names[j]) return false;
      }
    }
    return true;
  }
};

/// Concatenation, for type computations only (never called).
template <typename... A, typename... B>
FamilyList<A..., B...> operator+(FamilyList<A...>, FamilyList<B...>);

template <typename... Fs, bool QueueTraits::*Flag>
struct FamiliesWith<FamilyList<Fs...>, Flag> {
  using type = decltype((FamilyList<>{} + ... +
                         std::conditional_t<(Fs::type::traits.*Flag),
                                            FamilyList<Fs>, FamilyList<>>{}));
};

/// Every globally-FIFO MPMC queue family, over std::uint64_t.
using FifoFamilies = FamilyList<
    // Core contributions (Michael & Scott, PODC'96).
    Family<"msq", MsQueue<std::uint64_t>>,  // Figure 1, per-thread magazines
    Family<"msq_fl", MsQueue<std::uint64_t, sync::Backoff, mem::FreeList>>,
    Family<"msq_dw", MsQueueDw<std::uint64_t>>,  // 128-bit counted pointers
    Family<"msq_hp", MsQueueHp<std::uint64_t>>,  // hazard pointers, unbounded
    Family<"twolock", TwoLockQueue<std::uint64_t>>,  // Figure 2
    // The paper's section 4 baselines.
    Family<"singlelock", SingleLockQueue<std::uint64_t>>,
    Family<"mc", MellorCrummeyQueue<std::uint64_t>>,
    Family<"plj", PljQueue<std::uint64_t>>,
    Family<"valois", ValoisQueue<std::uint64_t>>,
    // Modern bounded rings: Vyukov-style ticketed and Nikolaev's SCQ.
    Family<"ring", RingQueue<std::uint64_t>>,
    Family<"scq", ScqQueue<std::uint64_t>>,
    // Extensions: FAA segments, the degenerate one-shard front end (still
    // global FIFO) and the wait-free helping wrapper.
    Family<"segq", SegmentQueue<std::uint64_t>>,
    Family<"shard1", ShardedQueue<MsQueue<std::uint64_t>, 1>>,
    Family<"wfq", WfQueue<std::uint64_t>>>;

static_assert(FifoFamilies::well_formed(),
              "every family must be a ConcurrentQueue with a unique name");

}  // namespace msq::queues
