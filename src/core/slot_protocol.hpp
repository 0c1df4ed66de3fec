// The publication-slot protocol, written once: the states, the
// owner-tagged slot words, and SlotEngine, the one implementation of
// claim, publish, wait, collect, combine and the combiner gate that
// both combining wrappers are built on.
//
// Two wrappers run this engine: the in-process Combining
// (core/combining.hpp), whose engine lives in one process's heap or
// stack, and the cross-process ShmCombining (shm/shm_combining.hpp),
// whose engine lives at an offset inside a shared-memory segment. They
// differ only in what they pass in — the wait scope and slot payload
// as template arguments, the owner id, election attempts and
// may_combine per call (SlotCaller) — so the engine code the explorer
// checks through either wrapper is the code both ship.
//
// Lifecycle of one publication record:
//
//   kFree ──CAS──▶ kClaimed ──release──▶ kPending ──release──▶ kDone
//     ▲   (publisher owns     (request visible      (result visible
//     │    the record)         to combiners)         to the publisher)
//     └──────────────────────── release ◀────────────────────────┘
//                       (publisher collects, record recycles)
//
// kClaimed exists so a colliding publisher can never observe a
// half-written request: a combiner only reads slots it sees as
// kPending, and the kPending store releases the plain request/init
// writes before it. The same fence discipline makes the protocol
// correct across processes — std::atomic on a lock-free 32/64-bit word
// is address-free, so acquire/release pairs work between mappings of
// the same physical page at different virtual addresses.
//
// Detached completion (OpCompletion, core/batch.hpp) rides alongside:
// kAttached slots are handed back to a waiting publisher in kDone;
// kDetached slots have no collector, so the combiner retires them
// straight back to kFree after running the slot's payload.
//
// Telemetry, platform and step accounting: the counters are written
// only by the gate holder (the gate's acquire/release orders
// successive holders), so a relaxed load + store counts exactly
// without a locked RMW. Every blocking point goes through wait_until
// (runtime/wait.hpp): native contexts climb spin → yield → park on
// the engine's WaitPoint, and the deterministic simulator parks the
// process on the predicate, so sim::explore enumerates this code's
// interleavings. The counted steps are the algorithm's real
// shared-memory traffic: the claim CAS, the publish write, the result
// read, the gate CAS, the combiner's per-slot read and writeback, and
// reclaim_dead's gate CAS and frees. Unbounded spin loads, failed gate
// pre-tests, the gate's release store and the publisher's final kFree
// store are not counted: under the simulator each is adjacent to a
// counted scheduling point, so no interleaving class is lost — only
// equivalent schedules collapse, which keeps exhaustive exploration
// tractable.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "core/batch.hpp"
#include "core/module.hpp"
#include "history/request.hpp"
#include "runtime/wait.hpp"
#include "shm/shm_layout.hpp"
#include "support/backoff.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"

namespace scm {

// Protocol revision: bumped whenever a state is added/renumbered or a
// transition changes meaning. Cross-process consumers fold it into
// their segment type tags so two binaries speaking different protocol
// revisions fail fast at attach time instead of corrupting slots.
inline constexpr std::uint32_t kSlotProtocolVersion = 1;

// ---- seeded protocol mutation (kill-the-mutant gate) ---------------
//
// Compiling with -DSCM_MUTATE_SLOT_PROTOCOL plants ONE deliberate
// protocol bug: SlotEngine::claim drops the ownership stamp, so a
// record claimed by a process that then dies carries owner 0 and the
// reclaim sweep — which must skip unowned records — can never free it.
// This exists to prove the verification layer has teeth: the
// slot_mutation_catch CTest entry compiles the explorer suite with the
// flag and passes only when the publisher crash sweep fails with its
// "record not swept" message. Never define the flag in a
// shipping build; the constant below keeps the mutation a plain `if`
// in protocol code instead of scattered #ifdefs.
#if defined(SCM_MUTATE_SLOT_PROTOCOL)
inline constexpr bool kMutateDropOwnerStamp = true;
#else
inline constexpr bool kMutateDropOwnerStamp = false;
#endif

enum class SlotState : std::uint32_t {
  kFree = 0,     // recyclable; the only state a claim CAS fires from
  kClaimed = 1,  // a publisher owns the record and is writing into it
  kPending = 2,  // request visible; exactly one combiner will serve it
  kDone = 3,     // result visible; the publisher collects and recycles
};

// ---- owner-tagged slot words ---------------------------------------
//
// A cross-process publisher can die (SIGKILL) between claim and
// collect, and nothing in its address space survives to recycle the
// record. Slot words therefore pack {state, owner id} into ONE atomic
// 64-bit word — state in the low half, owner in the high half — so the
// claim CAS and the ownership stamp are a single indivisible step: a
// reclaim sweep can never observe a claimed record whose owner field
// still belongs to a previous (possibly dead) occupant. Owner 0 means
// "unowned"; every caller's owner id is nonzero.

[[nodiscard]] constexpr std::uint64_t pack_slot(SlotState state,
                                                std::uint32_t owner) noexcept {
  return static_cast<std::uint64_t>(state) |
         (static_cast<std::uint64_t>(owner) << 32);
}

[[nodiscard]] constexpr SlotState slot_state_of(std::uint64_t word) noexcept {
  return static_cast<SlotState>(word & 0xffffffffull);
}

[[nodiscard]] constexpr std::uint32_t slot_owner_of(
    std::uint64_t word) noexcept {
  return static_cast<std::uint32_t>(word >> 32);
}

static_assert(slot_state_of(pack_slot(SlotState::kPending, 0x1234)) ==
              SlotState::kPending);
static_assert(slot_owner_of(pack_slot(SlotState::kPending, 0x1234)) == 0x1234);
static_assert(pack_slot(SlotState::kFree, 0) == 0,
              "zero-initialized slot words must read as free/unowned");

// Who is calling into the engine; each wrapper fills it in per call.
// scm-lint: process-local
struct SlotCaller {
  std::uint32_t owner;           // nonzero id stamped into gate and slots
  std::uint32_t elect_attempts;  // gate attempts before publishing
  bool may_combine;              // may take the gate on the slow path
};

// The slot payload of a wrapper that runs nothing on completion: empty,
// so a segment-resident slot stores no pointer.
struct NoSlotPayload {
  void operator()(const ModuleResult& /*result*/) const noexcept {}
};
SCM_ASSERT_ADDRESS_FREE(NoSlotPayload);

// The engine. kScope is the futex scope of its WaitPoint (kShared when
// the engine lives in a segment). Payload is copied into each published
// slot and called with the op's result, under the gate, by whichever
// thread executes the op — on the direct path and in combine() alike.
template <class Obj, std::size_t kSlots, FutexScope kScope, class Payload>
class SlotEngine {
  static_assert(kSlots >= 1, "a combining wrapper needs at least one slot");

 public:
  // One publication record, on cache lines of its own so distinct
  // publishers write distinct lines. request/init/result/completion/
  // payload are plain fields ordered by the word's release stores.
  // init is (has_init, value) rather than std::optional, whose layout
  // is not guaranteed segment-safe.
  struct alignas(kCacheLineSize) Slot {
    std::atomic<std::uint64_t> word{0};  // pack_slot(kFree, 0)
    Request request{};
    SwitchValue init_value = 0;
    ModuleResult result{};
    bool has_init = false;
    OpCompletion completion = OpCompletion::kAttached;
    [[no_unique_address]] Payload payload{};
  };
  SCM_ASSERT_ADDRESS_FREE(Slot);

  SlotEngine()
    requires std::is_default_constructible_v<Obj>
      : obj_{} {}

  template <class... Args>
  explicit SlotEngine(std::in_place_t, Args&&... args)
      : obj_(std::forward<Args>(args)...) {}

  SlotEngine(const SlotEngine&) = delete;
  SlotEngine& operator=(const SlotEngine&) = delete;

  // ---- the per-op round trip.

  // Publish, then wait to be served or combine; the blocking operation
  // both wrappers ship.
  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, SlotCaller who, const Request& m,
                      std::optional<SwitchValue> init) {
    ModuleResult r;
    const auto idx =
        submit(ctx, who, m, init, OpCompletion::kAttached, Payload{}, &r);
    if (!idx.has_value()) return r;
    wait_done(ctx, who, *idx);
    return collect(ctx, *idx);
  }

  // Runs the op directly when the gate can be taken within
  // who.elect_attempts tries (a batch of one, no publication round
  // trip), or claims and publishes a record. Returns nullopt with *out
  // filled when the op completed inline, else the published record's
  // index; a kAttached record is the caller's to wait_done/collect.
  template <class Ctx>
  std::optional<std::size_t> submit(Ctx& ctx, SlotCaller who,
                                    const Request& m,
                                    std::optional<SwitchValue> init,
                                    OpCompletion completion,
                                    const Payload& payload, ModuleResult* out) {
    for (std::uint32_t a = 0; a < who.elect_attempts; ++a) {
      if (a != 0) cpu_pause();
      if (try_gate(ctx, who.owner)) {
        *out = run_direct(ctx, m, init, payload);
        return std::nullopt;
      }
    }
    const auto idx = claim(ctx, who, m, init, payload, out);
    if (idx.has_value()) {
      publish(ctx, *idx, who.owner, m, init, completion, payload);
    }
    return idx;
  }

  // Waits until record idx is kDone, electing the caller combiner
  // whenever the gate is free and who.may_combine allows it (our own
  // pending record guarantees that pass serves at least us). The wait
  // parks until something can have changed: the record completed, or
  // the gate freed and the election is worth re-attempting.
  template <class Ctx>
  void wait_done(Ctx& ctx, SlotCaller who, std::size_t idx) {
    Slot& slot = slots_[idx];
    for (;;) {
      if (is_done(idx)) return;
      if (who.may_combine && try_serve(ctx, who.owner)) continue;
      wait_until(
          ctx,
          [this, &slot, who] {
            return slot_state_of(slot.word.load(std::memory_order_relaxed)) ==
                       SlotState::kDone ||
                   (who.may_combine &&
                    gate_.load(std::memory_order_relaxed) == 0);
          },
          futex_waiters_);
    }
  }

  [[nodiscard]] bool is_done(std::size_t idx) const noexcept {
    return slot_state_of(slots_[idx].word.load(std::memory_order_acquire)) ==
           SlotState::kDone;
  }

  // Consumes a kDone record: reads the result and recycles the record.
  template <class Ctx>
  ModuleResult collect(Ctx& ctx, std::size_t idx) {
    Slot& slot = slots_[idx];
    ctx.on_read();
    const ModuleResult r = slot.result;
    slot.word.store(pack_slot(SlotState::kFree, 0), std::memory_order_release);
    // A freed record is what claim()'s exhaustion wait parks on.
    futex_waiters_.wake_all();
    return r;
  }

  // ---- the gate: combiner election word holding the holder's owner
  // id (0 = free), which is what lets reclaim_dead tell "busy" from
  // "wedged by a corpse".

  template <class Ctx>
  bool try_gate(Ctx& ctx, std::uint32_t self) {
    std::uint32_t expected = 0;
    if (gate_.load(std::memory_order_relaxed) == 0 &&
        gate_.compare_exchange_strong(expected, self,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      ctx.on_rmw();
      return true;
    }
    return false;
  }

  // Blocks until the caller holds the gate.
  template <class Ctx>
  void lock_gate(Ctx& ctx, std::uint32_t self) {
    while (!try_gate(ctx, self)) {
      wait_until(
          ctx, [this] { return gate_.load(std::memory_order_relaxed) == 0; },
          futex_waiters_);
    }
  }

  void release_gate() noexcept {
    gate_.store(0, std::memory_order_release);
    // One batched wake per combine pass / gate handover: kDone slots,
    // gate-waiters, and drain()ers all re-check off this single call.
    // Uncontended cost: a fence + one relaxed load, no syscall.
    futex_waiters_.wake_all();
  }

  // Pre: gate held. fn(object) executes `ops` operations directly;
  // then whatever was published meanwhile is served and the gate is
  // released.
  template <class Ctx, class Fn>
  void run_held(Ctx& ctx, std::uint64_t ops, Fn&& fn) {
    fn(obj_);
    bump(direct_ops_, ops);
    combine(ctx);
    release_gate();
  }

  // One combine pass if the gate is free right now; false when someone
  // else holds it.
  template <class Ctx>
  bool try_serve(Ctx& ctx, std::uint32_t self) {
    if (!try_gate(ctx, self)) return false;
    combine(ctx);
    release_gate();
    return true;
  }

  // Combines until no publication is pending: every op published
  // before the call has executed on return (kDone records still await
  // their publishers; detached ones are retired).
  template <class Ctx>
  void drain(Ctx& ctx, std::uint32_t self) {
    while (pending() != 0) {
      if (try_serve(ctx, self)) continue;
      wait_until(
          ctx,
          [this] {
            return pending() == 0 || gate_.load(std::memory_order_relaxed) == 0;
          },
          futex_waiters_);
    }
  }

  // Sweeps the wreckage of dead owners: frees kClaimed and kDone slots
  // whose owner fails `alive`, after taking the gate — free, or stolen
  // from a dead holder (a dead combiner wedges everything). Runs UNDER
  // the gate so it cannot race a live combiner's scan/writeback; if a
  // live owner holds the gate the sweep is skipped (returns 0 — call
  // again later). Returns slots freed. kPending records of dead owners
  // are exempt: the publication is complete, so the next combine pass
  // executes it and the record resurfaces here as a dead-owned kDone.
  template <class Ctx, class Alive>
  std::size_t reclaim_dead(Ctx& ctx, std::uint32_t self, Alive&& alive) {
    std::uint32_t holder = gate_.load(std::memory_order_acquire);
    if (holder != 0 && alive(holder)) return 0;
    // The CAS fails if anyone else (a combiner, another reclaimer) got
    // there first.
    if (!gate_.compare_exchange_strong(holder, self, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return 0;
    }
    ctx.on_rmw();

    std::size_t reclaimed = 0;
    for (Slot& s : slots_) {
      std::uint64_t w = s.word.load(std::memory_order_acquire);
      const SlotState state = slot_state_of(w);
      const std::uint32_t owner = slot_owner_of(w);
      if (owner == 0 || state == SlotState::kFree ||
          state == SlotState::kPending || alive(owner)) {
        continue;
      }
      // Only the owner performs kClaimed->kPending and kDone->kFree,
      // and the owner is dead; the gate excludes combiners. The CAS is
      // belt-and-braces against a probe that raced the owner's death.
      if (s.word.compare_exchange_strong(w, pack_slot(SlotState::kFree, 0),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        ctx.on_rmw();
        ++reclaimed;
      }
    }
    // The release wake doubles as the orphan sweep-up: live waiters
    // parked against state a dead owner was supposed to change re-check
    // their predicates against the swept slots and the freed gate.
    release_gate();
    return reclaimed;
  }

  // ---- probes and telemetry.

  // Published-but-unserved operations right now (acquire scan; there
  // is no cached count, which would drift for good when the process
  // about to decrement it dies).
  [[nodiscard]] std::size_t pending() const noexcept {
    return count_in_state(SlotState::kPending);
  }
  // Records not currently kFree — the slot-residue probe.
  [[nodiscard]] std::size_t occupied() const noexcept {
    return kSlots - count_in_state(SlotState::kFree);
  }
  // Owner id of the current gate holder (0 = gate free).
  [[nodiscard]] std::uint32_t gate_holder() const noexcept {
    return gate_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t combine_rounds() const noexcept {
    return rounds_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t combined_ops() const noexcept {
    return batched_ops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t direct_ops() const noexcept {
    return direct_ops_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] WaitPoint<kScope>& wait_point() noexcept {
    return futex_waiters_;
  }
  [[nodiscard]] const WaitPoint<kScope>& wait_point() const noexcept {
    return futex_waiters_;
  }

  [[nodiscard]] Obj& object() noexcept { return obj_; }
  [[nodiscard]] const Obj& object() const noexcept { return obj_; }

 private:
  // Pre: gate held. Runs one op directly and fires its payload at the
  // same point in the serialization order where combine() fires a
  // published op's payload: payloads across all paths fire in
  // linearization order, and must never re-enter the engine.
  template <class Ctx>
  ModuleResult run_direct(Ctx& ctx, const Request& m,
                          std::optional<SwitchValue> init,
                          const Payload& payload) {
    ModuleResult r;
    run_held(ctx, 1, [&](Obj& o) {
      r = scm::apply(o, ctx, m, init);
      payload(r);
    });
    return r;
  }

  // Claims a free record, one rotation from the hint ctx.id() % kSlots,
  // with the ownership stamp in the claim CAS itself — the
  // indivisibility reclaim_dead depends on, and exactly what the
  // seeded mutation severs. When every record is busy and the caller
  // may combine, the op runs inline under the gate instead (nullopt,
  // *out filled): a kDone record frees only when its owner collects,
  // and async owners may all be stuck here at once, but the gate
  // always frees in bounded time. Otherwise the caller parks until a
  // record frees — a publisher's collect, or reclaim_dead sweeping a
  // corpse's records — or, if it may combine, the gate does.
  template <class Ctx>
  std::optional<std::size_t> claim(Ctx& ctx, SlotCaller who, const Request& m,
                                   std::optional<SwitchValue> init,
                                   const Payload& payload, ModuleResult* out) {
    const std::uint32_t stamp = kMutateDropOwnerStamp ? 0 : who.owner;
    const std::size_t hint = static_cast<std::size_t>(ctx.id()) % kSlots;
    for (;;) {
      for (std::size_t k = 0; k < kSlots; ++k) {
        const std::size_t idx =
            hint + k < kSlots ? hint + k : hint + k - kSlots;
        std::uint64_t expected = pack_slot(SlotState::kFree, 0);
        if (slots_[idx].word.load(std::memory_order_relaxed) == expected &&
            slots_[idx].word.compare_exchange_strong(
                expected, pack_slot(SlotState::kClaimed, stamp),
                std::memory_order_acquire, std::memory_order_relaxed)) {
          ctx.on_rmw();
          return idx;
        }
      }
      if (who.may_combine && try_gate(ctx, who.owner)) {
        *out = run_direct(ctx, m, init, payload);
        return std::nullopt;
      }
      wait_until(
          ctx,
          [this, who] {
            return count_in_state(SlotState::kFree) != 0 ||
                   (who.may_combine &&
                    gate_.load(std::memory_order_relaxed) == 0);
          },
          futex_waiters_);
    }
  }

  // Publishes into a claimed record: the plain field writes are
  // ordered by the release store of kPending — the op's one mandatory
  // shared-memory step on this path. The owner rides in the word so a
  // reclaimer knows whose publication this is.
  template <class Ctx>
  void publish(Ctx& ctx, std::size_t idx, std::uint32_t owner,
               const Request& m, std::optional<SwitchValue> init,
               OpCompletion completion, const Payload& payload) {
    Slot& slot = slots_[idx];
    slot.request = m;
    slot.has_init = init.has_value();
    slot.init_value = init.value_or(SwitchValue{0});
    slot.completion = completion;
    slot.payload = payload;
    ctx.on_write();
    slot.word.store(pack_slot(SlotState::kPending, owner),
                    std::memory_order_release);
  }

  // One combiner pass (pre: gate held): snapshot the pending records
  // into a caller-local batch, drive it through the object's batch
  // path, write results back. The local batch is why a combiner crash
  // mid-pass is unrecoverable — and why crash-exposed processes
  // publish with may_combine = false.
  template <class Ctx>
  void combine(Ctx& ctx) {
    std::array<OpSlot, kSlots> batch;
    std::array<std::size_t, kSlots> source{};
    std::array<std::uint32_t, kSlots> publisher{};
    std::size_t n = 0;
    for (std::size_t i = 0; i < kSlots; ++i) {
      Slot& s = slots_[i];
      const std::uint64_t w = s.word.load(std::memory_order_acquire);
      if (slot_state_of(w) != SlotState::kPending) continue;
      ctx.on_read();
      batch[n].request = s.request;
      batch[n].init = s.has_init ? std::optional<SwitchValue>(s.init_value)
                                 : std::nullopt;
      batch[n].done = false;
      batch[n].completion = s.completion;
      source[n] = i;
      publisher[n] = slot_owner_of(w);
      ++n;
    }
    if (n == 0) return;

    run_batch(obj_, ctx, std::span<OpSlot>(batch.data(), n));

    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slots_[source[i]];
      s.payload(batch[i].result);
      ctx.on_write();
      if (batch[i].completion == OpCompletion::kDetached) {
        // No collector will ever come: retire the record in place.
        s.word.store(pack_slot(SlotState::kFree, 0), std::memory_order_release);
      } else {
        s.result = batch[i].result;
        // Keep the publisher's owner id: if it died waiting, its name
        // on the kDone record is what makes the record reclaimable.
        s.word.store(pack_slot(SlotState::kDone, publisher[i]),
                     std::memory_order_release);
      }
    }
    bump(rounds_, 1);
    bump(batched_ops_, n);
  }

  [[nodiscard]] std::size_t count_in_state(SlotState state) const noexcept {
    std::size_t n = 0;
    for (const Slot& s : slots_) {
      if (slot_state_of(s.word.load(std::memory_order_acquire)) == state) ++n;
    }
    return n;
  }

  static void bump(std::atomic<std::uint64_t>& counter,
                   std::uint64_t n) noexcept {
    counter.store(counter.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
  }

  std::array<Slot, kSlots> slots_{};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> gate_{0};
  // Rung-3 parking for every wait loop above. One point for the whole
  // engine: wakes are per combine pass, not per slot. In a segment the
  // scope is kShared, so FUTEX_WAIT/FUTEX_WAKE key on the physical page
  // that each process maps at a different virtual address.
  alignas(kCacheLineSize) WaitPoint<kScope> futex_waiters_{};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> batched_ops_{0};
  std::atomic<std::uint64_t> direct_ops_{0};
  alignas(kCacheLineSize) Obj obj_;
};

}  // namespace scm
