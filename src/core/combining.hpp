// Flat-combining composition (the batching counterpart of Sharded's
// replication): wrap any ComposableModule in a publication array and
// let ONE elected combiner execute everyone's pending requests through
// the batch invocation path (core/batch.hpp).
//
// Combining<Obj, kSlots> is a combinator, not an algorithm: each
// operation either takes the free combiner gate and runs directly (a
// batch of one, then serves whoever published meanwhile), or publishes
// its request into a cacheline-padded slot and waits to be served,
// electing itself combiner whenever the gate frees. Under contention
// the composed-chain walk that every process used to pay per operation
// is paid once per batch by the combiner, which also keeps the wrapped
// object's cache lines local to one core instead of bouncing them
// between all publishers (Hendler/Incze/Shavit/Tzafrir's flat
// combining, applied to the paper's composition chains).
//
// The protocol itself — claim, publish, wait, collect, combine, the
// gate — is SlotEngine (core/slot_protocol.hpp), the same engine the
// cross-process ShmCombining runs. This wrapper fixes the engine's
// wait scope (a process-private futex), its slot payload (the
// submitter's completion callback), and the owner id (ctx.id() + 1),
// and adds what only the in-process object offers: the runtime
// election knob, the async surface and the native batch path.
//
// Semantics: the combiner executes the batch sequentially while
// holding the gate, so every operation — published or run directly —
// takes effect at one point inside its invoke/return interval: the
// wrapped object's linearizability is preserved, and a single-threaded
// caller gets bit-identical results to invoking the object directly
// (combining_test and the compose.batched scenario pin both
// properties). Note the combiner executes published requests under its
// OWN context: per-op step counters accrue to the serving thread, and
// requests carry their issuer in Request::issuer.
//
// Combining forwards the module surface (invoke + kConsensusNumber,
// plus stats()/commits_by() when Obj has them), so it is itself a
// ComposableModule and nests inside Sharded — per-shard combiners are
// the roadmap's "per-shard batch queues".
//
// Async surface (core/async.hpp): a publication slot already is a
// one-operation future, so submit() detaches the wait loop — it
// publishes and returns a Ticket (or completes inline and returns a
// ready ticket whenever the gate is free), submit_detached() publishes
// fire-and-forget with a combiner-run completion callback, and drain()
// combines until no publication is pending. The ticket's poll()/wait()
// complete the slot round trip the blocking invoke() finishes in
// place; wait() helps (the caller may elect itself combiner), so
// progress never depends on other threads. Destroying a Combining with
// any slot still occupied — an outstanding ticket, an un-drained
// detached submission — is a checked error.
//
// Verification: the blocking invoke() runs under the deterministic
// simulator, and slot_protocol_explore_test enumerates its
// interleavings (2 processes x 2 slots, at elect_spins 1 and 0). The
// async surface is not explored: under the simulator submit()
// completes inline, so publish-and-return, detached retirement and
// drain() are covered by the native combining_test/async_test stress
// suites only.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "core/async.hpp"
#include "core/batch.hpp"
#include "core/module.hpp"
#include "core/sharding.hpp"
#include "core/slot_protocol.hpp"
#include "history/request.hpp"
#include "runtime/ids.hpp"
#include "support/assert.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"

namespace scm {

namespace detail {

// The wrapper's own base objects are the publication registers plus a
// combiner gate used as a test-and-set lock (its CAS only ever fires
// from free), so the composition's consensus number is
// the max of the wrapped object's and TAS's.
template <class Obj, class = void>
struct CombiningConsensusBase {};

template <class Obj>
struct CombiningConsensusBase<Obj,
                              std::void_t<decltype(Obj::kConsensusNumber)>> {
  static constexpr int kConsensusNumber =
      std::max(Obj::kConsensusNumber, kConsensusNumberTas);
};

}  // namespace detail

template <class Obj, std::size_t kSlots>
class Combining : public detail::CombiningConsensusBase<Obj>,
                  public detail::ShardedDepthBase<Obj> {
  // The slot payload: the submitter's optional completion callback.
  struct Completion {
    CompletionFn fn = nullptr;
    void* user = nullptr;
    void operator()(const ModuleResult& r) const {
      if (fn != nullptr) fn(user, r);
    }
  };
  using Engine = SlotEngine<Obj, kSlots, FutexScope::kPrivate, Completion>;

 public:
  static constexpr std::size_t kSlotCount = kSlots;

  // The publication protocol (core/slot_protocol.hpp), exposed so
  // tests can assert this wrapper and the cross-process ShmCombining
  // compile against the SAME state machine.
  using slot_state = SlotState;

  Combining()
    requires std::is_default_constructible_v<Obj>
  = default;

  // In-place construction for wrapped objects with constructor
  // parameters (chains, pipelines of referenced modules).
  template <class... Args>
  explicit Combining(std::in_place_t, Args&&... args)
      : engine_(std::in_place, std::forward<Args>(args)...) {}

  Combining(const Combining&) = delete;
  Combining& operator=(const Combining&) = delete;

  // No publication may outlive the wrapper: at destruction every slot
  // must be kFree — tickets collected (or dropped: a dropped ticket
  // waits out its op), detached submissions drained. Anything else is
  // an outstanding operation about to read freed memory, so it is a
  // checked error rather than undefined behaviour.
  ~Combining() {
    SCM_CHECK_MSG(engine_.occupied() == 0,
                  "Combining destroyed with an occupied publication slot "
                  "(outstanding Ticket, or submit_detached without drain())");
  }

  // Module surface: run directly when the gate is free (a batch of
  // one, then serve whoever published meanwhile), else publish into a
  // slot and wait to be served, combining whenever the gate frees.
  // With more threads than slots the claim rotates to any free record,
  // and on exhaustion runs the op inline under the gate.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt) {
    return engine_.invoke(ctx, caller(ctx), m, init);
  }

  // Native batch path (BatchInvocable): one gate acquisition serves
  // the WHOLE caller-provided batch — plus anything published
  // meanwhile — instead of paying one publication round trip per op.
  // This is what lets an outer grouping layer (Sharded::invoke_batch
  // building per-shard sub-batches) hand a per-shard combiner a REAL
  // batch: the wrapped object's own batch path (a pipeline's
  // stage-major walk) runs over all of it in one pass. Ops executed
  // this way count as direct (no publication), keeping
  // direct_ops() + combined_ops() == total invocations.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  void invoke_batch(Ctx& ctx, std::span<OpSlot> batch) {
    std::uint64_t live = 0;
    for (const OpSlot& slot : batch) live += slot.done ? 0 : 1;
    if (live == 0) return;
    engine_.lock_gate(ctx, owner_of(ctx));
    engine_.run_held(ctx, live, [&](Obj& o) { run_batch(o, ctx, batch); });
  }

  // ---- async surface (core/async.hpp).

  // Publish-and-return. On the uncontended fast path (gate free) the
  // operation completes inline — a batch of one, exactly invoke()'s
  // fast path — and the ticket is born ready, so submit().wait() costs
  // what invoke() costs and returns bit-identical results. Otherwise
  // the request is published and the wait loop is detached into the
  // returned Ticket: poll() checks the slot, wait() helps combine, and
  // whichever completes first consumes the round trip. When every
  // record is held by an uncollected ticket the operation completes
  // inline under the gate instead, so submission never blocks on
  // ticket holders. The optional completion callback runs on the
  // thread that executes the operation — the combiner for published
  // ops, the caller on inline paths — and on EVERY path with the gate
  // held, right at the op's serialization point: callbacks across the
  // whole object fire in linearization order (the caching combinator's
  // invalidation/refill depends on this), and callbacks must never
  // re-enter this Combining. On non-blocking platforms (the
  // step-granting simulator) publication round trips cannot run, so
  // submit() degenerates to invoke() plus a ready ticket.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  Ticket<ModuleResult> submit(Ctx& ctx, const Request& m,
                              std::optional<SwitchValue> init = std::nullopt,
                              CompletionFn completion = nullptr,
                              void* user = nullptr) {
    if constexpr (!detail::context_can_block_v<Ctx>) {
      const ModuleResult r = invoke(ctx, m, init);
      if (completion != nullptr) completion(user, r);
      return Ticket<ModuleResult>::ready(r);
    } else {
      ModuleResult r;
      const auto idx =
          engine_.submit(ctx, caller(ctx), m, init, OpCompletion::kAttached,
                         Completion{completion, user}, &r);
      if (!idx.has_value()) return Ticket<ModuleResult>::ready(r);
      return Ticket<ModuleResult>(
          &ticket_source<Ctx>(), this,
          reinterpret_cast<void*>(static_cast<std::uintptr_t>(*idx)), &ctx);
    }
  }

  // Fire-and-forget submission: no ticket. The completion callback
  // (which may be null for pure side-effect operations) runs when the
  // operation is served, and the serving thread retires the
  // publication record itself — the kDetached completion state of
  // core/batch.hpp — since no publisher will ever collect it. Pending
  // detached submissions survive until some thread combines: callers
  // must drain() (or keep the object busy) before destruction.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  void submit_detached(Ctx& ctx, const Request& m,
                       std::optional<SwitchValue> init = std::nullopt,
                       CompletionFn completion = nullptr,
                       void* user = nullptr) {
    if constexpr (!detail::context_can_block_v<Ctx>) {
      const ModuleResult r = invoke(ctx, m, init);
      if (completion != nullptr) completion(user, r);
    } else {
      ModuleResult r;
      (void)engine_.submit(ctx, caller(ctx), m, init, OpCompletion::kDetached,
                           Completion{completion, user}, &r);
    }
  }

  // Combines until no publication is pending: when drain() returns,
  // every operation submitted (by any thread) before the call has been
  // EXECUTED — attached slots sit in kDone awaiting their ticket,
  // detached slots are fully retired. It does not wait for other
  // threads to collect their tickets.
  template <class Ctx>
  void drain(Ctx& ctx) {
    engine_.drain(ctx, owner_of(ctx));
  }

  [[nodiscard]] Obj& object() noexcept { return engine_.object(); }
  [[nodiscard]] const Obj& object() const noexcept { return engine_.object(); }

  // ---- combining telemetry (relaxed; written only by combiners).

  // Number of combiner passes that served at least one operation.
  [[nodiscard]] std::uint64_t combine_rounds() const noexcept {
    return engine_.combine_rounds();
  }
  // Operations served across all passes; divided by combine_rounds()
  // this is the achieved batch size — the amortization factor.
  [[nodiscard]] std::uint64_t combined_ops() const noexcept {
    return engine_.combined_ops();
  }
  // Operations run directly under the gate (no publication).
  // direct_ops() + combined_ops() == total invocations.
  [[nodiscard]] std::uint64_t direct_ops() const noexcept {
    return engine_.direct_ops();
  }

  // Park/wake telemetry from the engine's WaitPoint (rung-3 waits).
  // futex_syscalls stays zero as long as every operation completed
  // before any waiter's backoff ladder saturated — in particular, a
  // pure fast-path run performs NO futex syscalls (compose.async
  // asserts exactly that for its fastpath_share == 1 phases).
  [[nodiscard]] ParkStats park_stats() const noexcept {
    return engine_.wait_point().stats();
  }

  // ---- runtime actuators (core/adaptive.hpp drives these; both are
  // relaxed hints, safe to flip while operations are in flight).

  // Gate attempts a per-op entry point makes before conceding to the
  // publication path. 1 = the direct fast path (the default); 0 =
  // publish-and-batch mode. The slow path still takes the gate to
  // combine or to run inline on slot exhaustion, so progress never
  // depends on this knob.
  void set_elect_spins(std::uint32_t n) noexcept {
    elect_spins_.value.store(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t elect_spins() const noexcept {
    return elect_spins_.value.load(std::memory_order_relaxed);
  }

  // Wait-rung selection for every blocking site in this wrapper: how
  // many yields a saturated waiter climbs before its first park
  // (forwarded to the engine's WaitPoint).
  void set_yields_before_park(int n) noexcept {
    engine_.wait_point().set_yields_before_park(n);
  }
  [[nodiscard]] int yields_before_park() const noexcept {
    return engine_.wait_point().yields_before_park();
  }

  // Publication records not currently kFree — the slot-residue probe.
  // Zero once every invoke has returned, every ticket is collected,
  // and detached work is drained.
  [[nodiscard]] std::size_t occupied() const noexcept {
    return engine_.occupied();
  }
  // Owner id (ctx.id() + 1) of the current gate holder; 0 = free.
  [[nodiscard]] std::uint32_t gate_holder() const noexcept {
    return engine_.gate_holder();
  }

  // ---- forwarded statistics surfaces (enabled exactly when the
  // wrapped object provides them), so Combining<Pipeline<...>> keeps
  // the pipeline's per-stage accounting and Sharded can merge it.

  [[nodiscard]] PipelineStageStats stats(std::size_t i) const
    requires requires(const Obj& o, std::size_t j) {
      { o.stats(j) } -> std::same_as<PipelineStageStats>;
    }
  {
    return object().stats(i);
  }

  void reset_stats() noexcept
    requires requires(Obj& o) { o.reset_stats(); }
  {
    object().reset_stats();
  }

  [[nodiscard]] std::uint64_t commits_by(ProcessId pid, std::size_t i) const
    requires requires(const Obj& o, std::size_t j) { o.commits_by(pid, j); }
  {
    return object().commits_by(pid, i);
  }

  [[nodiscard]] int consensus_number() const
    requires requires(const Obj& o) { o.consensus_number(); }
  {
    return std::max(object().consensus_number(), kConsensusNumberTas);
  }

 private:
  // Owner ids are ctx.id() + 1, so 0 keeps meaning "unowned".
  template <class Ctx>
  static std::uint32_t owner_of(const Ctx& ctx) noexcept {
    return static_cast<std::uint32_t>(ctx.id()) + 1;
  }

  template <class Ctx>
  SlotCaller caller(const Ctx& ctx) const noexcept {
    return SlotCaller{owner_of(ctx), elect_spins(), /*may_combine=*/true};
  }

  // ---- ticket plumbing: the type-erased completion source bound into
  // every pending Ticket. `slot` carries the publication record's
  // INDEX (as a uintptr), not a pointer.

  template <class Ctx>
  static bool ticket_poll(void* source, void* slot, void* ctx,
                          ModuleResult* out) {
    auto* self = static_cast<Combining*>(source);
    const auto idx =
        static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(slot));
    if (!self->engine_.is_done(idx)) return false;
    *out = self->engine_.collect(*static_cast<Ctx*>(ctx), idx);
    return true;
  }

  template <class Ctx>
  static void ticket_wait(void* source, void* slot, void* ctx,
                          ModuleResult* out) {
    auto* self = static_cast<Combining*>(source);
    const auto idx =
        static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(slot));
    Ctx& c = *static_cast<Ctx*>(ctx);
    self->engine_.wait_done(c, self->caller(c), idx);
    *out = self->engine_.collect(c, idx);
  }

  template <class Ctx>
  static const TicketSource<ModuleResult>& ticket_source() {
    static constexpr TicketSource<ModuleResult> kSource{
        &Combining::ticket_poll<Ctx>, &Combining::ticket_wait<Ctx>};
    return kSource;
  }

  // Read-mostly election knob on its own line: every per-op entry
  // loads it; only adaptive reconfigurations write it.
  Padded<std::atomic<std::uint32_t>> elect_spins_{std::in_place, 1u};
  Engine engine_;
};

}  // namespace scm
