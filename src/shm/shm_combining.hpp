// ShmCombining — the flat-combining wrapper placed in a shared
// segment, so INDEPENDENT PROCESSES submit operations into one
// combiner the way threads submit into core/combining.hpp.
//
// Both wrappers run the same SlotEngine (core/slot_protocol.hpp): the
// claim, publish, wait, collect, combine and gate code is written once
// there. Nothing in it depends on a virtual address: the slot array,
// the gate word, and the wrapped object all live inline in the engine,
// which lives at an arena offset, and every synchronization word is a
// lock-free std::atomic — address-free, so acquire/release pairs order
// accesses between different processes' mappings of the same physical
// lines. This wrapper fixes what a segment needs: a kShared futex
// scope, an empty slot payload (no pointer is ever stored in a slot),
// and the owner id.
//
// What is new across processes is the failure domain. A thread cannot
// vanish mid-publication; a process can (SIGKILL, OOM kill). Two
// engine mechanisms absorb that:
//
//   - Every slot word packs {state, owner PID} into ONE atomic u64
//     (state low half, pid high half — pack_slot in
//     core/slot_protocol.hpp), so the claim CAS and the ownership
//     stamp are indivisible: a reclaim sweep can never see a claimed
//     record with a stale owner. The combiner preserves the
//     publisher's pid when it stores kDone, so a publisher that died
//     waiting still has its name on the slot.
//   - reclaim_dead() sweeps, UNDER THE GATE, every slot whose owner no
//     longer exists (kill(pid, 0) probe, or an injected predicate) and
//     frees the ones the dead process could never recycle itself:
//     kClaimed (died mid-write — the request was never published, so
//     dropping it is the only sound choice) and kDone (died waiting —
//     the op executed; only its collection is abandoned). kPending
//     slots of dead owners are NOT dropped: the publication is
//     complete (the kPending store released it), so the next combine
//     pass executes it and the slot becomes reclaimable kDone. The
//     gate itself is also stolen from a dead holder, since a dead
//     combiner otherwise wedges the object forever.
//
// Division of labor that makes crash-reclaim SOUND rather than
// best-effort: a process that may be killed should submit with
// may_combine = false (publication only — the compose.shm clients do).
// Then it can only ever die holding a slot, never the gate mid-batch,
// and the reconciliation bound is exact: a client killed at an
// arbitrary point has AT MOST ONE operation in flight, which either
// executed (kPending/kDone) or did not (kClaimed), so
// completed_ops <= object_total <= started_ops holds with slack <= 1
// per kill. A combiner dying mid-batch would instead leave the wrapped
// object's state ahead of any count — unrecoverable without undo logs.
//
// The same class runs under the deterministic simulator. The owner id
// comes from the context: the pid natively, ctx.id() + 1 under an
// awaitable context, where reclaim_dead takes its liveness predicate
// from the caller. slot_protocol_explore_test enumerates every
// interleaving of this code and sweeps a crash fault over every step
// of a dying publisher and of a dying combiner, so the protocol that
// ships is the protocol that is model-checked.
#pragma once

#include "shm/shm_arena.hpp"  // platform gate: defines SCM_HAS_POSIX_SHM

#if SCM_HAS_POSIX_SHM

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/module.hpp"
#include "core/slot_protocol.hpp"
#include "history/request.hpp"
#include "runtime/wait.hpp"
#include "shm/shm_layout.hpp"
#include "support/parking.hpp"

namespace scm {

// Liveness probe for reclaim_dead: signal 0 delivers nothing but
// performs the existence/permission check. EPERM means "exists but
// not ours" — alive; only ESRCH means gone.
inline bool shm_process_alive(std::uint32_t pid) noexcept {
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

template <class Obj, std::size_t kSlots>
class ShmCombining {
  static_assert(std::is_trivially_destructible_v<Obj>,
                "segment-resident objects are never destroyed in-place");

  using Engine = SlotEngine<Obj, kSlots, FutexScope::kShared, NoSlotPayload>;

 public:
  static constexpr std::size_t kSlotCount = kSlots;

  // Same protocol as the in-process wrapper — shm_test asserts the
  // two `slot_state` aliases are one type.
  using slot_state = SlotState;

  // Compiled-in shape fingerprint, published alongside the arena
  // offset and checked by attachers BEFORE the first shared access:
  // folds the slot protocol revision and every layout-determining
  // quantity, so two binaries whose ShmCombining instantiations
  // disagree in any way fail fast at resolve time.
  static constexpr std::uint32_t kTypeTag = [] {
    std::uint32_t h = 2166136261u;  // FNV-1a
    // sizeof(WaitPoint) folds the parking-word layout in: a binary
    // without the shared futex member (or with different telemetry
    // counters) maps the object differently and must not attach.
    for (std::uint64_t v :
         {std::uint64_t{kSlotProtocolVersion}, std::uint64_t{kSlots},
          std::uint64_t{sizeof(Obj)}, std::uint64_t{alignof(Obj)},
          std::uint64_t{sizeof(typename Engine::Slot)},
          std::uint64_t{sizeof(Request)}, std::uint64_t{sizeof(ModuleResult)},
          std::uint64_t{sizeof(WaitPoint<FutexScope::kShared>)}}) {
      for (int b = 0; b < 8; ++b) {
        h ^= static_cast<std::uint32_t>((v >> (8 * b)) & 0xff);
        h *= 16777619u;
      }
    }
    return h;
  }();

  ShmCombining() = default;
  ShmCombining(const ShmCombining&) = delete;
  ShmCombining& operator=(const ShmCombining&) = delete;

  // Publish, then wait to be served — or combine. With
  // may_combine = true (the default; in-process-equivalent behavior)
  // the caller elects itself combiner whenever the gate is free, so a
  // single process is self-sufficient. Crash-exposed processes pass
  // may_combine = false: pure publication, the op executes only on a
  // serving combiner, and dying at any point leaves at most this one
  // op ambiguous (see file comment). With false and no serving
  // process anywhere, invoke blocks — the server contract.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> init = std::nullopt,
                      bool may_combine = true) {
    const SlotCaller who{owner_of(ctx), may_combine ? 1u : 0u, may_combine};
    return engine_.invoke(ctx, who, m, init);
  }

  // One combine pass if the gate is free right now; false when some
  // other process holds it. The compose.shm server's serve loop is
  // `while (...) try_serve(ctx);` — a dedicated combiner.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  bool try_serve(Ctx& ctx) {
    return engine_.try_serve(ctx, owner_of(ctx));
  }

  // Combines until no publication is pending. Same contract as the
  // in-process drain(): every op PUBLISHED before the call has
  // executed on return; kDone slots still await their publishers.
  // Safe on an empty/fresh object — returns immediately.
  template <class Ctx>
    requires Composable<Obj, Ctx>
  void drain(Ctx& ctx) {
    engine_.drain(ctx, owner_of(ctx));
  }

  // Published-but-unserved operations right now (acquire scan).
  [[nodiscard]] std::size_t pending() const noexcept {
    return engine_.pending();
  }
  // Records not currently kFree — the compose.shm gate checks this is
  // zero after the final drain + reclaim.
  [[nodiscard]] std::size_t occupied() const noexcept {
    return engine_.occupied();
  }

  // Sweeps the wreckage of dead processes under the gate (see
  // SlotEngine::reclaim_dead): frees kClaimed and kDone slots whose
  // owner fails `alive`, stealing the gate from a dead holder first.
  // Returns slots freed; 0 when a live process holds the gate. The
  // gate CAS and every free are counted RMWs, so under the simulator
  // the sweep interleaves step by step with live publishers.
  //
  // `alive(owner) -> bool` is injectable so tests can declare a live
  // helper process "dead" deterministically, and so simulated owners
  // (ctx.id() + 1, not pids) can be probed at all.
  template <class Ctx, class Alive>
  std::size_t reclaim_dead(Ctx& ctx, Alive&& alive) {
    return engine_.reclaim_dead(ctx, owner_of(ctx), std::forward<Alive>(alive));
  }

  // The native sweep, probing each owner pid with kill(pid, 0).
  template <class Ctx>
    requires(!detail::context_can_await_v<Ctx>)
  std::size_t reclaim_dead(Ctx& ctx) {
    return reclaim_dead(
        ctx, [](std::uint32_t pid) { return shm_process_alive(pid); });
  }

  // Owner id of the current combiner (0 = gate free).
  [[nodiscard]] std::uint32_t gate_holder() const noexcept {
    return engine_.gate_holder();
  }

  [[nodiscard]] Obj& object() noexcept { return engine_.object(); }
  [[nodiscard]] const Obj& object() const noexcept { return engine_.object(); }

  // ---- combining telemetry (this process's mapping is shared, so
  // these aggregate over ALL participating processes).

  [[nodiscard]] std::uint64_t combine_rounds() const noexcept {
    return engine_.combine_rounds();
  }
  [[nodiscard]] std::uint64_t combined_ops() const noexcept {
    return engine_.combined_ops();
  }
  [[nodiscard]] std::uint64_t direct_ops() const noexcept {
    return engine_.direct_ops();
  }

  // Park/wake telemetry from the segment-resident WaitPoint. The
  // counters live in shared memory, so — like the combining counters
  // above — they aggregate over ALL participating processes: a client
  // that parked against a stalled server shows up in the server's
  // readout (compose.shm gates on exactly that).
  [[nodiscard]] ParkStats park_stats() const noexcept {
    return engine_.wait_point().stats();
  }

 private:
  // Owner id stamped into the gate and slot words: the pid natively,
  // which kill(pid, 0) can probe; ctx.id() + 1 under an awaitable
  // (simulated) context, where every process shares one pid. Both are
  // nonzero, so 0 keeps meaning "unowned".
  template <class Ctx>
  static std::uint32_t owner_of(const Ctx& ctx) noexcept {
    if constexpr (detail::context_can_await_v<Ctx>) {
      return static_cast<std::uint32_t>(ctx.id()) + 1;
    } else {
      (void)ctx;
      return static_cast<std::uint32_t>(::getpid());
    }
  }

  Engine engine_;
};

// A class template cannot assert on itself from inside its own
// definition, so the wrapper-level layout guarantee is pinned on a
// minimal probe instantiation: if ShmCombining<trivial Obj> is
// segment-safe, nothing in the wrapper's own members (slots, gate,
// telemetry words) breaks address freedom — a real Obj can only break
// it through its own fields, which its own SCM_ASSERT_ADDRESS_FREE
// covers (e.g. ShmCounter's).
namespace detail {
struct ShmLayoutProbe {
  std::atomic<std::uint64_t> word{0};
};
}  // namespace detail
SCM_ASSERT_ADDRESS_FREE(detail::ShmLayoutProbe);
SCM_ASSERT_ADDRESS_FREE(
    SlotEngine<detail::ShmLayoutProbe, 2, FutexScope::kShared, NoSlotPayload>);
SCM_ASSERT_ADDRESS_FREE(ShmCombining<detail::ShmLayoutProbe, 2>);

}  // namespace scm

#endif  // SCM_HAS_POSIX_SHM
