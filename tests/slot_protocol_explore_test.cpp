// Exhaustive model checking of the publication-slot protocol on the
// code that ships: SlotEngine (core/slot_protocol.hpp), driven through
// both of its wrappers — the in-process Combining (core/combining.hpp)
// and the cross-process ShmCombining (shm/shm_combining.hpp) — under
// the deterministic simulator.
//
// Every test here drives the protocol through sim::explore over ALL
// interleavings of its processes (stats.exhausted is asserted, so a
// silently truncated search fails the suite) and checks:
//
//  * linearizability: the served fetch&inc history linearizes against
//    CounterSpec in every interleaving ({2 procs x 2 slots},
//    {3 procs x 2 slots}, and {3 procs x 1 slot}, which exhausts the
//    slot array);
//  * residue: after every run the slot array is all-kFree (so nothing
//    is left pending) and the gate is released, for both wrappers;
//  * tree size: the run counts are pinned exactly, so a scheduling
//    point lost from or added to the shipped code fails the suite;
//  * crash-reclaim, with deaths as the simulator's own crash faults: a
//    may_combine = false publisher, and a combiner holding the gate,
//    are crashed at every step in turn while a survivor serves, waits
//    for the exit, then drains and reclaims. The dead process's op
//    executes at most once, exactly once whenever the survivor saw it
//    published, and never if its own steps show it died before
//    publishing (or, as combiner, before reaching the object); nothing
//    is left occupied and the gate is free. The
//    seeded mutation (SCM_MUTATE_SLOT_PROTOCOL drops the claim's
//    ownership stamp in SlotEngine::claim) breaks the publisher
//    sweep, and the slot_mutation_catch CTest entry recompiles this
//    file with the mutation and expects that sweep's "not swept"
//    failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "core/combining.hpp"
#include "core/module.hpp"
#include "core/slot_protocol.hpp"
#include "history/request.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/wait.hpp"
#include "shm/shm_combining.hpp"  // defines SCM_HAS_POSIX_SHM
#include "sim/explorer.hpp"
#include "sim/sim_platform.hpp"
#include "sim/simulator.hpp"

namespace scm {
namespace {

using sim::explore_all_schedules;
using sim::OpRecord;
using sim::SimContext;
using sim::Simulator;

// Fetch&inc semantics (CounterSpec): commits a unique monotone ticket.
// The counter is the simulator's own base object: its RMW is a counted
// step that a crash fault can land on (a crash unwinds as an exception,
// so the module must not be noexcept on that path).
struct TicketModule {
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  ModuleResult invoke(SimContext& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    return ModuleResult::commit(static_cast<Response>(count_.fetch_add(ctx)));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_.peek(); }

 private:
  sim::SimCounter count_;
};

Request inc_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kFetchInc, 0};
}

// Rebuilds the simulator's recorded ops as ConcurrentOps for the
// Wing&Gong checker; `tag` carries the request id (one op per
// process), `output` carries the ticket.
std::vector<ConcurrentOp> history_of(const Simulator& sim) {
  std::vector<ConcurrentOp> ops;
  for (const auto& rec : sim.ops()) {
    ConcurrentOp op;
    op.pid = rec.pid;
    op.request = inc_req(static_cast<std::uint64_t>(rec.tag), rec.pid);
    op.response = rec.output;
    op.invoke = rec.invoke_event;
    op.ret = rec.response_event;
    op.completed = rec.complete;
    ops.push_back(op);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Exhaustive linearizability + residue, no crashes

// Explores every interleaving of `procs` processes, each invoking one
// fetch&inc on a fresh Engine (prepared by `setup`), and pins the size
// of the tree. The engine must outlive each run and the check hook
// only receives the Simulator, so the factory stashes it here.
template <class Engine>
void explore_invokes(int procs, std::uint64_t expected_runs,
                     const std::function<void(Engine&)>& setup = {}) {
  std::shared_ptr<Engine> engine;
  std::uint64_t runs = 0;
  auto stats = explore_all_schedules(
      [&] {
        engine = std::make_shared<Engine>();
        if (setup) setup(*engine);
        auto sim = std::make_unique<Simulator>();
        for (int p = 0; p < procs; ++p) {
          sim->add_process([engine, p](SimContext& ctx) {
            const auto id = static_cast<std::uint64_t>(p) + 1;
            ctx.begin_op(static_cast<std::int64_t>(id));
            const ModuleResult r = engine->invoke(ctx, inc_req(id, ctx.id()));
            ctx.end_op(r.response);
          });
        }
        return sim;
      },
      [&](Simulator& sim) {
        ++runs;
        // Every op completed and drew a ticket; the history linearizes.
        ASSERT_EQ(sim.ops().size(), static_cast<std::size_t>(procs));
        for (const auto& op : sim.ops()) ASSERT_TRUE(op.complete);
        ASSERT_TRUE(linearizable<CounterSpec>(history_of(sim)))
            << "non-linearizable interleaving at run " << runs;
        // Residue: all ops executed, every record recycled (so nothing
        // is left pending), and the gate is released.
        ASSERT_EQ(engine->object().count(),
                  static_cast<std::uint64_t>(procs));
        ASSERT_EQ(engine->occupied(), 0u);
        ASSERT_EQ(engine->gate_holder(), 0u);
      });
  // The FULL tree was enumerated (a truncated search would be a silent
  // downgrade from "verified" to "sampled"), and its size is exactly
  // the one measured when the test was written.
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, expected_runs);
  EXPECT_EQ(stats.runs, runs);
  std::cerr << "[ protocol ] " << procs << " procs x " << Engine::kSlotCount
            << " slots: " << stats.runs << " interleavings verified\n";
}

// The in-process wrapper at both election settings. elect_spins 1 is
// the direct fast path (most schedules never publish), and drives the
// engine exactly as ShmCombining's default invoke does, so its tree
// equals the 2-process ShmCombining tree below; elect_spins 0 is
// publish-and-batch, where every op takes the full publication round
// trip and the tree is correspondingly larger.
TEST(SlotProtocolExplore, InProcessCombiningElectSpins1) {
  using Engine = Combining<TicketModule, 2>;
  explore_invokes<Engine>(/*procs=*/2, /*expected_runs=*/20,
                          [](Engine& c) { c.set_elect_spins(1); });
}

TEST(SlotProtocolExplore, InProcessCombiningElectSpins0) {
  using Engine = Combining<TicketModule, 2>;
  explore_invokes<Engine>(/*procs=*/2, /*expected_runs=*/1'448,
                          [](Engine& c) { c.set_elect_spins(0); });
}

#if SCM_HAS_POSIX_SHM

// The trees are smaller than a naive step count suggests: failed gate
// pre-tests and the publisher's final kFree store are uncounted, so
// only schedules that differ in a COUNTED access are distinct leaves
// (the soundness argument lives in core/slot_protocol.hpp's header).
TEST(SlotProtocolExplore, TwoProcsTwoSlotsLinearizableNoResidue) {
  explore_invokes<ShmCombining<TicketModule, 2>>(/*procs=*/2,
                                                 /*expected_runs=*/20);
}

// Three processes through two slots: one runs directly while the
// other two publish, so both records are in use while the wait loops
// hand the gate around. The array is never exhausted here: the first
// process to run always finds the gate free and takes no record.
TEST(SlotProtocolExplore, ThreeProcsTwoSlotsLinearizableNoResidue) {
  explore_invokes<ShmCombining<TicketModule, 2>>(/*procs=*/3,
                                                 /*expected_runs=*/117'712);
}

// Three processes through ONE slot: many schedules exhaust the array,
// exercising the claim's fallback — run inline under the gate, or park
// until the record or the gate frees — and recycle-then-claim.
TEST(SlotProtocolExplore, ThreeProcsOneSlotExhaustsTheArray) {
  explore_invokes<ShmCombining<TicketModule, 1>>(/*procs=*/3,
                                                 /*expected_runs=*/3'252);
}

// ---------------------------------------------------------------------------
// Crash sweeps
//
// Process 0 runs ONE invoke and is crashed by the simulator at global
// step k (its first grant at or after step k), for every k until a
// whole tree runs it to completion; at each k every interleaving is
// explored. Process 1 survives. It is built like the compose.shm
// server: it serves while process 0 lives, awaits its exit (waitpid's
// analogue), reclaims, drains, reclaims again, and finally invokes an
// op of its own, which must complete on the swept object.

using CrashEngine = ShmCombining<TicketModule, 2>;

// Owner id of the survivor (ctx.id() + 1 under the simulator): after
// process 0 has exited it is the only live owner.
constexpr std::uint32_t kSurvivorOwner = 2;

struct CrashRun {
  CrashEngine engine;
  bool saw_pending = false;  // survivor observed a pending publication
};

void survive(CrashRun& run, const Simulator& sim, SimContext& ctx) {
  CrashEngine& e = run.engine;
  const auto alive = [](std::uint32_t owner) {
    return owner == kSurvivorOwner;
  };
  // Each wake is either a publication to serve under a free gate or
  // process 0's exit; nothing runs between the wake and these reads.
  for (;;) {
    wait_until(ctx, [&] {
      return (e.pending() != 0 && e.gate_holder() == 0) || sim.finished(0);
    });
    if (e.pending() == 0 || e.gate_holder() != 0) break;
    run.saw_pending = true;
    (void)e.try_serve(ctx);
  }
  // Process 0 is gone. Steal a gate it died holding and sweep its
  // kClaimed/kDone records; a publication it completed (kPending) is
  // exempt, executes in the drain, and its kDone is swept after.
  (void)e.reclaim_dead(ctx, alive);
  if (e.pending() != 0) run.saw_pending = true;
  e.drain(ctx);
  (void)e.reclaim_dead(ctx, alive);

  ctx.begin_op(2);
  const ModuleResult r = e.invoke(ctx, inc_req(2, ctx.id()));
  ctx.end_op(r.response);
}

// Whether process 0's op reached the point of no return before it
// died, read off its own step counters: a step's counter is bumped only
// once the step is granted, and nothing is scheduled between that grant
// and the access it guards. A publisher's one counted write is the
// grant right before its kPending store; a combiner's second RMW (after
// the gate CAS) is the grant right before the counter's increment.
bool dying_op_took_effect(const Simulator& sim, bool may_combine) {
  const StepCounters& c = sim.counters(0);
  return may_combine ? c.rmws >= 2 : c.writes >= 1;
}

void check_crash_run(const CrashRun& run, const Simulator& sim,
                     bool may_combine, std::uint64_t k) {
  const CrashEngine& e = run.engine;
  ASSERT_EQ(e.occupied(), 0u)
      << "dead process's record not swept (crash step " << k << ")";
  ASSERT_EQ(e.gate_holder(), 0u) << "gate still held (crash step " << k << ")";

  const OpRecord* dying = nullptr;
  const OpRecord* survivor = nullptr;
  for (const OpRecord& op : sim.ops()) (op.pid == 0 ? dying : survivor) = &op;
  ASSERT_NE(survivor, nullptr);
  ASSERT_TRUE(survivor->complete) << "object wedged (crash step " << k << ")";

  // The survivor's op executed once and last, so the rest of the count
  // is process 0's op.
  ASSERT_GE(e.object().count(), 1u);
  const std::uint64_t dying_execs = e.object().count() - 1;
  ASSERT_LE(dying_execs, 1u)
      << "dying process's op executed twice (crash step " << k << ")";
  if (run.saw_pending) {
    ASSERT_EQ(dying_execs, 1u)
        << "published op of a dead process lost (crash step " << k << ")";
  }
  // Exactly the ops that took effect executed: an op that was never
  // published (or never reached the object) must not run either.
  ASSERT_EQ(dying_execs, dying_op_took_effect(sim, may_combine) ? 1u : 0u)
      << "dying process's op executed " << dying_execs
      << " times against its own steps (crash step " << k << ")";
  if (dying != nullptr && dying->complete) {
    ASSERT_EQ(dying_execs, 1u);
    ASSERT_EQ(dying->output, 0);
  }
  ASSERT_EQ(survivor->output, static_cast<std::int64_t>(dying_execs));
}

// Sweeps the crash point over every step of process 0 invoking with
// `may_combine`; returns the runs explored over all crash points,
// which the tests pin like the trees above. The sweep ends at the
// first k at which no run crashed process 0: every later k then leaves
// it running too.
std::uint64_t sweep_crash_points(bool may_combine) {
  std::uint64_t total = 0;
  for (std::uint64_t k = 0;; ++k) {
    std::shared_ptr<CrashRun> run;
    bool crashed = false;
    const auto stats = explore_all_schedules(
        [&] {
          run = std::make_shared<CrashRun>();
          auto sim = std::make_unique<Simulator>();
          const Simulator* observer = sim.get();
          sim->add_process([run, may_combine](SimContext& ctx) {
            ctx.begin_op(1);
            const ModuleResult r = run->engine.invoke(
                ctx, inc_req(1, ctx.id()), std::nullopt, may_combine);
            ctx.end_op(r.response);
          });
          sim->add_process([run, observer](SimContext& ctx) {
            survive(*run, *observer, ctx);
          });
          return sim;
        },
        [&](Simulator& sim) {
          crashed = crashed || sim.crashed(0);
          check_crash_run(*run, sim, may_combine, k);
        },
        /*max_runs=*/250'000, /*crash_at=*/{{0, k}});
    EXPECT_TRUE(stats.exhausted);
    total += stats.runs;
    if (::testing::Test::HasFailure() || !crashed) break;
  }
  return total;
}

// A crash-exposed publisher (may_combine = false, as compose.shm's
// clients run) dies at every step: before claiming, holding a kClaimed
// record (the mutation's target: without the ownership stamp the sweep
// cannot attribute it), with its op published, after being served, and
// never.
TEST(CrashSweep, PublisherDyingAtEveryStepIsReclaimed) {
  EXPECT_EQ(sweep_crash_points(/*may_combine=*/false), 38u);
}

// A combiner dies at every step of its fast path: before electing
// itself, and holding the gate with its op not yet executed. The
// survivor's reclaim steals the gate from the corpse and the object
// serves again. (A combiner dying mid-batch over published ops is
// outside the protocol's guarantees — see shm_combining.hpp — so the
// survivor here publishes nothing until process 0 has exited.)
TEST(CrashSweep, CombinerDyingAtEveryStepIsReclaimed) {
  EXPECT_EQ(sweep_crash_points(/*may_combine=*/true), 10u);
}

#endif  // SCM_HAS_POSIX_SHM

// The mutation flips protocol behavior, not just test expectations:
// guard that a build WITHOUT the flag really runs the honest protocol.
TEST(SlotProtocolExplore, MutationFlagMatchesBuild) {
#if defined(SCM_MUTATE_SLOT_PROTOCOL)
  EXPECT_TRUE(kMutateDropOwnerStamp);
#else
  EXPECT_FALSE(kMutateDropOwnerStamp);
#endif
}

}  // namespace
}  // namespace scm
