// Tests for the read-mostly replication layer (core/caching.hpp) and
// the unified Composable surface (core/module.hpp):
//
//  * Composable concept + scm::apply(): module-shaped and chain-shaped
//    objects both dispatch through the one entry point;
//  * a solo caller's cached results are bit-identical to the bare
//    object's, hit path included;
//  * the staleness bound: 0 is linearizable (a post-write read misses
//    and refetches), k admits snapshots up to k generations old;
//  * ticket-consuming invalidation: submit()'s completion callbacks
//    refill/invalidate by the time the ticket is collected;
//  * concurrent mixed read/fetch_inc histories through the cache
//    linearize against CounterSpec in linearizable mode (bound 0);
//  * invalidation storms: every write bumps the generation exactly
//    once under contention, per-thread read streams stay monotone, and
//    no read ever returns a value the counter never held;
//  * per-key invalidation and set-associative tables: a write to one
//    key leaves other keys hitting on every replica, keys that share a
//    hash index stay resident together, and concurrent multi-key
//    histories linearize key by key against RegisterSpec;
//  * completion-pool exhaustion has a defined outcome: the stateless
//    fallback still hides pre-write values, and a miss skips its fill.
//
// Runs under the "tsan" ctest label: the CI sanitizer job executes
// this suite under ThreadSanitizer (the seqlock snapshot protocol is
// the label's customer here).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/caching.hpp"
#include "core/combining.hpp"
#include "core/module.hpp"
#include "core/pipeline.hpp"
#include "history/specs.hpp"
#include "lincheck/lincheck.hpp"
#include "runtime/context.hpp"
#include "runtime/platform.hpp"
#include "workload/driver.hpp"

namespace scm {
namespace {

// A shared counter with CounterSpec's interface: op kFetchInc commits
// the OLD value, op kRead commits the current value.
struct CounterModule {
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    if (m.op == CounterSpec::kRead) {
      return ModuleResult::commit(static_cast<Response>(count_.read(ctx)));
    }
    return ModuleResult::commit(static_cast<Response>(count_.fetch_add(ctx)));
  }

  [[nodiscard]] std::uint64_t peek() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

// The cache's view of CounterSpec: kRead is read-only, there is one
// key, and a committed fetch_inc's response (the old value) determines
// the post-write value exactly: old + 1.
struct CounterModel {
  static bool is_read(const Request& m) { return m.op == CounterSpec::kRead; }
  static std::uint64_t key(const Request& /*m*/) { return 0; }
  static std::optional<Response> read_after_write(const Request& /*m*/,
                                                  Response r) {
    return r + 1;
  }
};

// Same classification, but the write's effect is declared underivable:
// the cache must invalidate without refilling — the shape the
// staleness-bound tests need (a stale entry stays stale).
struct NoRefillModel {
  static bool is_read(const Request& m) { return m.op == CounterSpec::kRead; }
  static std::uint64_t key(const Request& /*m*/) { return 0; }
  static std::optional<Response> read_after_write(const Request& /*m*/,
                                                  Response /*r*/) {
    return std::nullopt;
  }
};

Request read_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kRead, 0};
}
Request inc_req(std::uint64_t id, ProcessId p) {
  return Request{id, p, CounterSpec::kFetchInc, 0};
}

using CachedCounter = Cached<Combining<CounterModule, 8>, CounterModel>;

// Parks a write to kv_gate_key() inside the object until the gate
// opens — the deterministic way to keep the combiner lock held while a
// test publishes behind it. Each user resets the flags.
std::atomic<bool> g_gate_entered{false};
std::atomic<bool> g_gate_open{true};

// A file of kKeys registers with RegisterSpec's interface per key: op
// kWrite stores arg / kKeys under key arg % kKeys and commits kAck, op
// kRead commits key arg % kKeys's value.
struct KvModule {
  static constexpr int kConsensusNumber = kConsensusNumberRegister;
  static constexpr std::uint64_t kKeys = 64;

  static std::uint64_t key_of(const Request& m) {
    return static_cast<std::uint64_t>(m.arg) % kKeys;
  }

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    const std::uint64_t key = key_of(m);
    if (m.op == RegisterSpec::kRead) {
      return ModuleResult::commit(cells_[key].read(ctx));
    }
    if (key == kKeys - 1) {
      g_gate_entered.store(true, std::memory_order_release);
      while (!g_gate_open.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    cells_[key].write(ctx, m.arg / static_cast<std::int64_t>(kKeys));
    return ModuleResult::commit(RegisterSpec::kAck);
  }

  [[nodiscard]] Response peek(std::uint64_t key) const noexcept {
    return cells_[key].peek();
  }

 private:
  std::array<NativeRegister<Response>, kKeys> cells_{};
};

constexpr std::uint64_t kv_gate_key() { return KvModule::kKeys - 1; }

struct KvModel {
  static bool is_read(const Request& m) { return m.op == RegisterSpec::kRead; }
  static std::uint64_t key(const Request& m) { return KvModule::key_of(m); }
  static std::optional<Response> read_after_write(const Request& m,
                                                  Response /*r*/) {
    return m.arg / static_cast<std::int64_t>(KvModule::kKeys);
  }
};

Request kv_read(std::uint64_t id, ProcessId p, std::uint64_t key) {
  return Request{id, p, RegisterSpec::kRead, static_cast<std::int64_t>(key)};
}
Request kv_write(std::uint64_t id, ProcessId p, std::uint64_t key,
                 std::int64_t value) {
  return Request{id, p, RegisterSpec::kWrite,
                 static_cast<std::int64_t>(key) +
                     static_cast<std::int64_t>(KvModule::kKeys) * value};
}

// The direct-mapped index (and generation slot) of a key in a table of
// the default 64 entries.
std::size_t index64(std::uint64_t key) {
  return static_cast<std::size_t>(ByKeyHash::mix(key) % 64);
}

// The first two keys below the gate key that share a 64-entry index.
std::array<std::uint64_t, 2> colliding_keys() {
  for (std::uint64_t a = 0; a < kv_gate_key(); ++a) {
    for (std::uint64_t b = a + 1; b < kv_gate_key(); ++b) {
      if (index64(a) == index64(b)) return {a, b};
    }
  }
  ADD_FAILURE() << "no two keys share an index";
  return {0, 1};
}

template <std::size_t kReplicas, std::size_t kRecs = 32>
using CachedKv = Replicated<Combining<KvModule, 8>, kReplicas,
                            KvModel, ByThread, 64, kRecs>;

// ---------------------------------------------------------------------------
// The unified Composable surface

struct ChainStub {
  struct Performed {
    Response response = 0;
  };

  template <class Ctx>
  Performed perform(Ctx& /*ctx*/, const Request& m) {
    return {m.arg * 2};
  }
};

static_assert(ModuleShaped<CounterModule, NativeContext>);
static_assert(!ChainShaped<CounterModule, NativeContext>);
static_assert(ChainShaped<ChainStub, NativeContext>);
static_assert(!ModuleShaped<ChainStub, NativeContext>);
static_assert(Composable<CounterModule, NativeContext>);
static_assert(Composable<ChainStub, NativeContext>);
static_assert(Composable<Combining<CounterModule, 8>, NativeContext>);
static_assert(Composable<CachedCounter, NativeContext>);

TEST(ComposableSurface, ApplyDispatchesModuleShaped) {
  CounterModule counter;
  NativeContext ctx(0);
  EXPECT_EQ(scm::apply(counter, ctx, inc_req(1, 0)).response, 0);
  EXPECT_EQ(scm::apply(counter, ctx, read_req(2, 0)).response, 1);
}

TEST(ComposableSurface, ApplyDispatchesChainShaped) {
  ChainStub chain;
  NativeContext ctx(0);
  const ModuleResult r =
      scm::apply(chain, ctx, Request{1, 0, 0, 21});
  EXPECT_TRUE(r.committed());
  EXPECT_EQ(r.response, 42);
}

// ---------------------------------------------------------------------------
// Solo equivalence: cached == bare, bit for bit, hit path included

TEST(Cached, SoloResultsMatchBareObjectIncludingHits) {
  CachedCounter cached;
  CounterModule bare;
  NativeContext ctx(0);

  for (std::uint64_t i = 0; i < 256; ++i) {
    // 3 reads per inc: the rereads are served from the table.
    const bool is_read = i % 4 != 0;
    const Request m = is_read ? read_req(i + 1, 0) : inc_req(i + 1, 0);
    const ModuleResult want = bare.invoke(ctx, m);
    const ModuleResult got = cached.invoke(ctx, m);
    ASSERT_EQ(got.outcome, want.outcome) << "op " << i;
    ASSERT_EQ(got.response, want.response) << "op " << i;
  }
  // The equivalence must have exercised the hit path to mean anything.
  EXPECT_GT(cached.hits(), 0u);
  // Every fetch_inc bumped the generation exactly once.
  EXPECT_EQ(cached.invalidations(), 64u);
}

// ---------------------------------------------------------------------------
// Staleness bound semantics

TEST(Cached, BoundZeroIsLinearizableBoundKServesStale) {
  Cached<Combining<CounterModule, 8>, NoRefillModel> cached;
  NativeContext ctx(0);

  // Fill: the first read misses and installs 0 at generation 0.
  EXPECT_EQ(cached.invoke(ctx, read_req(1, 0)).response, 0);
  EXPECT_EQ(cached.fills(), 1u);
  // A write invalidates without refilling (NoRefillModel).
  EXPECT_EQ(cached.invoke(ctx, inc_req(2, 0)).response, 0);
  EXPECT_EQ(cached.invalidations(), 1u);

  // Bound 1: the entry is one generation stale — admissible, and the
  // cache serves the STALE value (the real counter is already 1).
  cached.set_staleness_bound(1);
  EXPECT_EQ(cached.invoke(ctx, read_req(3, 0)).response, 0);
  EXPECT_EQ(cached.object().object().peek(), 1u);

  // Bound 0 (linearizable): the same entry now misses; the read goes
  // through the object and returns the current value.
  cached.set_staleness_bound(0);
  EXPECT_EQ(cached.invoke(ctx, read_req(4, 0)).response, 1);
  // ... and the miss refilled at the current generation, so the next
  // read hits fresh.
  const std::uint64_t hits_before = cached.hits();
  EXPECT_EQ(cached.invoke(ctx, read_req(5, 0)).response, 1);
  EXPECT_EQ(cached.hits(), hits_before + 1);
}

// ---------------------------------------------------------------------------
// Ticket-consuming invalidation (the async surface)

TEST(Cached, TicketCompletionRefillsAndInvalidates) {
  CachedCounter cached;
  NativeContext ctx(0);

  // A miss's fill arrives through the ticket: by the time wait()
  // returns, the callback has installed the entry.
  auto t0 = cached.submit(ctx, read_req(1, 0));
  EXPECT_EQ(t0.wait().response, 0);
  EXPECT_EQ(cached.fills(), 1u);
  ASSERT_TRUE(cached.read_at(0, 0).has_value());
  EXPECT_EQ(*cached.read_at(0, 0), 0);

  // A write's completion bumps the generation and refills with the
  // model-derived post-write value (old + 1).
  auto t1 = cached.submit(ctx, inc_req(2, 0));
  EXPECT_EQ(t1.wait().response, 0);
  EXPECT_EQ(cached.invalidations(), 1u);
  ASSERT_TRUE(cached.read_at(0, 0).has_value());
  EXPECT_EQ(*cached.read_at(0, 0), 1);

  // The refill makes the next read a hit — and a ready ticket (a hit
  // costs no shared write; there is nothing to wait for).
  const std::uint64_t hits_before = cached.hits();
  auto t2 = cached.submit(ctx, read_req(3, 0));
  EXPECT_TRUE(t2.poll());
  EXPECT_EQ(t2.wait().response, 1);
  EXPECT_EQ(cached.hits(), hits_before + 1);
}

// ---------------------------------------------------------------------------
// Concurrent histories linearize at bound 0

TEST(Cached, ConcurrentMixedHistoriesLinearizeAgainstCounterSpec) {
  // 3 threads x 5 ops, reads and fetch_incs interleaved, timestamps
  // from a global atomic clock. At staleness bound 0 every response —
  // cache hits included — must admit a linearization against
  // CounterSpec. Trace sizes stay small: the checker is exponential
  // in overlap.
  constexpr int kThreads = 3;
  constexpr std::uint64_t kOps = 5;

  for (int round = 0; round < 10; ++round) {
    Replicated<Combining<CounterModule, 8>, 2, CounterModel> cached;
    std::atomic<std::uint64_t> clock{0};
    struct Recorded {
      Response response = 0;
      std::uint64_t invoke = 0;
      std::uint64_t ret = 0;
      std::int64_t op = 0;
    };
    std::array<std::array<Recorded, kOps>, kThreads> rec{};

    (void)workload::run_threads(
        kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
          const auto tid = static_cast<std::size_t>(ctx.id());
          // Threads 1+ read mostly; thread 0 writes mostly — mixed
          // enough that hits, misses, and invalidations all occur.
          const bool is_read = tid == 0 ? (i % 2 == 1) : (i % 4 != 3);
          const Request m =
              is_read ? read_req((static_cast<std::uint64_t>(tid) << 40) |
                                     (i + 1),
                                 ctx.id())
                      : inc_req((static_cast<std::uint64_t>(tid) << 40) |
                                    (i + 1),
                                ctx.id());
          Recorded& r = rec[tid][i];
          r.op = m.op;
          r.invoke = clock.fetch_add(1, std::memory_order_acq_rel);
          r.response = cached.invoke(ctx, m).response;
          r.ret = clock.fetch_add(1, std::memory_order_acq_rel);
        });

    std::vector<ConcurrentOp> ops;
    for (int t = 0; t < kThreads; ++t) {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        const auto& r =
            rec[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
        ConcurrentOp op;
        op.pid = static_cast<ProcessId>(t);
        op.request = Request{(static_cast<std::uint64_t>(t) << 40) | (i + 1),
                             static_cast<ProcessId>(t), r.op, 0};
        op.response = r.response;
        op.invoke = r.invoke;
        op.ret = r.ret;
        op.completed = true;
        ops.push_back(op);
      }
    }
    ASSERT_TRUE(linearizable<CounterSpec>(std::move(ops)))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Invalidation storm

TEST(Replicated, InvalidationStormKeepsGenerationExactAndReadsMonotone) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOps = 512;

  Replicated<Combining<CounterModule, 8>, 2, CounterModel> cached;
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> monotonicity_violations{0};
  std::atomic<std::uint64_t> overshoots{0};

  (void)workload::run_threads(
      kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
        static thread_local Response last_read = -1;
        if (i == 0) last_read = -1;  // fresh per run
        const std::uint64_t id =
            (static_cast<std::uint64_t>(ctx.id()) << 40) | (i + 1);
        if (i % 2 == 0) {
          (void)cached.invoke(ctx, inc_req(id, ctx.id()));
          writes.fetch_add(1, std::memory_order_relaxed);
        } else {
          const Response r =
              cached.invoke(ctx, read_req(id, ctx.id())).response;
          // The counter never decreases: each thread's read stream
          // must be monotone even when served from replicas.
          if (r < last_read) {
            monotonicity_violations.fetch_add(1, std::memory_order_relaxed);
          }
          // A read can never exceed the number of writes ever issued.
          if (r > static_cast<Response>(kThreads * kOps)) {
            overshoots.fetch_add(1, std::memory_order_relaxed);
          }
          last_read = r;
        }
      });

  EXPECT_EQ(monotonicity_violations.load(), 0u);
  EXPECT_EQ(overshoots.load(), 0u);
  // Every write bumped the generation exactly once, even under storm.
  EXPECT_EQ(cached.invalidations(), writes.load());
  EXPECT_EQ(cached.object().object().peek(), writes.load());
  // A post-quiescence read agrees with the ground truth.
  NativeContext ctx(0);
  EXPECT_EQ(cached.invoke(ctx, read_req(1u << 20, 0)).response,
            static_cast<Response>(writes.load()));
}

// ---------------------------------------------------------------------------
// Replica isolation

TEST(Replicated, WritesInvalidateEveryReplica) {
  Replicated<Combining<CounterModule, 8>, 4, CounterModel> cached;

  // Fill each replica's entry from a differently-bound context.
  for (ProcessId p = 0; p < 4; ++p) {
    NativeContext ctx(p);
    (void)cached.invoke(ctx, read_req(static_cast<std::uint64_t>(p) + 1, p));
  }
  for (std::size_t rep = 0; rep < 4; ++rep) {
    ASSERT_TRUE(cached.read_at(rep, 0).has_value()) << "replica " << rep;
    EXPECT_EQ(*cached.read_at(rep, 0), 0);
  }

  // One write: every replica's entry must stop serving the old value —
  // either invisible (stale generation) or refilled to the new one.
  NativeContext writer(1);
  EXPECT_EQ(cached.invoke(writer, inc_req(100, 1)).response, 0);
  for (std::size_t rep = 0; rep < 4; ++rep) {
    const auto v = cached.read_at(rep, 0);
    if (v.has_value()) {
      EXPECT_EQ(*v, 1) << "replica " << rep;
    }
  }
  // The writer's own replica was refilled by the completion callback.
  ASSERT_TRUE(cached.read_at(1, 0).has_value());
  EXPECT_EQ(*cached.read_at(1, 0), 1);
}

// ---------------------------------------------------------------------------
// Per-key invalidation and set-associative replica tables

TEST(Replicated, WriteToOneKeyLeavesOtherKeysHittingOnEveryReplica) {
  constexpr std::size_t kReplicas = 3;
  CachedKv<kReplicas> cached;
  // Key b sits on a different generation slot from key a.
  const std::uint64_t a = 0;
  std::uint64_t b = 1;
  while (index64(b) == index64(a)) ++b;

  std::uint64_t id = 1;
  for (ProcessId p = 0; p < static_cast<ProcessId>(kReplicas); ++p) {
    NativeContext ctx(p);
    (void)cached.invoke(ctx, kv_read(id++, p, a));
    (void)cached.invoke(ctx, kv_read(id++, p, b));
  }
  NativeContext writer(0);
  ASSERT_TRUE(cached.invoke(writer, kv_write(id++, 0, a, 7)).committed());
  EXPECT_EQ(cached.invalidations(), 1u);

  // Key b: one hit per replica, no miss.
  const std::uint64_t hits = cached.hits();
  const std::uint64_t misses = cached.misses();
  for (ProcessId p = 0; p < static_cast<ProcessId>(kReplicas); ++p) {
    NativeContext ctx(p);
    EXPECT_EQ(cached.invoke(ctx, kv_read(id++, p, b)).response, 0);
  }
  EXPECT_EQ(cached.hits(), hits + kReplicas);
  EXPECT_EQ(cached.misses(), misses);

  // Key a: invisible on the replicas the writer did not refill, the
  // new value on the writer's own.
  EXPECT_FALSE(cached.read_at(1, a).has_value());
  EXPECT_FALSE(cached.read_at(2, a).has_value());
  ASSERT_TRUE(cached.read_at(0, a).has_value());
  EXPECT_EQ(*cached.read_at(0, a), 7);
}

TEST(Replicated, KeysSharingADirectMappedIndexStayResidentAndHit) {
  CachedKv<1> cached;
  NativeContext ctx(0);
  const auto [a, b] = colliding_keys();
  ASSERT_TRUE(cached.invoke(ctx, kv_write(1, 0, a, 11)).committed());
  ASSERT_TRUE(cached.invoke(ctx, kv_write(2, 0, b, 22)).committed());
  // The keys share a generation slot too, so b's write invalidated a:
  // one miss refills it.
  EXPECT_EQ(cached.invoke(ctx, kv_read(3, 0, a)).response, 11);
  EXPECT_EQ(cached.misses(), 1u);

  // Neither key evicted the other.
  ASSERT_TRUE(cached.read_at(0, a).has_value());
  ASSERT_TRUE(cached.read_at(0, b).has_value());
  const std::uint64_t hits = cached.hits();
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(cached.invoke(ctx, kv_read(10 + 2 * i, 0, a)).response, 11);
    EXPECT_EQ(cached.invoke(ctx, kv_read(11 + 2 * i, 0, b)).response, 22);
  }
  EXPECT_EQ(cached.hits(), hits + 16);
  EXPECT_EQ(cached.misses(), 1u);
}

TEST(Replicated, ConcurrentMultiKeyHistoriesLinearizePerKey) {
  // 3 threads mix reads and writes over three keys: two share a
  // generation slot, the third has its own. Linearizability is local,
  // so each key's sub-history must linearize against RegisterSpec on
  // its own at staleness bound 0 — hits included.
  constexpr int kThreads = 3;
  constexpr std::uint64_t kOps = 12;
  const auto [k0, k1] = colliding_keys();
  std::uint64_t k2 = 0;
  while (index64(k2) == index64(k0)) ++k2;
  const std::array<std::uint64_t, 3> keys{k0, k1, k2};

  struct Recorded {
    std::uint64_t key = 0;
    std::int64_t op = 0;
    std::int64_t value = 0;  // written value; 0 for reads
    Response response = 0;
    std::uint64_t invoke = 0;
    std::uint64_t ret = 0;
  };

  for (int round = 0; round < 10; ++round) {
    CachedKv<2> cached;
    std::atomic<std::uint64_t> clock{0};
    std::array<std::array<Recorded, kOps>, kThreads> rec{};
    // Every key starts resident on both replicas, so a replica that
    // misses another replica's write would serve a stale hit.
    for (ProcessId p = 0; p < 2; ++p) {
      NativeContext ctx(p);
      for (const std::uint64_t key : keys) {
        (void)cached.invoke(ctx, kv_read(1u << 20, p, key));
      }
    }

    (void)workload::run_threads(
        kThreads, kOps, [&](NativeContext& ctx, std::uint64_t i) {
          const auto tid = static_cast<std::size_t>(ctx.id());
          Recorded& r = rec[tid][i];
          r.key = keys[(tid + i) % keys.size()];
          const std::uint64_t id =
              (static_cast<std::uint64_t>(tid) << 40) | (i + 1);
          // Runs of three reads and three writes, phase-shifted per
          // thread, so every key sees reads and writes from all threads.
          const bool write = (i / 3 + tid) % 2 == 0;
          r.op = write ? RegisterSpec::kWrite : RegisterSpec::kRead;
          r.value = write ? static_cast<std::int64_t>(tid * kOps + i + 1) : 0;
          const Request m = write ? kv_write(id, ctx.id(), r.key, r.value)
                                  : kv_read(id, ctx.id(), r.key);
          r.invoke = clock.fetch_add(1, std::memory_order_acq_rel);
          r.response = cached.invoke(ctx, m).response;
          r.ret = clock.fetch_add(1, std::memory_order_acq_rel);
        });

    for (const std::uint64_t key : keys) {
      std::vector<ConcurrentOp> ops;
      for (int t = 0; t < kThreads; ++t) {
        for (std::uint64_t i = 0; i < kOps; ++i) {
          const auto& r =
              rec[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
          if (r.key != key) continue;
          ConcurrentOp op;
          op.pid = static_cast<ProcessId>(t);
          op.request =
              Request{(static_cast<std::uint64_t>(t) << 40) | (i + 1),
                      static_cast<ProcessId>(t), r.op, r.value};
          op.response = r.response;
          op.invoke = r.invoke;
          op.ret = r.ret;
          op.completed = true;
          ops.push_back(op);
        }
      }
      ASSERT_TRUE(linearizable<RegisterSpec>(std::move(ops)))
          << "round " << round << " key " << key;
    }
    EXPECT_GT(cached.hits(), 0u) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Completion-pool exhaustion

TEST(Replicated, PoolExhaustionStillHidesPreWriteValuesAndSkipsFills) {
  constexpr std::size_t kRecs = 2;
  CachedKv<2, kRecs> cached;
  const std::uint64_t a = 0;
  std::uint64_t b = 1;  // never read before the pool runs dry
  while (index64(b) == index64(a)) ++b;

  // Key a holds 5, cached on both replicas.
  std::uint64_t id = 1;
  NativeContext ctx(0);
  NativeContext other(1);
  ASSERT_TRUE(cached.invoke(ctx, kv_write(id++, 0, a, 5)).committed());
  (void)cached.invoke(other, kv_read(id++, 1, a));
  ASSERT_EQ(cached.read_at(0, a), std::optional<Response>(5));
  ASSERT_EQ(cached.read_at(1, a), std::optional<Response>(5));

  // A holder parks inside the object with the combiner lock held, so
  // every submission below stays published and keeps its record.
  g_gate_entered.store(false);
  g_gate_open.store(false);
  std::thread holder([&] {
    NativeContext hctx(2);
    (void)cached.invoke(hctx, kv_write(1000, 2, kv_gate_key(), 1));
  });
  while (!g_gate_entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // kRecs + 1 writes to key a: the last finds the pool empty and falls
  // back to the keyless invalidation. Then a miss on key b, which has
  // no record for its fill either.
  std::vector<Ticket<ModuleResult>> writes;
  for (std::int64_t v = 0; v <= static_cast<std::int64_t>(kRecs); ++v) {
    writes.push_back(cached.submit(ctx, kv_write(id++, 0, a, 100 + v)));
  }
  auto read_b = cached.submit(ctx, kv_read(id++, 0, b));
  const std::uint64_t fills = cached.fills();

  g_gate_open.store(true, std::memory_order_release);
  holder.join();
  for (auto& t : writes) EXPECT_TRUE(t.wait().committed());
  EXPECT_EQ(read_b.wait().response, 0);

  // Every write counted once: the pre-population, the holder's, and
  // the kRecs + 1 submitted ones.
  EXPECT_EQ(cached.invalidations(), 2 + kRecs + 1);
  // The pre-write value is gone from both replicas: each either misses
  // or serves the object's current value.
  const Response now = cached.object().object().peek(a);
  EXPECT_NE(now, 5);
  for (std::size_t rep = 0; rep < 2; ++rep) {
    const auto v = cached.read_at(rep, a);
    if (v.has_value()) {
      EXPECT_EQ(*v, now) << "replica " << rep;
    }
  }
  EXPECT_FALSE(cached.read_at(1, a).has_value());
  // Only the pooled writes and the holder's own write refilled; the
  // pool-less miss skipped its fill, so key b is still absent and its
  // next read misses.
  EXPECT_EQ(cached.fills(), fills + kRecs + 1);
  EXPECT_FALSE(cached.read_at(0, b).has_value());
  const std::uint64_t misses = cached.misses();
  EXPECT_EQ(cached.invoke(ctx, kv_read(id++, 0, b)).response, 0);
  EXPECT_EQ(cached.misses(), misses + 1);
  EXPECT_EQ(cached.invoke(ctx, kv_read(id++, 0, a)).response, now);
}

}  // namespace
}  // namespace scm
