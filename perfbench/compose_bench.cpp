// compose_bench: the repository benchmark. Closed-loop client threads
// call the composition stack's public entry points, verify every
// result, and the last stdout line is one JSON result object.
//
//   compose_bench --workload W --seed N --seconds S --trace 0|1
//                 [--git-sha SHA] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced, then traced (spans recorded around the
// benchmark's own calls, never inside the library), then the solo
// layer ladder, and prints the per-layer metrics. perfbench/README.md
// explains the workloads, the metrics and what each should move.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/async.hpp"
#include "core/caching.hpp"
#include "core/combining.hpp"
#include "core/pipeline.hpp"
#include "core/sharding.hpp"
#include "runtime/platform.hpp"
#include "support/cacheline.hpp"
#include "support/parking.hpp"
#include "support/rng.hpp"
#include "tas/biased_lock.hpp"
#include "workload/keyed.hpp"

namespace {

using namespace scm;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------
// The stacks under test.

// A stage that always aborts, handing its hop count to the next stage.
class Relay {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    (void)gate_.read(ctx);
    return ModuleResult::abort_with(init.value_or(0) + 1);
  }

 private:
  NativeRegister<int> gate_{0};
};

constexpr std::uint64_t kHops = 2;  // relays in front of the sink

// The last stage: fetch&inc, committing (ticket << 2) | hops, so every
// result names its ticket and proves the op walked both relays.
class TicketSink {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberFetchAdd;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& /*m*/,
                      std::optional<SwitchValue> init = std::nullopt) {
    const std::uint64_t t = count_.fetch_add(ctx);
    return ModuleResult::commit(static_cast<Response>(
        (t << 2) | static_cast<std::uint64_t>(init.value_or(0))));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_.peek(); }

 private:
  NativeCounter count_;
};

using Pipe = FastPipeline<Relay, Relay, TicketSink>;
constexpr std::size_t kSinkStage = 2;
constexpr std::size_t kSlots = 8;
constexpr std::size_t kShards = 4;
using CombinedPipe = Combining<Pipe, kSlots>;
using ShardedPipe = Sharded<CombinedPipe, kShards>;
using AdaptiveStack = Adaptive<ShardedPipe>;

bool ticket_of(const ModuleResult& r, std::uint64_t* ticket) {
  if (!r.committed() || r.response < 0) return false;
  const auto v = static_cast<std::uint64_t>(r.response);
  *ticket = v >> 2;
  return (v & 3) == kHops;
}

// A keyed register file. Values are key-tagged, (key << 20) | payload,
// so a torn or cross-key result is self-evident at the check site.
constexpr std::uint64_t kKeys = 64;
constexpr std::int64_t kOpWrite = 0;
constexpr std::int64_t kOpRead = 1;
constexpr unsigned kPayloadBits = 20;

std::uint64_t key_of(const Request& m) {
  return static_cast<std::uint64_t>(m.arg) % kKeys;
}

class KeyedStore {
 public:
  static constexpr int kConsensusNumber = kConsensusNumberRegister;

  template <class Ctx>
  ModuleResult invoke(Ctx& ctx, const Request& m,
                      std::optional<SwitchValue> /*init*/ = std::nullopt) {
    const std::uint64_t key = key_of(m);
    if (m.op == kOpWrite) {
      const std::uint64_t payload =
          (static_cast<std::uint64_t>(m.arg) / kKeys) &
          ((1u << kPayloadBits) - 1);
      const auto v = static_cast<Response>((key << kPayloadBits) | payload);
      cells_[key].write(ctx, v);
      return ModuleResult::commit(v);
    }
    return ModuleResult::commit(cells_[key].read(ctx));
  }

 private:
  std::array<NativeRegister<Response>, kKeys> cells_{};
};

struct StoreModel {
  static bool is_read(const Request& m) { return m.op == kOpRead; }
  static std::uint64_t key(const Request& m) { return key_of(m); }
  static std::optional<Response> read_after_write(const Request& /*m*/,
                                                  Response r) {
    return r;
  }
};

// 256 direct-mapped entries per replica, so the 64 keys fit: with 64
// entries, hash collisions alone cost a quarter of the hits.
constexpr std::size_t kReplicaEntries = 256;
using KvStore = Combining<KeyedStore, kSlots>;
template <std::size_t kReplicas>
using CachedKv =
    Replicated<KvStore, kReplicas, StoreModel, ByThread, kReplicaEntries>;

bool tagged(const ModuleResult& r, std::uint64_t key) {
  return r.committed() && r.response >= 0 &&
         (static_cast<std::uint64_t>(r.response) >> kPayloadBits) == key;
}

using Lock = BiasedLock<NativePlatform>;
constexpr std::size_t kLockRounds = std::size_t{1} << 14;

// ---------------------------------------------------------------------
// Op streams: generated from the seed during set-up and replayed
// cyclically, so the timed loop draws no random numbers.

struct StreamOp {
  std::int64_t op = 0;
  std::int64_t arg = 0;
};

constexpr std::size_t kStreamLen = std::size_t{1} << 18;
using Stream = std::vector<StreamOp>;

Rng thread_rng(std::uint64_t seed, int tid) {
  return Rng(seed ^ (0x9e3779b97f4a7c15ULL *
                     (static_cast<std::uint64_t>(tid) + 1)));
}

// fetch&inc ops with a seeded payload argument.
Stream counter_stream(std::uint64_t seed, int tid) {
  Rng rng = thread_rng(seed, tid);
  Stream s(kStreamLen);
  for (StreamOp& o : s) {
    o.op = 0;
    o.arg = static_cast<std::int64_t>(rng.below(1u << kPayloadBits));
  }
  return s;
}

// Zipf-keyed ops, one write in every `write_every` (at a seeded offset
// within each group, so every seed offers the same write rate);
// arg = key + kKeys * payload.
Stream kv_stream(std::uint64_t seed, int tid, std::uint64_t write_every) {
  Rng rng = thread_rng(seed, tid);
  const workload::ZipfianKeys keys(kKeys, 0.99);
  Stream s(kStreamLen);
  std::uint64_t write_at = rng.below(write_every);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i % write_every == 0 && i != 0) write_at = rng.below(write_every);
    StreamOp& o = s[i];
    const std::uint64_t key = keys(rng);
    o.op = i % write_every == write_at ? kOpWrite : kOpRead;
    o.arg = static_cast<std::int64_t>(key +
                                      kKeys * rng.below(1u << kPayloadBits));
  }
  return s;
}

Request request_at(const Stream& s, int tid, std::uint64_t i) {
  const StreamOp& o = s[i & (kStreamLen - 1)];
  return Request{(static_cast<std::uint64_t>(tid) << 40) | (i + 1),
                 static_cast<ProcessId>(tid), o.op, o.arg};
}

// ---------------------------------------------------------------------
// Measurement plumbing.

// Latency histogram: 1 ns buckets below 4096 ns, 64 ns buckets up to
// about 69 us, one overflow bucket. Quantiles interpolate inside their
// bucket, so a run's figure is not quantized to whole nanoseconds.
class Hist {
 public:
  Hist() : counts_(kBuckets, 0) {}

  void add(std::int64_t ns) {
    if (ns < 0) ns = 0;
    std::size_t b = static_cast<std::size_t>(ns);
    if (ns >= kFine) {
      b = std::min<std::size_t>(
          kBuckets - 1,
          static_cast<std::size_t>(kFine + (ns - kFine) / kCoarseWidth));
    }
    ++counts_[b];
    ++n_;
  }

  void merge(const Hist& o) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    n_ += o.n_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

  [[nodiscard]] double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double target = q * static_cast<double>(n_);
    double cum = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const auto c = static_cast<double>(counts_[b]);
      if (c > 0.0 && cum + c >= target) {
        return lo(b) + width(b) * (target - cum) / c;
      }
      cum += c;
    }
    return lo(kBuckets - 1);
  }

 private:
  static constexpr std::int64_t kFine = 4096;
  static constexpr std::int64_t kCoarseWidth = 64;
  static constexpr std::size_t kBuckets = kFine + 1024 + 1;

  static double lo(std::size_t b) {
    const auto fb = static_cast<std::int64_t>(b);
    return static_cast<double>(
        fb < kFine ? fb : kFine + (fb - kFine) * kCoarseWidth);
  }
  static double width(std::size_t b) {
    return static_cast<std::int64_t>(b) < kFine
               ? 1.0
               : static_cast<double>(kCoarseWidth);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

// One recorded span. parent indexes the same thread's log (-1: root).
struct Span {
  const char* name = nullptr;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::int32_t tid = 0;
  std::uint64_t op = 0;
};

// Fixed-capacity span log, sized (and first-touched) before timing.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : spans_(cap) {}

  std::int32_t add(const Span& s) {
    if (n_ == spans_.size()) return -1;
    spans_[n_] = s;
    return static_cast<std::int32_t>(n_++);
  }

  void close(std::int32_t i, std::int64_t end) {
    if (i >= 0) spans_[static_cast<std::size_t>(i)].end = end;
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] const Span& operator[](std::size_t i) const {
    return spans_[i];
  }

 private:
  std::vector<Span> spans_;
  std::size_t n_ = 0;
};

// Timestamps of one sampled op, taken by the workload around its call
// into the stack; name is the entry point called.
struct Probe {
  const char* name = nullptr;
  std::int64_t start = 0;
  std::int64_t end = 0;
  void begin() { start = now_ns(); }
  void finish() { end = now_ns(); }
};

// The unsampled op: same workload code, no clock reads.
struct NoProbe {
  const char* name = nullptr;
  void begin() {}
  void finish() {}
};

// The metrics a run prints, in order, with their units: the
// end-to-end set (--trace 0) and the per-layer set (--trace 1).
// BENCHMARK.json lists the same names.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr std::array<MetricDef, 6> kEndToEnd = {{
    {"throughput_mops", "Mops/s"},
    {"lat_p50_ns", "ns"},
    {"lat_p99_ns", "ns"},
    {"cpu_ns_per_op", "ns"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
}};

constexpr std::array<MetricDef, 26> kPerLayer = {{
    {"pipeline.ns_per_op", "ns"},
    {"combining.fastpath_ns", "ns"},
    {"sharding.route_ns", "ns"},
    {"adaptive.tick_ns", "ns"},
    {"async.submit_wait_ns", "ns"},
    {"caching.read_ns", "ns"},
    {"caching.write_ns", "ns"},
    {"tas.acquire_ns", "ns"},
    {"tas.rmws_per_acquire", "rmw/op"},
    {"tas.steps_per_acquire", "steps/op"},
    {"combining.direct_share", "ratio"},
    {"combining.ops_per_round", "ops/round"},
    {"parking.park_ratio", "ratio"},
    {"parking.parks_per_kop", "1/kop"},
    {"parking.futex_syscalls_per_kop", "1/kop"},
    {"caching.hit_ratio", "ratio"},
    {"caching.torn_retries_per_kread", "1/kread"},
    {"caching.fills_per_kop", "1/kop"},
    {"adaptive.decisions", "count"},
    {"sharding.active_shards", "count"},
    {"runtime.rmws_per_op", "rmw/op"},
    {"runtime.steps_per_op", "steps/op"},
    {"driver.cpu_share", "ratio"},
    {"driver.thread_ops_spread", "ratio"},
    {"driver.clock_pair_ns", "ns"},
    {"trace.overhead_frac", "ratio"},
}};

// A fixed set of named values, all starting at 0: a per-layer metric
// of a layer the workload does not call reads 0.
class Metrics {
 public:
  template <std::size_t N>
  explicit Metrics(const std::array<MetricDef, N>& defs)
      : defs_(defs.begin(), defs.end()), values_(N, 0.0) {}

  void set(const char* name, double value) {
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      if (std::string_view(defs_[i].name) == name) {
        values_[i] = value;
        return;
      }
    }
    SCM_CHECK_MSG(false, "metric not in the metric table");
  }

  [[nodiscard]] std::size_t size() const noexcept { return defs_.size(); }
  [[nodiscard]] const MetricDef& def(std::size_t i) const { return defs_[i]; }
  [[nodiscard]] double value(std::size_t i) const { return values_[i]; }

 private:
  std::vector<MetricDef> defs_;
  std::vector<double> values_;
};

// Post-run verification outcome: failed checks count against attempts.
struct Verdict {
  std::uint64_t failed = 0;
  std::vector<std::string> why;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    why.push_back(what);
  }
};

// ---------------------------------------------------------------------
// Workloads. Each constructor is the workload's set-up (objects,
// pre-population, streams); op() runs one client call and verifies
// its result; verify() checks the post-run invariants; layers() reads
// the layer counters the workload exercises from public accessors.

template <class C>
void combining_layers(Metrics& m, const C& c, std::uint64_t ops) {
  const double direct = static_cast<double>(c.direct_ops());
  const double combined = static_cast<double>(c.combined_ops());
  const ParkStats ps = c.park_stats();
  const double kops = static_cast<double>(ops) / 1000.0;
  m.set("combining.direct_share", ratio(direct, direct + combined));
  m.set("combining.ops_per_round",
        ratio(combined, static_cast<double>(c.combine_rounds())));
  m.set("parking.park_ratio", ps.park_ratio());
  m.set("parking.parks_per_kop", ratio(static_cast<double>(ps.parks), kops));
  m.set("parking.futex_syscalls_per_kop",
        ratio(static_cast<double>(ps.futex_syscalls), kops));
}

// hot-counter: three clients on one combining counter: publication,
// combiner election, batching and parking do the work.
struct HotCounter {
  static constexpr int kThreads = 3;

  struct alignas(kCacheLineSize) Local {
    bool any = false;
    std::uint64_t last = 0;
    std::uint64_t max = 0;
    std::uint64_t n = 0;
    std::uint64_t fingerprint = 0;  // sum of mix(ticket)
  };

  CombinedPipe cell;
  std::array<Stream, kThreads> streams;
  std::array<Local, kThreads> local{};

  explicit HotCounter(std::uint64_t seed) {
    // Publish-and-batch mode, the setting Adaptive picks under
    // sustained contention. With the TAS fast path on, about half the
    // ops go direct and the median flips between the direct and the
    // combined path from run to run.
    cell.set_elect_spins(0);
    for (int t = 0; t < kThreads; ++t) {
      streams[static_cast<std::size_t>(t)] = counter_stream(seed, t);
    }
  }

  template <class P>
  bool op(NativeContext& ctx, int tid, std::uint64_t i, P& p) {
    const auto tu = static_cast<std::size_t>(tid);
    const Request m = request_at(streams[tu], tid, i);
    p.name = "combining.invoke";
    p.begin();
    const ModuleResult r = cell.invoke(ctx, m);
    p.finish();
    Local& l = local[tu];
    std::uint64_t t = 0;
    // A client's tickets strictly increase: its calls are sequential
    // and the counter is linearizable.
    const bool ok = ticket_of(r, &t) && (!l.any || t > l.last);
    l.any = true;
    l.last = t;
    l.max = std::max(l.max, t);
    ++l.n;
    l.fingerprint += ByKeyHash::mix(t);
    return ok;
  }

  // Tickets are exactly {0, ..., N-1}: count, range and the sum of a
  // 64-bit mix over all tickets must match those of that set.
  void verify(std::uint64_t ops, Verdict& v) {
    const std::uint64_t n = cell.object().stage<kSinkStage>().count();
    v.check(n == ops, "hot-counter: final count differs from ops done");
    std::uint64_t seen = 0;
    std::uint64_t fingerprint = 0;
    for (const Local& l : local) {
      seen += l.n;
      fingerprint += l.fingerprint;
      v.check(!l.any || l.max < n, "hot-counter: ticket out of range");
    }
    std::uint64_t want = 0;
    for (std::uint64_t x = 0; x < n; ++x) want += ByKeyHash::mix(x);
    v.check(seen == n, "hot-counter: ticket count differs from final count");
    v.check(fingerprint == want, "hot-counter: tickets are not unique");
    v.check(cell.occupied() == 0,
            "hot-counter: publication slot left occupied");
  }

  void layers(Metrics& m, std::uint64_t ops) const {
    combining_layers(m, cell, ops);
  }
};

// read-mostly-kv: three clients, one replica each; Zipf(0.99) keys over
// a 64-key file that fits the replica tables, 99.9% reads. Every write
// invalidates every replica, so at 99% reads the hit ratio sits at 0.5
// and the median latency flips between the hit and the miss path from
// run to run; at 99.9% it is about 0.8.
struct ReadMostlyKv {
  static constexpr int kThreads = 3;
  static constexpr std::uint64_t kWriteEvery = 1000;

  struct alignas(kCacheLineSize) Local {
    std::uint64_t writes = 0;
  };

  CachedKv<kThreads> kv;
  std::array<Stream, kThreads> streams;
  std::array<Local, kThreads> local{};
  std::uint64_t prepopulate_failed = 0;

  // Pre-population writes every key once, so every read has a value.
  explicit ReadMostlyKv(std::uint64_t seed) {
    NativeContext ctx(0);
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      const Request m{key + 1, 0, kOpWrite, static_cast<std::int64_t>(key)};
      prepopulate_failed += tagged(kv.invoke(ctx, m), key) ? 0 : 1;
    }
    for (int t = 0; t < kThreads; ++t) {
      streams[static_cast<std::size_t>(t)] = kv_stream(seed, t, kWriteEvery);
    }
  }

  template <class P>
  bool op(NativeContext& ctx, int tid, std::uint64_t i, P& p) {
    const auto tu = static_cast<std::size_t>(tid);
    const Request m = request_at(streams[tu], tid, i);
    const bool write = m.op == kOpWrite;
    p.name = write ? "caching.write" : "caching.read";
    p.begin();
    const ModuleResult r = kv.invoke(ctx, m);
    p.finish();
    local[tu].writes += write ? 1 : 0;
    return tagged(r, key_of(m));
  }

  void verify(std::uint64_t /*ops*/, Verdict& v) {
    NativeContext ctx(0);
    kv.drain(ctx);
    std::uint64_t writes = kKeys;
    for (const Local& l : local) writes += l.writes;
    v.check(prepopulate_failed == 0, "read-mostly-kv: pre-population failed");
    v.check(kv.invalidations() == writes,
            "read-mostly-kv: invalidations differ from writes");
    v.check(kv.object().occupied() == 0,
            "read-mostly-kv: publication slot occupied after drain");
  }

  void layers(Metrics& m, std::uint64_t ops) const {
    combining_layers(m, kv.object(), ops);
    const double hits = static_cast<double>(kv.hits());
    const double misses = static_cast<double>(kv.misses());
    m.set("caching.hit_ratio", ratio(hits, hits + misses));
    m.set("caching.torn_retries_per_kread",
          ratio(1000.0 * static_cast<double>(kv.torn_retries()),
                hits + misses));
    m.set("caching.fills_per_kop",
          ratio(1000.0 * static_cast<double>(kv.fills()),
                static_cast<double>(ops)));
  }
};

// ---------------------------------------------------------------------
// Client threads.

struct Control {
  std::atomic<int> state{0};  // 0 hold, 1 run, 2 stop
  std::atomic<int> ready{0};
  // Read on sampled ops only: the measurement window (-1 = warm-up)
  // and whether sampled ops record spans.
  alignas(kCacheLineSize) std::atomic<int> window{-1};
  std::atomic<bool> traced{false};
};

struct alignas(kCacheLineSize) WorkerState {
  WorkerState(int windows, std::size_t span_cap)
      : hists(static_cast<std::size_t>(windows)), spans(span_cap) {}

  std::atomic<std::uint64_t> ops{0};
  alignas(kCacheLineSize) std::uint64_t failed = 0;
  bool pinned = false;
  long nivcsw = 0;
  StepCounters steps;
  std::vector<Hist> hists;  // per measurement window
  SpanLog spans;
};

constexpr std::uint64_t kSampleEvery = 16;  // power of two

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

bool pin_to(int cpu) {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

template <class W>
class Pool {
 public:
  // Spawns W::kThreads clients, client t pinned to cpus[t % size];
  // returns once all are waiting.
  Pool(W& wl, std::vector<int> cpus, int windows, std::size_t span_cap,
       std::int64_t t0)
      : wl_(wl), t0_(t0), cpus_(std::move(cpus)) {
    for (int t = 0; t < W::kThreads; ++t) {
      workers_.push_back(std::make_unique<WorkerState>(windows, span_cap));
    }
    for (int t = 0; t < W::kThreads; ++t) {
      threads_.emplace_back([this, t] { body(t); });
    }
    while (ctl_.ready.load(std::memory_order_acquire) < W::kThreads) {
      std::this_thread::yield();
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() { stop(); }

  void release() { ctl_.state.store(1, std::memory_order_release); }

  void stop() {
    ctl_.state.store(2, std::memory_order_release);
    for (std::thread& th : threads_) {
      if (th.joinable()) th.join();
    }
  }

  Control& control() noexcept { return ctl_; }
  [[nodiscard]] const std::vector<std::unique_ptr<WorkerState>>& workers()
      const {
    return workers_;
  }

  std::vector<std::uint64_t> ops_snapshot() const {
    std::vector<std::uint64_t> ops;
    for (const auto& w : workers_) {
      ops.push_back(w->ops.load(std::memory_order_relaxed));
    }
    return ops;
  }

 private:
  void body(int tid) {
    WorkerState& st = *workers_[static_cast<std::size_t>(tid)];
    if (!cpus_.empty()) {
      st.pinned = pin_to(cpus_[static_cast<std::size_t>(tid) % cpus_.size()]);
    }
    NativeContext ctx(tid);
    ctl_.ready.fetch_add(1, std::memory_order_release);
    while (ctl_.state.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    std::uint64_t i = 0;
    std::uint64_t failed = 0;
    while (ctl_.state.load(std::memory_order_relaxed) == 1) {
      bool ok = false;
      if ((i & (kSampleEvery - 1)) != 0) {
        NoProbe p;
        ok = wl_.op(ctx, tid, i, p);
      } else {
        const int w = ctl_.window.load(std::memory_order_relaxed);
        const bool traced = ctl_.traced.load(std::memory_order_relaxed);
        Probe p;
        ok = wl_.op(ctx, tid, i, p);
        if (w >= 0) st.hists[static_cast<std::size_t>(w)].add(p.end - p.start);
        if (traced) {
          (void)st.spans.add(
              Span{p.name, p.start - t0_, p.end - t0_, -1, tid, i});
        }
      }
      failed += ok ? 0 : 1;
      ++i;
      st.ops.store(i, std::memory_order_relaxed);
    }
    st.failed = failed;
    st.steps = ctx.counters();
    rusage ru{};
    if (getrusage(RUSAGE_THREAD, &ru) == 0) st.nivcsw = ru.ru_nivcsw;
  }

  W& wl_;
  std::int64_t t0_;
  std::vector<int> cpus_;
  Control ctl_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::thread> threads_;  // last: joined before the rest goes
};

// One measurement window, as the main thread saw it.
struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = 0.0;  // hypervisor steal on the clients' CPUs
  std::vector<std::uint64_t> thread_ops;
  bool traced = false;
  bool kept = true;  // counted in the medians (see keep_unstolen)

  [[nodiscard]] std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const std::uint64_t o : thread_ops) n += o;
    return n;
  }
};

// Time the hypervisor ran something else on these CPUs (the steal
// column of /proc/stat), in seconds; 0 where the kernel reports none.
double steal_s(const std::vector<int>& cpus) {
  std::ifstream in("/proc/stat");
  std::string line;
  double ticks = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    std::uint64_t v[8] = {};
    fields >> cpu;
    for (std::uint64_t& x : v) fields >> x;
    if (std::find(cpus.begin(), cpus.end(), cpu) != cpus.end()) {
      ticks += static_cast<double>(v[7]);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Releases the clients, warms up, then walks the windows (traced[w]
// says whether window w records spans) and stops the clients.
template <class W>
std::vector<Window> measure(Pool<W>& pool, double warmup_s, double window_s,
                            const std::vector<bool>& traced,
                            const std::vector<int>& cpus) {
  using Sec = std::chrono::duration<double>;
  Control& ctl = pool.control();
  pool.release();
  std::this_thread::sleep_for(Sec(warmup_s));
  std::vector<Window> out;
  auto prev_ops = pool.ops_snapshot();
  double prev_cpu = process_cpu_s();
  double prev_steal = steal_s(cpus);
  std::int64_t prev_t = now_ns();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t w = 0; w < traced.size(); ++w) {
    ctl.traced.store(traced[w], std::memory_order_relaxed);
    ctl.window.store(static_cast<int>(w), std::memory_order_relaxed);
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    Sec(window_s * static_cast<double>(w + 1))));
    const auto ops = pool.ops_snapshot();
    const double cpu = process_cpu_s();
    const double steal = steal_s(cpus);
    const std::int64_t t = now_ns();
    Window win;
    win.wall_s = 1e-9 * static_cast<double>(t - prev_t);
    win.cpu_s = cpu - prev_cpu;
    win.steal_s = steal - prev_steal;
    win.traced = traced[w];
    for (std::size_t k = 0; k < ops.size(); ++k) {
      win.thread_ops.push_back(ops[k] - prev_ops[k]);
    }
    out.push_back(std::move(win));
    prev_ops = ops;
    prev_cpu = cpu;
    prev_steal = steal;
    prev_t = t;
  }
  ctl.window.store(-1, std::memory_order_relaxed);
  ctl.traced.store(false, std::memory_order_relaxed);
  pool.stop();
  return out;
}

// ---------------------------------------------------------------------
// The layer ladder (traced runs only): one client, one op stream, up
// the stack a layer at a time, every call spanned at its public entry
// point. A rung's cost is its span minus the empty span; a layer's
// marginal cost is its rung minus the rung below.

class Ladder {
 public:
  explicit Ladder(std::uint64_t seed)
      : counters_(counter_stream(seed, 0)),
        writes_(kv_stream(seed, 0, /*write_every=*/1)) {
    NativeContext ctx(0);
    // The read rung serves one pre-written key: the cache hit path.
    bad_ += tagged(read_cache_.invoke(ctx, Request{1, 0, kOpWrite, kReadKey}),
                   kReadKey)
                ? 0
                : 1;
  }

  // Runs the rungs round-robin, kBlock calls each, for `seconds`.
  void run(double seconds, std::int64_t t0, Verdict& v) {
    NativeContext ctx(0);
    // Warm-up: Adaptive converged, replica entries filled, code paged.
    cycle(ctx, 16, t0, /*timed=*/false);
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < end) cycle(ctx, 1, t0, /*timed=*/true);
    v.failed += bad_;
    if (bad_ != 0) v.why.push_back("ladder: a rung returned a wrong result");
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }

  [[nodiscard]] const SpanLog& spans() const noexcept { return spans_; }

  void layers(Metrics& m) const {
    const double clock = cost(kClock);
    m.set("pipeline.ns_per_op", cost(kPipe) - clock);
    m.set("combining.fastpath_ns", cost(kComb) - cost(kPipe));
    m.set("sharding.route_ns", cost(kShard) - cost(kComb));
    m.set("adaptive.tick_ns", cost(kAdapt) - cost(kShard));
    m.set("async.submit_wait_ns", cost(kSubmit) - cost(kComb));
    m.set("caching.read_ns", cost(kRead) - clock);
    m.set("caching.write_ns", cost(kWrite) - clock);
    m.set("tas.acquire_ns", cost(kTas) - clock);
    const Rung& tas = rungs_[kTas];
    const auto acquires = static_cast<double>(tas.calls);
    m.set("tas.rmws_per_acquire",
          ratio(static_cast<double>(tas.steps.rmws), acquires));
    m.set("tas.steps_per_acquire",
          ratio(static_cast<double>(tas.steps.total()), acquires));
    m.set("driver.clock_pair_ns", clock);
    // The Adaptive rung is a lone client: one decision, one shard.
    m.set("adaptive.decisions", static_cast<double>(stack_.decisions()));
    m.set("sharding.active_shards",
          static_cast<double>(stack_.tuning().active_shards));
  }

 private:
  enum : std::size_t {
    kClock, kPipe, kComb, kShard, kAdapt, kSubmit, kRead, kWrite, kTas, kRungs
  };
  static constexpr std::size_t kBlock = 64;
  static constexpr std::size_t kSpansPerRung = std::size_t{1} << 12;
  static constexpr std::int64_t kReadKey = 1;

  struct Rung {
    std::vector<double> block_ns;  // mean span of each timed block
    StepCounters steps;
    std::uint64_t calls = 0;
    std::size_t spans = 0;
  };

  // Median over blocks of the mean span in a block: a block averages
  // away the clock's granularity, the median drops the blocks that an
  // interrupt or the hypervisor cut into.
  [[nodiscard]] double cost(std::size_t r) const {
    return median(rungs_[r].block_ns);
  }

  void cycle(NativeContext& ctx, int blocks, std::int64_t t0, bool timed) {
    for (int b = 0; b < blocks; ++b) {
      block(kClock, ctx, t0, timed, [] { return true; });
      block(kPipe, ctx, t0, timed, [&] {
        return next_ticket(pipe_.invoke(ctx, req()), pipe_next_);
      });
      block(kComb, ctx, t0, timed, [&] {
        return next_ticket(comb_.invoke(ctx, req()), comb_next_);
      });
      block(kShard, ctx, t0, timed, [&] {
        return next_ticket(sharded_.invoke(ctx, req()), shard_next_);
      });
      block(kAdapt, ctx, t0, timed, [&] {
        return next_ticket(stack_.invoke(ctx, req()), stack_next_);
      });
      block(kSubmit, ctx, t0, timed, [&] {
        return next_ticket(async_.submit(ctx, req()).wait(), async_next_);
      });
      block(kRead, ctx, t0, timed, [&] {
        const Request m{++id_, 0, kOpRead, kReadKey};
        return tagged(read_cache_.invoke(ctx, m), kReadKey);
      });
      block(kWrite, ctx, t0, timed, [&] {
        const Request m = request_at(writes_, 0, id_++);
        return tagged(write_cache_.invoke(ctx, m), key_of(m));
      });
      block(kTas, ctx, t0, timed, [&] {
        lock_.lock(ctx);
        ++cs_count_;
        lock_.unlock(ctx);
        return cs_count_ == ++acquired_;
      });
    }
  }

  template <class Fn>
  void block(std::size_t r, NativeContext& ctx, std::int64_t t0, bool timed,
             Fn&& fn) {
    Rung& rung = rungs_[r];
    const StepCounters before = ctx.counters();
    // The first blocks of each rung are recorded: a block span, and
    // under it a span per call.
    const bool keep = timed && rung.spans < kSpansPerRung;
    const std::int32_t parent =
        keep ? spans_.add(Span{kNames[r], now_ns() - t0, 0, -1, -1, rung.calls})
             : -1;
    std::int64_t sum = 0;
    for (std::size_t k = 0; k < kBlock; ++k) {
      const std::int64_t a = now_ns();
      const bool ok = fn();
      const std::int64_t b = now_ns();
      bad_ += ok ? 0 : 1;
      ++calls_;
      if (!timed) continue;
      sum += b - a;
      if (keep) {
        (void)spans_.add(
            Span{kCalls[r], a - t0, b - t0, parent, -1, rung.calls});
      }
      ++rung.calls;
    }
    spans_.close(parent, now_ns() - t0);
    if (keep) rung.spans += kBlock;
    if (!timed) return;
    rung.block_ns.push_back(static_cast<double>(sum) / kBlock);
    rung.steps += ctx.counters() - before;
  }

  Request req() { return request_at(counters_, 0, id_++); }

  static bool next_ticket(const ModuleResult& r, std::uint64_t& next) {
    std::uint64_t t = 0;
    const bool ok = ticket_of(r, &t) && t == next;
    next = t + 1;
    return ok;
  }

  static constexpr std::array<const char*, kRungs> kNames = {
      "ladder.clock",      "ladder.pipeline",   "ladder.combining",
      "ladder.sharded",    "ladder.adaptive",   "ladder.submit_wait",
      "ladder.cache_read", "ladder.cache_write", "ladder.tas_acquire"};
  // The public entry point each rung's calls go through.
  static constexpr std::array<const char*, kRungs> kCalls = {
      "clock.empty",     "pipeline.invoke",  "combining.invoke",
      "sharded.invoke",  "adaptive.invoke",  "combining.submit_wait",
      "caching.read",    "caching.write",    "tas.lock_unlock"};

  Stream counters_;
  Stream writes_;
  Pipe pipe_;
  CombinedPipe comb_;
  ShardedPipe sharded_;
  AdaptiveStack stack_;
  CombinedPipe async_;
  CachedKv<1> read_cache_;
  CachedKv<1> write_cache_;
  Lock lock_{1, kLockRounds, /*recycle=*/true};
  std::uint64_t pipe_next_ = 0, comb_next_ = 0, shard_next_ = 0,
                stack_next_ = 0, async_next_ = 0;
  std::uint64_t cs_count_ = 0;  // written only inside the critical section
  std::uint64_t acquired_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t calls_ = 0;  // every call, warm-up included
  std::uint64_t bad_ = 0;
  std::array<Rung, kRungs> rungs_{};
  SpanLog spans_{kRungs * (kSpansPerRung + kSpansPerRung / kBlock)};
};

// ---------------------------------------------------------------------
// Command line and the run.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

// An untraced run is kRounds rounds, each a fresh set-up, a warm-up and
// an equal share of the measurement windows; setup_s is the median of
// the rounds' set-ups. The speed of one CPU of a shared virtual machine
// drifts with its co-tenants' load over seconds, so set-ups made back
// to back time one moment of that drift; spread over the run they time
// its median. A traced run reports no setup_s and is one round.
constexpr int kRounds = 40;
constexpr double kWarmupS = 0.1;
constexpr std::size_t kSpansPerThread = std::size_t{1} << 14;
// A run whose clients got less CPU than this share of wall x threads
// was descheduled by co-tenants (or parked its own clients).
constexpr double kDescheduledShare = 0.85;
constexpr double kMaxStealShare = 0.02;
constexpr double kWindowS = 0.5;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The process's own peak resident set (VmHWM). getrusage's ru_maxrss
// would also count the parent's before exec when it was spawned with
// vfork, as Python's subprocess does.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

template <class T>
std::string json_list(const std::vector<T>& v) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? ", " : "") << json_num(static_cast<double>(v[i]));
  }
  os << "]";
  return os.str();
}

double median_of(const std::vector<Window>& ws, bool traced,
                 double (*f)(const Window&)) {
  std::vector<double> v;
  for (const Window& w : ws) {
    if (w.traced == traced && w.kept) v.push_back(f(w));
  }
  return median(v);
}

// Leaves out of the medians the windows in which the hypervisor ran
// something else on the clients' CPUs for more than kMaxStealShare of
// their time: those measure the host's load, not the program. When
// that is more than half the windows of a slice, the half with the
// least steal counts, and the function returns false (the run is
// flagged descheduled).
bool keep_unstolen(std::vector<Window>& ws, int threads, bool traced) {
  std::vector<Window*> slice;
  for (Window& w : ws) {
    if (w.traced == traced) slice.push_back(&w);
  }
  const auto share = [threads](const Window* w) {
    return ratio(w->steal_s, w->wall_s * threads);
  };
  std::size_t calm = 0;
  for (Window* w : slice) {
    w->kept = share(w) <= kMaxStealShare;
    calm += w->kept ? 1 : 0;
  }
  if (2 * calm >= slice.size()) return true;
  std::stable_sort(slice.begin(), slice.end(),
                   [&](const Window* x, const Window* y) {
                     return share(x) < share(y);
                   });
  for (std::size_t i = 0; i < slice.size(); ++i) {
    slice[i]->kept = 2 * i < slice.size();
  }
  return false;
}

bool write_trace(const std::string& path, const Options& o,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": " << json_str(o.workload) << ", \"seed\": " << o.seed
      << ", \"fields\": [\"name\", \"tid\", \"start_ns\", \"end_ns\", "
         "\"parent\", \"op\"]}\n";
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < log->size(); ++i) {
      const Span& s = (*log)[i];
      out << "[" << json_str(s.name) << ", " << s.tid << ", " << s.start << ", "
          << s.end << ", " << s.parent << ", " << s.op << "]\n";
    }
  }
  return static_cast<bool>(out);
}

template <class W>
int run(const Options& o) {
  constexpr int kThreads = W::kThreads;
  const std::int64_t t0 = now_ns();
  const std::vector<int> cpus = allowed_cpus();
  const int ncpu = static_cast<int>(cpus.size());
  std::vector<std::string> flags;
  // Clients get distinct CPUs apart from the main thread's, when the
  // box has them; otherwise they share, and the run says so.
  const bool oversubscribed = kThreads + 1 > ncpu;
  if (oversubscribed) flags.push_back("oversubscribed");
  const int main_cpu = !oversubscribed && pin_to(cpus[0]) ? cpus[0] : -1;
  const std::vector<int> client_cpus(cpus.begin() + (main_cpu < 0 ? 0 : 1),
                                     cpus.end());

  // Schedule: kWindowS windows, shared equally by the rounds. A traced
  // run spends 30% of its time untraced, 30% traced, and the rest on
  // the ladder.
  const int rounds = o.trace ? 1 : kRounds;
  const double workload_s = o.trace ? 0.6 * o.seconds : o.seconds;
  const int per_round =
      std::max(o.trace ? 2 : 1,
               static_cast<int>(workload_s / kWindowS / rounds + 0.5));
  const int nwin = per_round * rounds;
  std::vector<bool> traced(static_cast<std::size_t>(nwin), false);
  if (o.trace) {
    for (int w = nwin / 2; w < nwin; ++w) {
      traced[static_cast<std::size_t>(w)] = true;
    }
  }

  // Each round: set-up (construction, pre-population, stream generation,
  // client spawn and pinning), warm-up and the round's windows; then the
  // round's workload is verified and torn down. Its freed memory goes
  // back to the kernel, so every set-up faults its pages in, as a
  // first one does. The last round's workload stays for the per-layer
  // reads.
  std::vector<double> setups;
  std::vector<Window> windows;
  std::vector<Hist> hists;  // per window, over all clients
  std::uint64_t ops = 0;
  std::uint64_t op_failures = 0;
  StepCounters steps;
  std::vector<int> pinned;  // the CPU of each client
  std::vector<long> nivcsw(static_cast<std::size_t>(kThreads), 0);
  Verdict verdict;
  std::unique_ptr<W> wl;
  std::unique_ptr<Pool<W>> pool;
  for (int r = 0; r < rounds; ++r) {
    pool.reset();
    wl.reset();
    malloc_trim(0);
    const std::int64_t a = now_ns();
    wl = std::make_unique<W>(o.seed);
    pool = std::make_unique<Pool<W>>(*wl, client_cpus, per_round,
                                     o.trace ? kSpansPerThread : 0, t0);
    setups.push_back(1e-9 * static_cast<double>(now_ns() - a));

    const auto first = traced.begin() + r * per_round;
    std::vector<Window> ws =
        measure(*pool, kWarmupS, workload_s / nwin,
                std::vector<bool>(first, first + per_round), client_cpus);
    std::uint64_t round_ops = 0;
    pinned.clear();
    for (std::size_t k = 0; k < pool->workers().size(); ++k) {
      const WorkerState& w = *pool->workers()[k];
      round_ops += w.ops.load(std::memory_order_relaxed);
      op_failures += w.failed;
      steps += w.steps;
      pinned.push_back(w.pinned ? client_cpus[k % client_cpus.size()] : -1);
      nivcsw[k] += w.nivcsw;
    }
    for (std::size_t w = 0; w < ws.size(); ++w) {
      Hist h;
      for (const auto& st : pool->workers()) h.merge(st->hists[w]);
      hists.push_back(std::move(h));
      windows.push_back(std::move(ws[w]));
    }
    ops += round_ops;
    wl->verify(round_ops, verdict);
  }
  bool calm = keep_unstolen(windows, kThreads, false);
  if (o.trace) calm = keep_unstolen(windows, kThreads, true) && calm;
  if (op_failures != 0) {
    verdict.failed += op_failures;
    verdict.why.push_back("client calls returned wrong results");
  }

  // Whole-run figures over the measured windows.
  double wall = 0.0;
  double cpu = 0.0;
  double steal = 0.0;
  std::vector<double> window_mops;
  std::vector<double> window_steal;
  std::vector<std::uint64_t> per_thread(static_cast<std::size_t>(kThreads), 0);
  for (const Window& w : windows) {
    wall += w.wall_s;
    cpu += w.cpu_s;
    steal += w.steal_s;
    window_mops.push_back(1e-6 * static_cast<double>(w.ops()) / w.wall_s);
    window_steal.push_back(ratio(w.steal_s, w.wall_s * kThreads));
    for (std::size_t k = 0; k < w.thread_ops.size(); ++k) {
      per_thread[k] += w.thread_ops[k];
    }
  }
  const double cpu_share = ratio(cpu, wall * kThreads);
  if (cpu_share < kDescheduledShare || !calm) flags.push_back("descheduled");
  const auto [lo, hi] =
      std::minmax_element(per_thread.begin(), per_thread.end());
  const double ops_spread =
      ratio(static_cast<double>(*hi), static_cast<double>(*lo));

  // Latency: per-window quantiles over all clients, median over windows.
  std::vector<double> p50;
  std::vector<double> p99;
  std::uint64_t samples = 0;
  std::uint64_t min_window_samples = UINT64_MAX;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].traced || !windows[w].kept) continue;
    const Hist& h = hists[w];
    p50.push_back(h.quantile(0.50));
    p99.push_back(h.quantile(0.99));
    samples += h.count();
    min_window_samples = std::min(min_window_samples, h.count());
  }

  const auto mops = [](const Window& w) {
    return 1e-6 * static_cast<double>(w.ops()) / w.wall_s;
  };
  const auto cpu_ns = [](const Window& w) {
    return 1e9 * w.cpu_s /
           static_cast<double>(std::max<std::uint64_t>(1, w.ops()));
  };

  Metrics m = o.trace ? Metrics(kPerLayer) : Metrics(kEndToEnd);
  std::uint64_t attempted = ops;
  std::unique_ptr<Ladder> ladder;
  if (!o.trace) {
    m.set("throughput_mops", median_of(windows, false, mops));
    m.set("lat_p50_ns", median(p50));
    m.set("lat_p99_ns", median(p99));
    m.set("cpu_ns_per_op", median_of(windows, false, cpu_ns));
    m.set("setup_s", median(setups));
    m.set("peak_rss_mib", peak_rss_mib());
  } else {
    wl->layers(m, ops);
    const double ops_d = static_cast<double>(std::max<std::uint64_t>(1, ops));
    m.set("runtime.rmws_per_op", static_cast<double>(steps.rmws) / ops_d);
    m.set("runtime.steps_per_op", static_cast<double>(steps.total()) / ops_d);
    m.set("driver.cpu_share", cpu_share);
    m.set("driver.thread_ops_spread", ops_spread);
    m.set("trace.overhead_frac",
          1.0 - ratio(median_of(windows, true, mops),
                      median_of(windows, false, mops)));
    ladder = std::make_unique<Ladder>(o.seed);
    ladder->run(o.seconds - workload_s, t0, verdict);
    ladder->layers(m);
    attempted += ladder->calls();
    if (!o.trace_out.empty()) {
      std::vector<const SpanLog*> logs;
      for (const auto& w : pool->workers()) logs.push_back(&w->spans);
      logs.push_back(&ladder->spans());
      if (!write_trace(o.trace_out, o, logs)) {
        std::fprintf(stderr, "cannot write trace file %s\n",
                     o.trace_out.c_str());
        verdict.check(false, "trace file not written");
      }
    }
  }

  const bool correct = verdict.failed == 0;
  std::ostringstream report;
  report << "{\"report\": {\"workload\": " << json_str(o.workload)
         << ", \"seed\": " << o.seed << ", \"threads\": " << kThreads
         << ", \"trace\": " << (o.trace ? 1 : 0)
         << ", \"git_sha\": " << json_str(o.git_sha)
         << ", \"cpu_model\": " << json_str(cpu_model())
         << ", \"allowed_cpus\": " << ncpu << ", \"main_cpu\": " << main_cpu
         << ", \"worker_cpus\": " << json_list(pinned)
         << ", \"worker_involuntary_switches\": " << json_list(nivcsw)
         << ", \"cpu_share\": " << json_num(cpu_share)
         << ", \"steal_share\": " << json_num(ratio(steal, wall * kThreads))
         << ", \"window_mops\": " << json_list(window_mops)
         << ", \"window_p50_ns\": " << json_list(p50)
         << ", \"window_steal_share\": " << json_list(window_steal)
         << ", \"windows\": " << windows.size() << ", \"windows_kept\": "
         << std::count_if(windows.begin(), windows.end(),
                          [](const Window& w) { return w.kept; })
         << ", \"latency_samples\": " << samples
         << ", \"latency_samples_min_window\": "
         << (samples == 0 ? 0 : min_window_samples)
         << ", \"setup_runs_s\": " << json_list(setups)
         << ", \"ops_failed_frac\": "
         << json_num(ratio(static_cast<double>(verdict.failed),
                           static_cast<double>(attempted)))
         << ", \"flags\": [";
  for (std::size_t i = 0; i < flags.size(); ++i) {
    report << (i ? ", " : "") << json_str(flags[i]);
  }
  report << "], \"failures\": [";
  for (std::size_t i = 0; i < verdict.why.size(); ++i) {
    report << (i ? ", " : "") << json_str(verdict.why[i]);
  }
  report << "]}}";
  std::printf("%s\n", report.str().c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted
         << ", \"failed\": " << verdict.failed
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    result << (i ? ", " : "") << json_str(m.def(i).name) << ": {\"value\": "
           << json_num(m.value(i)) << ", \"unit\": " << json_str(m.def(i).unit)
           << "}";
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  for (const std::string& why : verdict.why) {
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  }
  return correct ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: compose_bench --workload "
               "hot-counter|read-mostly-kv --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] [--trace-out FILE]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' ||
          !(o.seconds >= 1.0 && o.seconds <= 120.0)) {
        usage("--seconds must be in [1, 120]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      o.trace = val == "1";
      have_trace = true;
    } else if (flag == "--git-sha") {
      o.git_sha = val;
    } else if (flag == "--trace-out") {
      o.trace_out = val;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.workload == "hot-counter") return run<HotCounter>(o);
  if (o.workload == "read-mostly-kv") return run<ReadMostlyKv>(o);
  usage(("unknown workload " + o.workload).c_str());
}
