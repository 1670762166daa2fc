// Closed-loop workload runner behind perfbench/run.py.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-reps <k>] [--spans <file>]
//
// One process runs one workload: it builds the structure (timed, k
// times, keeping the last), drives kThreads closed-loop workers against
// the public container API for --seconds, checks the outputs, and prints
// one line "RESULT {json}" with raw counts that run.py turns into
// metrics. A "BUILD {json}" line with the build stamp and the workload
// comes first, and "PHASE <name> <ops>" lines before each phase, so run.py
// can describe, stamp and count the operations of a process that crashes.
//
// Inputs come only from --seed (own generators; src/workload is not used,
// so a change there cannot change what the benchmark measures). With
// --trace 1 the workers also record in-memory spans around the
// benchmark's calls into the service (ShardedMap), ds (engine) and
// reclaim (Epoch::Guard) layers, read the step counters around every
// operation, and write the spans to --spans at the end.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ds/chromatic_llxscx.h"
#include "ds/container_api.h"
#include "ds/hashmap_llxscx.h"
#include "reclaim/epoch.h"
#include "reclaim/record_manager.h"
#include "service/sharded_map.h"
#include "util/stats.h"

namespace {

using namespace llxscx;

constexpr int kThreads = 3;
constexpr std::size_t kShards = 4;
constexpr std::uint64_t kScanSpan = 100;
constexpr std::size_t kScanLimit = 100;
constexpr std::size_t kBulkRun = 1024;       // keys per insert_all call
constexpr int kWindows = 20;  // the timed phase is split into this many windows
constexpr std::uint64_t kSampleEvery = 32;   // traced ops get spans 1 in N
constexpr std::size_t kMaxSampledOps = 10000;  // per thread
// Every writer stores this value (insert_all takes one value per run).
constexpr std::uint64_t kValue = 0x5bd1e9955bd1e995ull;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- input generation ----------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// xoshiro256**.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) w = splitmix64(seed);
  }
  std::uint64_t next() {
    const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

// Zipfian ranks 0..n-1 (rank 0 hottest), the constant-time generator of
// Gray et al., "Quickly generating billion-record synthetic databases".
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
    half_pow_ = 1.0 + std::pow(0.5, theta);
  }
  std::uint64_t operator()(Rng& r) const {
    const double u = r.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_) return 1;
    const auto k = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return k < n_ ? k : n_ - 1;
  }

 private:
  std::uint64_t n_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0, half_pow_ = 0;
};

enum Op : int { kRead, kInsert, kErase, kScan, kNumOps };
const char* const kOpName[kNumOps] = {"read", "insert", "erase", "scan"};

struct Workload {
  const char* name;
  bool sharded;      // ShardedMap<LlxScxChromatic> vs bare LlxScxHashMap
  unsigned key_bits;  // key space 2^key_bits, half of it live
  double theta;       // Zipf skew; 0 = uniform
  int mix[kNumOps];   // percent of operations
};

// The reasons for each workload are in perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"tree-zipf-point", true, 20, 0.99, {90, 5, 5, 0}},
    {"hash-churn", false, 20, 0.0, {10, 45, 45, 0}},
    {"tree-scan", true, 16, 0.0, {0, 2, 2, 96}},
};

// Per-thread op/key stream. Keys are ids + 1 in [1, 2^key_bits]; Zipf
// ranks are scattered over the id space by a seeded odd multiplier so
// hot keys do not cluster in one subtree or shard.
class Gen {
 public:
  Gen(const Workload& w, const Zipf* zipf, std::uint64_t seed, int tid)
      : w_(w), zipf_(zipf), rng_(seed * 0x100000001B3ull + 977 * tid + 1) {
    std::uint64_t s = seed;
    mult_ = splitmix64(s) | 1;
    add_ = splitmix64(s);
    mask_ = (std::uint64_t{1} << w.key_bits) - 1;
  }
  Op op() {
    int x = static_cast<int>(rng_.below(100));
    for (int o = 0; o < kNumOps; ++o) {
      if (x < w_.mix[o]) return static_cast<Op>(o);
      x -= w_.mix[o];
    }
    return kRead;
  }
  std::uint64_t key() {
    const std::uint64_t id = zipf_ != nullptr
                                 ? (((*zipf_)(rng_)*mult_ + add_) & mask_)
                                 : rng_.below(mask_ + 1);
    return id + 1;
  }

 private:
  const Workload& w_;
  const Zipf* zipf_;
  Rng rng_;
  std::uint64_t mult_ = 1, add_ = 0, mask_ = 0;
};

// Live key set: a seeded uniform half of the key space, returned in
// shuffled order (the hash fill inserts in this order; the trees sort it).
std::vector<std::uint64_t> live_keys(const Workload& w, std::uint64_t seed) {
  const std::uint64_t n = std::uint64_t{1} << w.key_bits;
  std::vector<std::uint64_t> ids(n);
  for (std::uint64_t i = 0; i < n; ++i) ids[i] = i + 1;
  Rng r(seed ^ 0xD1B54A32D192ED03ull);
  for (std::uint64_t i = n - 1; i > 0; --i) std::swap(ids[i], ids[r.below(i + 1)]);
  ids.resize(n / 2);
  return ids;
}

// --- latency histogram ------------------------------------------------------
//
// Exact 1 ns buckets below 256 ns, then 128 sub-buckets per octave
// (< 0.8% width). Percentiles interpolate inside the bucket, so a
// reported value is not snapped to a bucket edge.
class Hist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = 32 * kSub;

  Hist() : b_(kBuckets, 0) {}
  void add(std::uint64_t v) {
    ++b_[index(v)];
    ++n_;
  }
  void merge(const Hist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }
  double percentile(double q) const {
    if (n_ == 0) return 0;
    const double rank = q * static_cast<double>(n_);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (b_[i] == 0) continue;
      if (static_cast<double>(below + b_[i]) > rank) {
        std::uint64_t lo, width;
        bounds(i, lo, width);
        return static_cast<double>(lo) +
               static_cast<double>(width) * (rank - static_cast<double>(below)) /
                   static_cast<double>(b_[i]);
      }
      below += b_[i];
    }
    std::uint64_t lo, width;
    bounds(kBuckets - 1, lo, width);
    return static_cast<double>(lo + width);
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    const std::size_t i = static_cast<std::size_t>(shift + 1) * kSub +
                          static_cast<std::size_t>((v >> shift) - kSub);
    return std::min(i, kBuckets - 1);
  }
  static void bounds(std::size_t i, std::uint64_t& lo, std::uint64_t& width) {
    if (i < 2 * kSub) {
      lo = i;
      width = 1;
      return;
    }
    const std::size_t shift = i / kSub - 1;
    lo = ((i % kSub) + kSub) << shift;
    width = std::uint64_t{1} << shift;
  }
  std::vector<std::uint64_t> b_;
  std::uint64_t n_ = 0;
};

// --- tracing -----------------------------------------------------------------

enum SpanName : std::uint32_t {
  kSpanOpRead, kSpanOpInsert, kSpanOpErase, kSpanOpScan,  // indexed by Op
  kSpanGen, kSpanRoute, kSpanGuard,
  kSpanSvcRead, kSpanSvcInsert, kSpanSvcErase, kSpanSvcScan,  // by Op
  kSpanDsRead, kSpanDsInsert, kSpanDsErase, kSpanDsScan,      // by Op
  kNumSpanNames
};
const char* const kSpanNames[kNumSpanNames] = {
    "op.read",        "op.insert",      "op.erase",     "op.scan",
    "harness.gen",    "service.route",  "reclaim.guard",
    "service.read",   "service.insert", "service.erase", "service.scan",
    "ds.read",        "ds.insert",      "ds.erase",     "ds.scan"};

struct Span {
  std::uint64_t op_id;
  std::uint64_t start, end;
  std::uint32_t name;
  std::int32_t parent;  // index in the same thread's span vector, -1 = root
};

// A worker's results. Latency and op counts are kept per window of the
// timed phase (Control::window), so run.py can report medians over
// windows, which a burst of outside load moves less than a whole-run figure.
struct ThreadOut {
  Hist hist[kWindows][kNumOps];
  std::uint64_t ops[kWindows][kNumOps] = {};
  std::uint64_t ok[kNumOps] = {};
  std::uint64_t scan_keys = 0, scan_bad = 0;
  std::uint64_t sampled_scans = 0, sampled_scan_shards = 0;
  StepCounts steps[kNumOps] = {};
  std::uint64_t retires = 0;
  std::vector<Span> spans;
};

struct Control {
  std::atomic<int> ready{0};
  std::atomic<int> window{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
};

using Tree = ShardedMap<LlxScxChromatic>;
using Hash = LlxScxHashMap;

template <class Map>
constexpr bool kSharded = std::is_same_v<Map, Tree>;

// One operation through the container's public API; returns whether it
// had an effect (key found / inserted / erased; scans always true).
template <class Map>
bool exec(Map& m, Op op, std::uint64_t key, RangeOut& out) {
  switch (op) {
    case kRead:
      return m.contains(key);
    case kInsert:
      return m.insert(key, kValue);
    case kErase:
      return m.erase(key);
    default:
      out.clear();
      container_scan(m, key, kScanSpan, kScanLimit, out);
      return true;
  }
}

// A scan window is strictly ascending, inside [lo, lo + span), no longer
// than its limit, and every value is kValue.
bool scan_ok(const RangeOut& out, std::uint64_t lo) {
  if (out.size() > kScanLimit) return false;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto [k, v] = out[i];
    if (k < lo || k - lo >= kScanSpan) return false;
    if (i > 0 && out[i - 1].first >= k) return false;
    if (v != kValue) return false;
  }
  return true;
}

template <bool kTraced, class Map>
void traffic(Map& m, Gen& gen, ThreadOut& o, Control& ctl, int tid) {
  RangeOut out;
  out.reserve(4 * kScanLimit);
  if constexpr (kTraced) o.spans.reserve(kMaxSampledOps * 6);
  const std::uint64_t retires0 = EbrManager::stats().retires;
  ctl.ready.fetch_add(1);
  while (!ctl.go.load(std::memory_order_acquire)) {
  }
  for (std::uint64_t n = 0; !ctl.stop.load(std::memory_order_relaxed); ++n) {
    bool sample = false;
    std::uint64_t g0 = 0;
    if constexpr (kTraced) {
      sample = n % kSampleEvery == 0 &&
               o.spans.size() + 6 <= o.spans.capacity();
      if (sample) g0 = now_ns();
    }
    const Op op = gen.op();
    const std::uint64_t key = gen.key();
    const std::uint64_t op_id = (static_cast<std::uint64_t>(tid) << 48) | n;
    std::int32_t root = -1;
    if constexpr (kTraced) {
      if (sample) {
        const std::uint64_t g1 = now_ns();
        root = static_cast<std::int32_t>(o.spans.size());
        o.spans.push_back({op_id, g0, 0, static_cast<std::uint32_t>(op), -1});
        o.spans.push_back({op_id, g0, g1, kSpanGen, root});
        std::size_t shard = 0;
        if constexpr (kSharded<Map>) {
          const std::uint64_t r0 = now_ns();
          shard = m.shard_for(key);
          const std::uint64_t r1 = now_ns();
          o.spans.push_back({op_id, r0, r1, kSpanRoute, root});
        }
        // The outermost guard enter + exit the op is about to pay, in the
        // domain it will run in.
        std::uint64_t q0, q1;
        if constexpr (kSharded<Map>) {
          Epoch::DomainScope scope(m.shard_domain(shard));
          q0 = now_ns();
          { Epoch::Guard g; }
          q1 = now_ns();
        } else {
          q0 = now_ns();
          { Epoch::Guard g; }
          q1 = now_ns();
        }
        o.spans.push_back({op_id, q0, q1, kSpanGuard, root});
      }
    }
    StepCounts s0{};
    if constexpr (kTraced) s0 = Stats::my_snapshot();
    const std::uint64_t t0 = now_ns();
    const bool ok = exec(m, op, key, out);
    const std::uint64_t t1 = now_ns();
    if constexpr (kTraced) o.steps[op] += Stats::my_snapshot() - s0;
    const int win = std::min(ctl.window.load(std::memory_order_relaxed), kWindows - 1);
    o.hist[win][op].add(t1 - t0);
    ++o.ops[win][op];
    o.ok[op] += ok ? 1 : 0;
    if (op == kScan) {
      o.scan_keys += out.size();
      if (!scan_ok(out, key)) ++o.scan_bad;
    }
    if constexpr (kTraced) {
      if (sample) {
        const std::uint32_t layer =
            (kSharded<Map> ? kSpanSvcRead : kSpanDsRead) + static_cast<std::uint32_t>(op);
        o.spans.push_back({op_id, t0, t1, layer, root});
        o.spans[static_cast<std::size_t>(root)].end = now_ns();
        if constexpr (kSharded<Map>) {
          if (op == kScan) {
            bool hit[kShards] = {};
            for (const auto& kv : out) hit[m.shard_for(kv.first) % kShards] = true;
            ++o.sampled_scans;
            o.sampled_scan_shards +=
                static_cast<std::uint64_t>(std::count(hit, hit + kShards, true));
          }
        }
      }
    }
  }
  o.retires = EbrManager::stats().retires - retires0;
}

// --- setup -------------------------------------------------------------------

// Runs fn(lo, hi) on kThreads threads over contiguous thirds of [0, n).
template <class Fn>
void split_threads(std::size_t n, Fn fn) {
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    const std::size_t lo = n * t / kThreads, hi = n * (t + 1) / kThreads;
    ts.emplace_back([&fn, lo, hi] { fn(lo, hi); });
  }
  for (auto& th : ts) th.join();
}

// The trees bulk-load the sorted live keys with insert_all runs.
std::size_t build(std::unique_ptr<Tree>& m, const std::vector<std::uint64_t>& sorted) {
  m = std::make_unique<Tree>(kShards);
  std::atomic<std::size_t> loaded{0};
  split_threads(sorted.size(), [&](std::size_t lo, std::size_t hi) {
    std::size_t mine = 0;
    for (std::size_t i = lo; i < hi; i += kBulkRun) {
      const std::size_t n = std::min(kBulkRun, hi - i);
      mine += m->insert_all(sorted.data() + i, n, kValue);
    }
    loaded.fetch_add(mine);
  });
  return loaded.load();
}

// The hash map fills from empty with scalar inserts in random order.
std::size_t build(std::unique_ptr<Hash>& m, const std::vector<std::uint64_t>& shuffled) {
  m = std::make_unique<Hash>();
  std::atomic<std::size_t> loaded{0};
  split_threads(shuffled.size(), [&](std::size_t lo, std::size_t hi) {
    std::size_t mine = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      if (m->insert(shuffled[i], kValue)) ++mine;
    }
    loaded.fetch_add(mine);
  });
  return loaded.load();
}

std::uint64_t peak_rss_kb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
    }
  }
  std::fclose(f);
  return kb;
}

std::uint64_t malloc_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

std::uint64_t reclaim_outstanding(const Tree& m) { return m.reclaim_outstanding(); }
std::uint64_t reclaim_outstanding(const Hash&) { return Epoch::outstanding(); }
std::uint64_t reclaim_freed(const Tree& m) {
  std::uint64_t freed = 0;
  m.for_each_shard([&](std::size_t, const auto&, DomainReclaimStats st) {
    freed += st.freed;
  });
  return freed;
}
std::uint64_t reclaim_freed(const Hash&) { return Epoch::total_freed(); }
void drain(const Tree& m) { m.drain_all(); }
void drain(const Hash&) { Epoch::drain_all_for_testing(); }

// max / mean shard size; 1 for the unsharded map.
double shard_skew(const Tree& m) {
  std::vector<double> sizes;
  m.for_each_shard([&](std::size_t, const auto& e, DomainReclaimStats) {
    sizes.push_back(static_cast<double>(e.size()));
  });
  double sum = 0, mx = 0;
  for (double s : sizes) {
    sum += s;
    mx = std::max(mx, s);
  }
  return sum > 0 ? mx / (sum / static_cast<double>(sizes.size())) : 0;
}
double shard_skew(const Hash&) { return 1.0; }

// Cost of one now_ns() call, the floor under every timed span.
double clock_ns() {
  constexpr int kN = 200000;
  const std::uint64_t a = now_ns();
  for (int i = 0; i < kN; ++i) now_ns();
  const std::uint64_t b = now_ns();
  return static_cast<double>(b - a) / kN;
}

// Mean of the middle half of v: robust like a median, but not snapped to
// the whole nanoseconds every span duration is made of.
double iq_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

// --- JSON output ---------------------------------------------------------------

class Json {
 public:
  Json& key(const char* k) {
    sep();
    s_ += '"';
    s_ += k;
    s_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    s_ += buf;
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    s_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) s_ += c;
    }
    s_ += '"';
    return *this;
  }
  Json& open(char c) {
    sep();
    s_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    s_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return s_; }

 private:
  void sep() {
    if (!fresh_ && !s_.empty()) s_ += ',';
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

void steps_json(Json& j, const StepCounts& s) {
  j.open('{');
  j.key("llx").num(s.llx_calls).key("llx_fail").num(s.llx_fail);
  j.key("scx").num(s.scx_calls).key("scx_fail").num(s.scx_fail);
  j.key("helps").num(s.helps).key("cas").num(s.cas);
  j.key("reads").num(s.shared_reads).key("writes").num(s.shared_writes);
  j.key("allocs").num(s.allocations);
  j.close('}');
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setup_reps = 1;
  std::string spans_path;
};

template <class Map>
int run(const Workload& w, const Args& a) {
  {
    Json b;
    b.open('{').key("count_steps").num(LLXSCX_COUNT_STEPS);
    b.key("relaxed_orders").num(LLXSCX_RELAXED_ORDERS).key("compiler").str(kCompiler);
    b.key("engine").str(Map::kName).key("shards").num(kSharded<Map> ? kShards : 0);
    b.key("key_space").num(std::ldexp(1.0, static_cast<int>(w.key_bits)));
    b.key("live").num(std::ldexp(1.0, static_cast<int>(w.key_bits) - 1));
    b.key("zipf_theta").num(w.theta).key("threads").num(kThreads);
    b.key("mix_percent").open('{');
    for (int op = 0; op < kNumOps; ++op) b.key(kOpName[op]).num(w.mix[op]);
    b.close('}').key("setup").str(kSharded<Map> ? "insert_all of the sorted live keys"
                                                : "scalar inserts in random order, from empty");
    b.close('}');
    std::printf("BUILD %s\n", b.text().c_str());
  }
  const double clock = clock_ns();
  std::vector<std::uint64_t> keys = live_keys(w, a.seed);
  if constexpr (kSharded<Map>) std::sort(keys.begin(), keys.end());
  std::unique_ptr<Zipf> zipf;
  if (w.theta > 0) zipf = std::make_unique<Zipf>(std::uint64_t{1} << w.key_bits, w.theta);

  // Setup, timed setup_reps times; the last structure serves the traffic.
  std::vector<double> setup_s;
  std::unique_ptr<Map> m;
  std::size_t loaded = 0;
  for (int r = 0; r < a.setup_reps; ++r) {
    m.reset();
    std::printf("PHASE setup %zu\n", keys.size());
    std::fflush(stdout);
    const std::uint64_t t0 = now_ns();
    loaded = build(m, keys);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  drain(*m);
  const std::size_t initial = m->size();
  keys = {};

  // Traffic.
  std::printf("PHASE traffic 0\n");
  std::fflush(stdout);
  Control ctl;
  std::vector<std::unique_ptr<ThreadOut>> outs;
  std::vector<std::unique_ptr<Gen>> gens;
  for (int t = 0; t < kThreads; ++t) {
    outs.push_back(std::make_unique<ThreadOut>());
    gens.push_back(std::make_unique<Gen>(w, zipf.get(), a.seed, t));
  }
  const std::uint64_t freed0 = reclaim_freed(*m);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      if (a.trace) {
        traffic<true>(*m, *gens[t], *outs[t], ctl, t);
      } else {
        traffic<false>(*m, *gens[t], *outs[t], ctl, t);
      }
    });
  }
  while (ctl.ready.load() < kThreads) std::this_thread::yield();
  const std::uint64_t mem0 = malloc_in_use();
  std::uint64_t limbo_peak = 0;
  const std::uint64_t start = now_ns();
  ctl.go.store(true, std::memory_order_release);
  const auto budget = static_cast<std::uint64_t>(a.seconds * 1e9);
  std::vector<double> window_s;
  std::uint64_t window_start = start;
  for (int win = 0; win < kWindows; ++win) {
    const std::uint64_t end = start + budget * (win + 1) / kWindows;
    for (std::uint64_t t = now_ns(); t < end; t = now_ns()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(std::min<std::uint64_t>(end - t, 5000000)));
      limbo_peak = std::max(limbo_peak, reclaim_outstanding(*m));
    }
    const std::uint64_t t = now_ns();
    if (win + 1 < kWindows) ctl.window.store(win + 1, std::memory_order_relaxed);
    else ctl.stop.store(true);
    window_s.push_back(static_cast<double>(t - window_start) * 1e-9);
    window_start = t;
  }
  const std::uint64_t stop = window_start;
  for (auto& th : ts) th.join();
  const std::uint64_t freed = reclaim_freed(*m) - freed0;

  auto all = std::make_unique<ThreadOut>();
  std::uint64_t retires = 0;
  for (auto& o : outs) {
    for (int op = 0; op < kNumOps; ++op) {
      for (int win = 0; win < kWindows; ++win) {
        all->hist[win][op].merge(o->hist[win][op]);
        all->ops[win][op] += o->ops[win][op];
      }
      all->ok[op] += o->ok[op];
      all->steps[op] += o->steps[op];
    }
    all->scan_keys += o->scan_keys;
    all->scan_bad += o->scan_bad;
    all->sampled_scans += o->sampled_scans;
    all->sampled_scan_shards += o->sampled_scan_shards;
    retires += o->retires;
  }
  std::uint64_t ops[kNumOps] = {};
  for (int op = 0; op < kNumOps; ++op) {
    for (int win = 0; win < kWindows; ++win) ops[op] += all->ops[win][op];
  }

  // Output checks: final size, and nothing left in limbo after a drain.
  const std::size_t final_size = m->size();
  const std::int64_t expected = static_cast<std::int64_t>(initial) +
                                static_cast<std::int64_t>(all->ok[kInsert]) -
                                static_cast<std::int64_t>(all->ok[kErase]);
  drain(*m);
  const std::uint64_t outstanding = reclaim_outstanding(*m);
  const std::uint64_t mem1 = malloc_in_use();
  const double skew = shard_skew(*m);

  Json j;
  j.open('{');
  j.key("workload").str(w.name).key("seed").num(static_cast<double>(a.seed));
  j.key("trace").num(a.trace ? 1 : 0).key("threads").num(kThreads);
  j.key("setup_s").open('[');
  for (double s : setup_s) j.num(s);
  j.close(']');
  j.key("setup_keys").num(static_cast<double>(loaded));
  j.key("elapsed_s").num(static_cast<double>(stop - start) * 1e-9);
  j.key("ops").open('{');
  for (int op = 0; op < kNumOps; ++op) j.key(kOpName[op]).num(static_cast<double>(ops[op]));
  j.close('}').key("ok").open('{');
  for (int op = 0; op < kNumOps; ++op) j.key(kOpName[op]).num(static_cast<double>(all->ok[op]));
  j.close('}');
  // Per window: seconds, ops, and for read / update / scan the sample
  // count, p50 and p99.
  j.key("windows").open('{');
  j.key("seconds").open('[');
  for (double w : window_s) j.num(w);
  j.close(']').key("ops").open('[');
  for (int win = 0; win < kWindows; ++win) {
    std::uint64_t n = 0;
    for (int op = 0; op < kNumOps; ++op) n += all->ops[win][op];
    j.num(static_cast<double>(n));
  }
  j.close(']');
  const std::pair<const char*, std::vector<Op>> kinds[] = {
      {"read", {kRead}}, {"update", {kInsert, kErase}}, {"scan", {kScan}}};
  for (const auto& [name, kind_ops] : kinds) {
    std::vector<double> n, p50, p99;
    for (int win = 0; win < kWindows; ++win) {
      Hist h;
      for (Op op : kind_ops) h.merge(all->hist[win][op]);
      n.push_back(static_cast<double>(h.count()));
      p50.push_back(h.percentile(0.5));
      p99.push_back(h.percentile(0.99));
    }
    j.key(name).open('{');
    for (const auto& [k, v] : {std::pair{"n", &n}, {"p50", &p50}, {"p99", &p99}}) {
      j.key(k).open('[');
      for (double x : *v) j.num(x);
      j.close(']');
    }
    j.close('}');
  }
  j.close('}');
  j.key("scan_keys").num(static_cast<double>(all->scan_keys));
  j.key("scan_bad").num(static_cast<double>(all->scan_bad));
  j.key("initial_size").num(static_cast<double>(initial));
  j.key("final_size").num(static_cast<double>(final_size));
  j.key("expected_size").num(static_cast<double>(expected));
  j.key("outstanding_after_drain").num(static_cast<double>(outstanding));
  j.key("peak_rss_kb").num(static_cast<double>(peak_rss_kb()));
  j.key("malloc_delta_bytes").num(static_cast<double>(mem1) - static_cast<double>(mem0));
  j.key("limbo_peak").num(static_cast<double>(limbo_peak));
  j.key("retires").num(static_cast<double>(retires));
  j.key("frees").num(static_cast<double>(freed));
  j.key("shard_skew").num(skew);
  j.key("clock_ns").num(clock);
  if (a.trace) {
    j.key("steps").open('{');
    for (int op = 0; op < kNumOps; ++op) {
      j.key(kOpName[op]);
      steps_json(j, all->steps[op]);
    }
    j.close('}');
    // Span durations by name; on the sharded map the engine's share of
    // an op is its service span minus the route and guard spans.
    std::vector<double> dur[kNumSpanNames];
    std::vector<double> engine[kNumOps];
    std::size_t total = 0;
    for (const auto& o : outs) {
      total += o->spans.size();
      double route = 0, guard = 0;
      for (const Span& s : o->spans) {
        const double d = static_cast<double>(s.end - s.start);
        dur[s.name].push_back(d);
        if (s.name == kSpanRoute) route = d;
        if (s.name == kSpanGuard) guard = d;
        if (s.name >= kSpanSvcRead && s.name <= kSpanSvcScan) {
          engine[s.name - kSpanSvcRead].push_back(d - route - guard);
        }
        if (s.name >= kSpanDsRead && s.name <= kSpanDsScan) {
          engine[s.name - kSpanDsRead].push_back(d);
        }
      }
    }
    j.key("span_ns").open('{');
    for (std::uint32_t n = 0; n < kNumSpanNames; ++n) {
      if (!dur[n].empty()) j.key(kSpanNames[n]).num(iq_mean(dur[n]));
    }
    std::vector<double> svc_update = dur[kSpanSvcInsert];
    svc_update.insert(svc_update.end(), dur[kSpanSvcErase].begin(), dur[kSpanSvcErase].end());
    if (!svc_update.empty()) j.key("service.update").num(iq_mean(svc_update));
    j.close('}');
    j.key("engine_ns").open('{');
    for (int op = 0; op < kNumOps; ++op) {
      if (!engine[op].empty()) j.key(kOpName[op]).num(iq_mean(engine[op]));
    }
    j.close('}');
    j.key("sampled_scans").num(static_cast<double>(all->sampled_scans));
    j.key("sampled_scan_shards").num(static_cast<double>(all->sampled_scan_shards));
    j.key("spans").num(static_cast<double>(total));
    if (!a.spans_path.empty()) {
      FILE* f = std::fopen(a.spans_path.c_str(), "w");
      bool written = f != nullptr;
      if (written) {
        std::fprintf(f, "op_id,span_id,parent_id,name,start_ns,end_ns\n");
        for (std::size_t t = 0; t < outs.size(); ++t) {
          const auto& sp = outs[t]->spans;
          for (std::size_t i = 0; i < sp.size(); ++i) {
            const Span& s = sp[i];
            const long long parent =
                s.parent < 0 ? -1 : static_cast<long long>((t << 32) | static_cast<std::size_t>(s.parent));
            std::fprintf(f, "%llu,%llu,%lld,%s,%llu,%llu\n",
                         static_cast<unsigned long long>(s.op_id),
                         static_cast<unsigned long long>((t << 32) | i), parent,
                         kSpanNames[s.name], static_cast<unsigned long long>(s.start),
                         static_cast<unsigned long long>(s.end));
          }
        }
        written = std::fclose(f) == 0;
      }
      j.key("spans_file").str(written ? a.spans_path : "");
    }
  }
  j.close('}');
  std::printf("RESULT %s\n", j.text().c_str());
  std::fflush(stdout);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--setup-reps <k>] [--spans <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--setup-reps") a.setup_reps = std::atoi(v.c_str());
    else if (k == "--spans") a.spans_path = v;
    else return usage();
  }
  if (argc % 2 == 0 || a.seconds <= 0 || a.setup_reps < 1) return usage();
  for (const Workload& w : kWorkloads) {
    if (a.workload == w.name) return w.sharded ? run<Tree>(w, a) : run<Hash>(w, a);
  }
  return usage();
}
