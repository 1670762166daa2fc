// Experiment E2 — multiset throughput across implementations (the
// PPoPP'14-style workload the paper's introduction motivates; claim C-F).
//
// Grid: key range × update ratio × thread count, for the four multiset
// implementations (LLX/SCX Fig. 6, MCAS-based, fine-grained locks, coarse
// lock). Each cell reports ops/second over a timed phase.
//
// Host caveat: on a host with fewer hardware threads than a row's thread
// count, that row measures robustness under preemption, not speedup.
#include <cstdio>
#include <string>

#include "baselines/locks.h"
#include "bench/bench_common.h"
#include "ds/multiset_llxscx.h"
#include "ds/multiset_mcas.h"
#include "util/random.h"

namespace llxscx {
namespace {

template <typename MultisetT>
double run_cell(int threads, unsigned update_pct, std::uint64_t key_range) {
  MultisetT ms;
  // Pre-fill to ~50% occupancy so reads hit existing keys.
  {
    Xoshiro256 rng(1);
    for (std::uint64_t i = 0; i < key_range / 2; ++i) {
      ms.insert(1 + rng.below(key_range), 1 + rng.below(3));
    }
  }
  const auto r = bench::run_phase(
      threads, [&](int t, const std::atomic<bool>& stop) -> std::uint64_t {
        Xoshiro256 rng(100 + t);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key = 1 + rng.below(key_range);
          const unsigned dice = static_cast<unsigned>(rng.below(100));
          if (dice < update_pct / 2) {
            ms.insert(key, 1 + rng.below(3));
          } else if (dice < update_pct) {
            ms.erase(key, 1 + rng.below(3));
          } else {
            ms.get(key);
          }
          ++ops;
        }
        return ops;
      });
  return r.ops_per_sec();
}

void run() {
  std::printf("E2: multiset throughput (ops/s), %d ms per cell\n",
              bench::phase_millis());
  std::printf("shape claim: LLX/SCX ~ fine-locks at low contention, beats "
              "MCAS-based always, beats coarse when concurrency matters\n\n");

  const std::vector<int> thread_counts = bench::thread_grid({1, 2, 4});
  const unsigned update_pcts[] = {10, 50, 100};
  const std::uint64_t key_ranges[] = {100, 10000};

  for (std::uint64_t range : key_ranges) {
    std::printf("key range = %llu\n", static_cast<unsigned long long>(range));
    bench::Table t({"threads", "upd%", "llxscx", "mcas", "fine-lock", "coarse"});
    for (int threads : thread_counts) {
      for (unsigned upd : update_pcts) {
        t.add_row({std::to_string(threads), std::to_string(upd),
                   bench::fmt(run_cell<LlxScxMultiset>(threads, upd, range) / 1e6, 3) + "M",
                   bench::fmt(run_cell<McasMultiset>(threads, upd, range) / 1e6, 3) + "M",
                   bench::fmt(run_cell<FineListMultiset>(threads, upd, range) / 1e6, 3) + "M",
                   bench::fmt(run_cell<CoarseMultiset>(threads, upd, range) / 1e6, 3) + "M"});
      }
    }
    t.print();
    std::printf("\n");
  }
  Epoch::drain_all_for_testing();
}

}  // namespace
}  // namespace llxscx

int main() {
  llxscx::run();
  return 0;
}
