// Single-thread (plus helping-correctness) unit tests pinning down the
// LLX/SCX invariants listed in DESIGN.md §7: snapshot semantics, commit,
// FINALIZED, conflict failure, VLX, the paper's uncontended step counts
// (claim C-A), and V-sets wider than the descriptor's inline room.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "llxscx/llx_scx.h"
#include "util/random.h"
#include "util/stats.h"

namespace llxscx {
namespace {

struct Rec : DataRecord<2> {
  Rec(std::uint64_t a, std::uint64_t b) {
    mut(0).store(a, std::memory_order_relaxed);
    mut(1).store(b, std::memory_order_relaxed);
  }
};

TEST(LlxScx, LlxOnUnfrozenRecordReturnsFields) {
  Epoch::Guard g;
  Rec r(7, 9);
  auto l = llx(&r);
  ASSERT_TRUE(l.ok());
  EXPECT_FALSE(l.failed());
  EXPECT_FALSE(l.is_finalized());
  EXPECT_EQ(l.field(0), 7u);
  EXPECT_EQ(l.field(1), 9u);
}

TEST(LlxScx, ScxCommitsSingleRecordFieldUpdate) {
  Epoch::Guard g;
  Rec r(7, 9);
  auto l = llx(&r);
  ASSERT_TRUE(l.ok());
  const LinkedLlx v[1] = {l.link()};
  EXPECT_TRUE(scx(v, 1, 0, &r.mut(0), 7, 42));
  EXPECT_EQ(r.mut(0).load(), 42u);
  EXPECT_EQ(r.mut(1).load(), 9u);

  // The record is unfrozen again: a fresh LLX/SCX pair succeeds.
  auto l2 = llx(&r);
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(l2.field(0), 42u);
  const LinkedLlx v2[1] = {l2.link()};
  EXPECT_TRUE(scx(v2, 1, 0, &r.mut(1), 9, 10));
  EXPECT_EQ(r.mut(1).load(), 10u);
}

TEST(LlxScx, LlxAfterFinalizeReturnsFinalized) {
  Epoch::Guard g;
  auto* r = new Rec(1, 2);
  auto l = llx(r);
  ASSERT_TRUE(l.ok());
  const LinkedLlx v[1] = {l.link()};
  ASSERT_TRUE(scx(v, 1, /*finalize r=*/0b1, &r->mut(0), 1, 1));

  auto l2 = llx(r);
  EXPECT_FALSE(l2.ok());
  EXPECT_TRUE(l2.is_finalized());
  EXPECT_FALSE(l2.failed());
  retire_record(r);
}

TEST(LlxScx, ScxWithStaleLlxSnapshotFails) {
  Epoch::Guard g;
  Rec r(1, 2);
  auto stale = llx(&r);
  ASSERT_TRUE(stale.ok());

  // An intervening committed SCX invalidates the stale link.
  auto fresh = llx(&r);
  ASSERT_TRUE(fresh.ok());
  const LinkedLlx vf[1] = {fresh.link()};
  ASSERT_TRUE(scx(vf, 1, 0, &r.mut(0), 1, 5));

  const LinkedLlx vs[1] = {stale.link()};
  EXPECT_FALSE(scx(vs, 1, 0, &r.mut(0), 1, 9));
  EXPECT_EQ(r.mut(0).load(), 5u) << "a failed SCX must not write fld";
}

TEST(LlxScx, MultiRecordScxFailsIfAnyRecordChanged) {
  Epoch::Guard g;
  Rec a(1, 0), b(2, 0);
  auto la = llx(&a);
  auto lb = llx(&b);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());

  // Change b behind the snapshot's back.
  auto lb2 = llx(&b);
  const LinkedLlx vb[1] = {lb2.link()};
  ASSERT_TRUE(scx(vb, 1, 0, &b.mut(0), 2, 3));

  const LinkedLlx v[2] = {la.link(), lb.link()};
  EXPECT_FALSE(scx(v, 2, 0, &a.mut(0), 1, 7));
  EXPECT_EQ(a.mut(0).load(), 1u);
}

TEST(LlxScx, VlxValidatesUnchangedRecordsAndDetectsChanges) {
  Epoch::Guard g;
  Rec a(1, 0), b(2, 0);
  auto la = llx(&a);
  auto lb = llx(&b);
  const LinkedLlx v[2] = {la.link(), lb.link()};
  EXPECT_TRUE(vlx(v, 2));

  auto lb2 = llx(&b);
  const LinkedLlx vb[1] = {lb2.link()};
  ASSERT_TRUE(scx(vb, 1, 0, &b.mut(0), 2, 3));
  EXPECT_FALSE(vlx(v, 2));
}

// Claim C-A (§1): an uncontended SCX over k records finalizing f of them
// performs exactly k+1 CAS and f+2 shared writes.
TEST(LlxScx, UncontendedScxStepCountsMatchClaimCA) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  Epoch::Guard g;
  constexpr int k = 3;
  constexpr int f = 2;
  Rec* recs[k];
  LinkedLlx v[k];
  for (int i = 0; i < k; ++i) {
    recs[i] = new Rec(1, 1);
    auto l = llx(recs[i]);
    ASSERT_TRUE(l.ok());
    v[i] = l.link();
  }
  const std::uint32_t mask = 0b110;  // finalize the last f records
  const StepCounts before = Stats::my_snapshot();
  ASSERT_TRUE(scx(v, k, mask, &recs[0]->mut(0), 1, 2));
  const StepCounts d = Stats::my_snapshot() - before;
  EXPECT_EQ(d.cas, static_cast<std::uint64_t>(k + 1));
  EXPECT_EQ(d.shared_writes, static_cast<std::uint64_t>(f + 2));
  for (auto* r : recs) retire_record(r);
}

// Two threads hammering increments on the same record through LLX/SCX:
// the final value must equal the number of successful SCXs (no lost or
// duplicated updates even with helping in play).
TEST(LlxScx, ConcurrentIncrementsAreExact) {
  Rec r(0, 0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<std::uint64_t> successes{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      std::uint64_t mine = 0;
      for (int i = 0; i < kPerThread; ++i) {
        Epoch::Guard g;
        auto l = llx(&r);
        if (!l.ok()) continue;
        const LinkedLlx v[1] = {l.link()};
        if (scx(v, 1, 0, &r.mut(0), l.field(0), l.field(0) + 1)) ++mine;
      }
      successes.fetch_add(mine);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(r.mut(0).load(), successes.load());
  EXPECT_GT(successes.load(), 0u);
}

// A V-set wider than ScxRecord::kInlineV spills to a side array; the
// spilled SCX must keep the C-A shape (k+1 CAS, f+2 writes) and finalize
// a record stored past the inline room.
TEST(LlxScx, ScxOverSpilledVSetCommitsAndFinalizes) {
  constexpr std::size_t k = ScxRecord::kInlineV + 2;
  static_assert(k <= ScxRecord::kMaxV);
  Epoch::Guard g;
  Rec* recs[k];
  LinkedLlx v[k];
  for (std::size_t i = 0; i < k; ++i) {
    recs[i] = new Rec(i, 0);
    auto l = llx(recs[i]);
    ASSERT_TRUE(l.ok());
    v[i] = l.link();
  }
  const std::uint64_t mask = std::uint64_t{1} << (k - 1);
  const StepCounts before = Stats::my_snapshot();
  ASSERT_TRUE(scx(v, k, mask, &recs[0]->mut(1), 0, 99));
  const StepCounts d = Stats::my_snapshot() - before;
  if (kStepCounting) {
    EXPECT_EQ(d.cas, k + 1);
    EXPECT_EQ(d.shared_writes, 3u);
  }
  EXPECT_EQ(recs[0]->mut(1).load(), 99u);
  EXPECT_TRUE(llx(recs[k - 1]).is_finalized());
  for (std::size_t i = 0; i + 1 < k; ++i) {
    auto l = llx(recs[i]);
    ASSERT_TRUE(l.ok()) << "record " << i << " must be unfrozen again";
    EXPECT_EQ(l.field(0), i);
  }
  for (auto* r : recs) retire_record(r);
}

// Four threads run SCXs over prefixes of one array of records, half of
// them wider than the inline room, so helpers constantly run the freezing
// loop over spilled V arrays whose creators may already have released
// their expected descriptors (the use-after-free the sanitizer jobs are
// there to catch). fld is a counter in a random record of V, so the
// counters must sum to the number of committed SCXs.
TEST(LlxScx, ConcurrentSpilledScxsAreExact) {
  constexpr std::size_t kRecs = 2 * ScxRecord::kInlineV;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<Rec*> recs;
  for (std::size_t i = 0; i < kRecs; ++i) recs.push_back(new Rec(0, 0));
  std::atomic<std::uint64_t> successes{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(31 + t);
      std::uint64_t mine = 0;
      LinkedLlx v[kRecs];
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t k = 1 + rng.below(kRecs);
        const std::size_t target = rng.below(k);
        Epoch::Guard g;
        std::uint64_t old = 0;
        bool linked = true;
        for (std::size_t j = 0; j < k && linked; ++j) {
          auto l = llx(recs[j]);
          linked = l.ok();
          v[j] = l.link();
          if (j == target) old = l.field(0);
        }
        if (linked && scx(v, k, 0, &recs[target]->mut(0), old, old + 1)) {
          ++mine;
        }
      }
      successes.fetch_add(mine);
    });
  }
  for (auto& th : pool) th.join();
  std::uint64_t sum = 0;
  for (Rec* r : recs) sum += r->mut(0).load();
  EXPECT_EQ(sum, successes.load());
  EXPECT_GT(successes.load(), 0u);
  for (Rec* r : recs) delete r;
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

}  // namespace
}  // namespace llxscx
