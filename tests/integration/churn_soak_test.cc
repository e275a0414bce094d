// Differential churn soak: one seeded churn stream (mixed subscribe /
// unsubscribe / probe traffic with flash crowds) drives four covering
// backends — resident sorted vector, resident skip list, the hot/cold
// tiered configuration, and a never-compact deferred-tombstone
// configuration — plus a naive std::map oracle. After every operation the
// backends must agree byte-for-byte on covering answers and logical query
// stats, and after every maintenance epoch (maintain() on all backends,
// then a probe sweep) the agreement must still hold: maintenance is
// physical, never observable. Runs across all three curves at all three
// key widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "covering/sfc_covering_index.h"
#include "support/query_stats_eq.h"
#include "workload/churn_gen.h"

namespace subcover {
namespace {

// The logical half of query_stats — the paper's cost model and the eps
// guarantee. Physical counters (frontier_*, probes_*, tier_*, maint_*) are
// execution details of the individual backend and excluded.
void expect_logical_stats_equal(const covering_check_stats& got,
                                const covering_check_stats& want) {
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.candidates_checked, want.candidates_checked);
  expect_same_stats(got.dominance, want.dominance, "covering check", stats_fields::logical);
}

void run_soak(curve_kind curve, const schema& s, int n_ops, std::uint64_t seed) {
  // Four covering configurations over identical logical content. [0] is the
  // comparison baseline.
  auto base = [&] {
    sfc_covering_options o;
    o.curve = curve;
    return o;
  };
  std::vector<std::unique_ptr<sfc_covering_index>> idxs;
  {
    sfc_covering_options o = base();
    o.array = sfc_array_kind::sorted_vector;
    idxs.push_back(std::make_unique<sfc_covering_index>(s, o));
    o = base();
    o.array = sfc_array_kind::skiplist;
    idxs.push_back(std::make_unique<sfc_covering_index>(s, o));
    o = base();
    o.tier_hot_capacity = 32;  // small: churn constantly crosses tiers
    o.tier_block_entries = 8;
    idxs.push_back(std::make_unique<sfc_covering_index>(s, o));
    o = base();
    o.array = sfc_array_kind::sorted_vector;
    o.compact_live_fraction = 0.0;  // tombstones only reclaimed by maintain()
    idxs.push_back(std::make_unique<sfc_covering_index>(s, o));
  }
  std::map<sub_id, subscription> oracle;

  workload::churn_gen_options co;
  co.subscriptions.kind = workload::workload_kind::clustered;  // covering-rich
  co.subscriptions.wildcard_prob = 0.0;
  co.flash_prob = 0.01;
  co.flash_len = 16;
  co.warmup_subscriptions = 64;
  co.publish_weight = 0.1;  // publish ops double as mid-epoch probe checks
  workload::churn_gen stream(s, co, seed);

  workload::subscription_gen_options po;
  po.kind = workload::workload_kind::clustered;
  po.wildcard_prob = 0.0;
  workload::subscription_gen probe_gen(s, po, seed ^ 0x5bd1e995U);
  // A test-owned side population for the batch-withdrawal path: its ids use
  // the high bit, which the stream (ids counted up from 0) never reaches,
  // so batch erases never race the stream's own live-set bookkeeping.
  workload::subscription_gen side_gen(s, co.subscriptions, seed ^ 0x27d4eb2fU);
  std::vector<sub_id> side_cohort;
  sub_id next_side_id = sub_id{1} << 63;

  const auto check_round = [&](int probes) {
    for (int p = 0; p < probes; ++p) {
      const subscription probe = probe_gen.next();
      for (const double eps : {0.0, 0.1}) {
        covering_check_stats want;
        const std::optional<sub_id> baseline = idxs[0]->find_covering(probe, eps, &want);
        for (std::size_t i = 1; i < idxs.size(); ++i) {
          covering_check_stats got;
          const std::optional<sub_id> hit = idxs[i]->find_covering(probe, eps, &got);
          ASSERT_EQ(hit.has_value(), baseline.has_value()) << "backend " << i;
          if (hit.has_value()) {
            EXPECT_EQ(*hit, *baseline) << "backend " << i;
          }
          expect_logical_stats_equal(got, want);
        }
        // One-sided safety: a returned id really covers the probe.
        if (baseline.has_value()) {
          EXPECT_TRUE(oracle.at(*baseline).covers(probe));
        } else if (eps == 0.0 && !want.dominance.budget_exhausted) {
          // Exact search with an unexhausted budget never misses.
          const bool truth = std::any_of(oracle.begin(), oracle.end(), [&](const auto& kv) {
            return kv.second.covers(probe);
          });
          EXPECT_FALSE(truth) << "exact search missed a covering subscription";
        }
      }
    }
  };

  int epoch_ops = 0;
  for (int op = 0; op < n_ops; ++op) {
    const workload::churn_op c = stream.next();
    switch (c.kind) {
      case workload::churn_op::op_kind::subscribe:
        for (auto& idx : idxs) idx->insert(c.id, c.sub);
        oracle.emplace(c.id, c.sub);
        break;
      case workload::churn_op::op_kind::unsubscribe:
        for (auto& idx : idxs) EXPECT_TRUE(idx->erase(c.id));
        ASSERT_EQ(oracle.erase(c.id), 1U);
        break;
      case workload::churn_op::op_kind::publish:
        check_round(1);
        break;
    }
    if (++epoch_ops == 128) {
      epoch_ops = 0;
      // Bulk withdrawal through the batch path: retire the previous side
      // cohort (with a duplicate and an unknown id in the batch — both
      // skipped, identically, everywhere), then register a fresh cohort.
      if (!side_cohort.empty()) {
        std::vector<sub_id> batch = side_cohort;
        batch.push_back(side_cohort.front());     // duplicate listing
        batch.push_back(~std::uint64_t{0} - op);  // unknown id
        for (auto& idx : idxs) EXPECT_EQ(idx->erase_batch(batch), side_cohort.size());
        for (const sub_id id : side_cohort) oracle.erase(id);
        side_cohort.clear();
      }
      for (int k = 0; k < 8; ++k) {
        const sub_id id = next_side_id++;
        const subscription sub = side_gen.next();
        for (auto& idx : idxs) idx->insert(id, sub);
        oracle.emplace(id, sub);
        side_cohort.push_back(id);
      }
      // The maintenance epoch: physical-only, then prove it with a sweep.
      for (auto& idx : idxs) idx->maintain();
      check_round(4);
      for (const auto& idx : idxs) ASSERT_EQ(idx->size(), oracle.size());
    }
  }
  for (auto& idx : idxs) idx->maintain();
  check_round(8);
  for (const auto& idx : idxs) ASSERT_EQ(idx->size(), oracle.size());

  // The stream must actually have exercised the deferred machinery: the
  // never-compact backend carries a tombstone ledger with no compactions
  // (only its array's maintain() path could purge, and its threshold is 0).
  const maintenance_counters deferred = idxs[3]->index().maintenance();
  EXPECT_GT(deferred.tombstones_added, 0U);
  EXPECT_EQ(deferred.compactions, 0U);
  // And on the longer streams, enough tombstones accumulate that the
  // default-threshold sorted vector must have compacted under the same
  // churn (short streams may legitimately stay above the live threshold).
  if (n_ops >= 300) {
    EXPECT_GT(idxs[0]->index().maintenance().compactions, 0U);
  }
}

TEST(ChurnSoak, AllCurvesU64) {
  for (const curve_kind kind :
       {curve_kind::z_order, curve_kind::gray_code, curve_kind::hilbert}) {
    run_soak(kind, workload::make_uniform_schema(2, 12), /*n_ops=*/700,
             /*seed=*/60 + static_cast<std::uint64_t>(kind));
  }
}

TEST(ChurnSoak, AllCurvesU128) {
  for (const curve_kind kind :
       {curve_kind::z_order, curve_kind::gray_code, curve_kind::hilbert}) {
    run_soak(kind, workload::make_uniform_schema(3, 16), /*n_ops=*/350,
             /*seed=*/70 + static_cast<std::uint64_t>(kind));
  }
}

TEST(ChurnSoak, AllCurvesU512) {
  for (const curve_kind kind :
       {curve_kind::z_order, curve_kind::gray_code, curve_kind::hilbert}) {
    run_soak(kind, workload::make_uniform_schema(8, 16), /*n_ops=*/160,
             /*seed=*/80 + static_cast<std::uint64_t>(kind));
  }
}

}  // namespace
}  // namespace subcover
