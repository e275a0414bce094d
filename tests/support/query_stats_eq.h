// The one query_stats comparator of the equivalence tests: every field
// except elapsed_ns (a timer), or only the logical ones where two execution
// paths legitimately differ in probe, tier or maintenance work.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "dominance/query_stats.h"

namespace subcover {

enum class stats_fields {
  // The paper's cost model and the epsilon guarantee: equal across
  // backends, batched or single-range probing, tiering and key widths.
  logical,
  // logical plus the physical probe, tier and maintenance counters: equal
  // whenever the same backend configuration runs the same queries.
  all,
};

inline void expect_same_stats(const query_stats& a, const query_stats& b, const std::string& what,
                              stats_fields fields = stats_fields::all) {
  // Names every data member: a field added to query_stats stops this from
  // compiling until it is compared below.
  [[maybe_unused]] const auto& [cubes_enumerated, runs_in_plan, runs_probed, frontier_batches,
                                probes_restarted, probes_resumed, tier_cold_probes,
                                tier_summary_answers, tier_blocks_decoded, tier_cold_hits,
                                maint_tombstones_added, maint_tombstones_purged,
                                maint_compactions, truncation_m, volume_fraction_planned,
                                volume_fraction_searched, found, budget_exhausted, elapsed_ns] = a;
  EXPECT_EQ(a.cubes_enumerated, b.cubes_enumerated) << what;
  EXPECT_EQ(a.runs_in_plan, b.runs_in_plan) << what;
  EXPECT_EQ(a.runs_probed, b.runs_probed) << what;
  EXPECT_EQ(a.truncation_m, b.truncation_m) << what;
  EXPECT_EQ(a.volume_fraction_planned, b.volume_fraction_planned) << what;
  EXPECT_EQ(a.volume_fraction_searched, b.volume_fraction_searched) << what;
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << what;
  if (fields == stats_fields::logical) return;
  EXPECT_EQ(a.frontier_batches, b.frontier_batches) << what;
  EXPECT_EQ(a.probes_restarted, b.probes_restarted) << what;
  EXPECT_EQ(a.probes_resumed, b.probes_resumed) << what;
  EXPECT_EQ(a.tier_cold_probes, b.tier_cold_probes) << what;
  EXPECT_EQ(a.tier_summary_answers, b.tier_summary_answers) << what;
  EXPECT_EQ(a.tier_blocks_decoded, b.tier_blocks_decoded) << what;
  EXPECT_EQ(a.tier_cold_hits, b.tier_cold_hits) << what;
  EXPECT_EQ(a.maint_tombstones_added, b.maint_tombstones_added) << what;
  EXPECT_EQ(a.maint_tombstones_purged, b.maint_tombstones_purged) << what;
  EXPECT_EQ(a.maint_compactions, b.maint_compactions) << what;
}

}  // namespace subcover
