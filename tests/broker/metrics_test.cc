// network_metrics is driven by one field table (kMetricsFields): the sum,
// the cross-engine comparison and the text form all walk it.
#include "broker/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

namespace subcover {
namespace {

// Field i holds i + 1: every counter distinct.
network_metrics numbered_metrics() {
  network_metrics m;
  std::uint64_t v = 0;
  for (const metrics_field& f : kMetricsFields) m.*f.member = ++v;
  return m;
}

TEST(Metrics, FieldTableNamesEveryCounterOnce) {
  std::set<std::string> names;
  for (const metrics_field& f : kMetricsFields) EXPECT_TRUE(names.insert(f.name).second) << f.name;
  // Distinct values in every slot prove distinct member pointers.
  const network_metrics m = numbered_metrics();
  std::set<std::uint64_t> values;
  for (const metrics_field& f : kMetricsFields) values.insert(m.*f.member);
  EXPECT_EQ(values.size(), std::size(kMetricsFields));
}

TEST(Metrics, SameCountersComparesExactlyTheLogicalFields) {
  const network_metrics base = numbered_metrics();
  for (const metrics_field& f : kMetricsFields) {
    network_metrics other = base;
    other.*f.member += 1000;
    EXPECT_EQ(same_counters(base, other), f.kind == counter_kind::physical) << f.name;
  }
  // Spot checks by name, independent of the table.
  network_metrics timer_only = base;
  timer_only.covering_check_ns += 1;
  timer_only.wal_bytes += 1;
  timer_only.bytes_on_wire += 1;
  EXPECT_TRUE(same_counters(base, timer_only));
  network_metrics traffic = base;
  traffic.subscription_messages += 1;
  EXPECT_FALSE(same_counters(base, traffic));
  network_metrics probes = base;
  probes.covering_tier_cold_hits += 1;
  EXPECT_FALSE(same_counters(base, probes));
}

TEST(Metrics, SumIsFieldWise) {
  network_metrics total = numbered_metrics();
  total += numbered_metrics();
  std::uint64_t v = 0;
  for (const metrics_field& f : kMetricsFields) EXPECT_EQ(total.*f.member, 2 * ++v) << f.name;
}

TEST(Metrics, ToStringListsEveryCounterInWireOrder) {
  network_metrics m;
  m.subscription_messages = 1;
  m.covering_check_ns = 2;
  m.partial_writes = 3;
  EXPECT_EQ(m.to_string(),
            "metrics{sub_msgs=1, unsub_msgs=0, reforwards=0, event_msgs=0, deliveries=0, "
            "cov_checks=0, cov_hits=0, cov_ns=2, cov_runs_probed=0, cov_restarted=0, "
            "cov_resumed=0, cov_tier_cold=0, cov_tier_summary=0, cov_tier_decoded=0, "
            "cov_tier_hits=0, cov_maint_tombs=0, cov_maint_purged=0, cov_maint_compact=0, "
            "retries=0, dups_suppressed=0, recoveries=0, wal_bytes=0, reconnects=0, "
            "hb_missed=0, wire_bytes=0, partial_writes=3}");
}

}  // namespace
}  // namespace subcover
