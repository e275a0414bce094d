// Network-wide counters: the quantities the paper's motivation is about
// (subscription traffic and routing-table size) plus event traffic and
// covering-check cost.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>

namespace subcover {

// Whether a counter takes part in cross-engine equivalence (same_counters).
// logical: a deterministic function of the workload, equal across the
// deterministic, parallel, fault-injection and TCP engines. physical: a
// timer reading or a description of the transport, the fault schedule or
// the maintenance policy, which may differ between engines.
enum class counter_kind { logical, physical };

struct network_metrics {
  // Broker-to-broker subscription forwards (what covering suppresses).
  std::uint64_t subscription_messages = 0;
  std::uint64_t unsubscription_messages = 0;
  // Subscriptions re-forwarded after an uncovering unsubscription.
  std::uint64_t reforwards = 0;
  // Broker-to-broker event forwards.
  std::uint64_t event_messages = 0;
  // Events handed to local subscribers.
  std::uint64_t deliveries = 0;
  // Covering-detection calls and outcomes during propagation.
  std::uint64_t covering_checks = 0;
  std::uint64_t covering_hits = 0;
  std::uint64_t covering_check_ns = 0;
  // Aggregated SFC-array probe work behind those checks (query_stats):
  // logical runs probed (the paper's cost measure), and how they were
  // physically executed — fresh descents vs probes resumed inside a batched
  // frontier sweep. Zero for non-SFC covering indexes.
  std::uint64_t covering_runs_probed = 0;
  std::uint64_t covering_probes_restarted = 0;
  std::uint64_t covering_probes_resumed = 0;
  // Cold-tier probe work behind those checks (query_stats tier_* fields;
  // zero unless the covering indexes enable hot/cold tiering).
  std::uint64_t covering_tier_cold_probes = 0;
  std::uint64_t covering_tier_summary_answers = 0;
  std::uint64_t covering_tier_blocks_decoded = 0;
  std::uint64_t covering_tier_cold_hits = 0;
  // Deferred-erase maintenance work behind the covering indexes
  // (query_stats maint_* fields; zero for in-place-erase backends or with
  // eager compaction). They move with the compaction policy and with
  // crash-recovery index rebuilds.
  std::uint64_t covering_maint_tombstones = 0;
  std::uint64_t covering_maint_purged = 0;
  std::uint64_t covering_maint_compactions = 0;
  // Fault-injection engine accounting (zero outside faults mode):
  // retransmissions, suppressed duplicates, broker crash-recoveries,
  // durable bytes written. They describe the fault schedule itself.
  std::uint64_t retries = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t wal_bytes = 0;
  // TCP transport accounting (zero outside the socket daemon; broker/
  // transport.h): what the OS and the network did to the byte stream.
  std::uint64_t reconnects = 0;
  std::uint64_t heartbeats_missed = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t partial_writes = 0;

  void reset_traffic() {
    event_messages = 0;
    deliveries = 0;
  }

  // Field-wise sum: how the parallel network folds its per-broker
  // accumulators into the network-wide totals. Because every increment of a
  // run lands in exactly one accumulator and addition commutes, the folded
  // totals are independent of worker count and scheduling.
  network_metrics& operator+=(const network_metrics& o);

  [[nodiscard]] std::string to_string() const;
};

struct metrics_field {
  const char* name;  // to_string label
  std::uint64_t network_metrics::*member;
  counter_kind kind;
};

// Every counter, once. Declaration order is the wire order (broker/wire.cc
// sends the counted list in this order) and the to_string order.
// covering_check_ns is physical because it is a wall-clock timer. The probe
// and tier counters are execution details, but deterministic for a given
// index configuration, so the engines must agree on them too.
inline constexpr metrics_field kMetricsFields[] = {
    {"sub_msgs", &network_metrics::subscription_messages, counter_kind::logical},
    {"unsub_msgs", &network_metrics::unsubscription_messages, counter_kind::logical},
    {"reforwards", &network_metrics::reforwards, counter_kind::logical},
    {"event_msgs", &network_metrics::event_messages, counter_kind::logical},
    {"deliveries", &network_metrics::deliveries, counter_kind::logical},
    {"cov_checks", &network_metrics::covering_checks, counter_kind::logical},
    {"cov_hits", &network_metrics::covering_hits, counter_kind::logical},
    {"cov_ns", &network_metrics::covering_check_ns, counter_kind::physical},
    {"cov_runs_probed", &network_metrics::covering_runs_probed, counter_kind::logical},
    {"cov_restarted", &network_metrics::covering_probes_restarted, counter_kind::logical},
    {"cov_resumed", &network_metrics::covering_probes_resumed, counter_kind::logical},
    {"cov_tier_cold", &network_metrics::covering_tier_cold_probes, counter_kind::logical},
    {"cov_tier_summary", &network_metrics::covering_tier_summary_answers, counter_kind::logical},
    {"cov_tier_decoded", &network_metrics::covering_tier_blocks_decoded, counter_kind::logical},
    {"cov_tier_hits", &network_metrics::covering_tier_cold_hits, counter_kind::logical},
    {"cov_maint_tombs", &network_metrics::covering_maint_tombstones, counter_kind::physical},
    {"cov_maint_purged", &network_metrics::covering_maint_purged, counter_kind::physical},
    {"cov_maint_compact", &network_metrics::covering_maint_compactions, counter_kind::physical},
    {"retries", &network_metrics::retries, counter_kind::physical},
    {"dups_suppressed", &network_metrics::duplicates_suppressed, counter_kind::physical},
    {"recoveries", &network_metrics::recoveries, counter_kind::physical},
    {"wal_bytes", &network_metrics::wal_bytes, counter_kind::physical},
    {"reconnects", &network_metrics::reconnects, counter_kind::physical},
    {"hb_missed", &network_metrics::heartbeats_missed, counter_kind::physical},
    {"wire_bytes", &network_metrics::bytes_on_wire, counter_kind::physical},
    {"partial_writes", &network_metrics::partial_writes, counter_kind::physical},
};
static_assert(std::size(kMetricsFields) * sizeof(std::uint64_t) == sizeof(network_metrics),
              "every network_metrics counter needs a kMetricsFields entry");

// True when every logical counter matches. This is the comparison the
// deterministic-vs-parallel, deterministic-vs-faults and TCP-cluster
// equivalence tests pin.
[[nodiscard]] bool same_counters(const network_metrics& a, const network_metrics& b);

}  // namespace subcover
