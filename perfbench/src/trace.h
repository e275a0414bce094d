// Traced-run instrumentation of the covering layer, installed from outside
// the library through the public covering_index_factory hook
// (network_options::factory, the broker_daemon factory argument).
//
// traced_index decorates the production sfc_covering_index: it times every
// call into it and folds the covering_check_stats find_covering fills
// (dominance/sfcarray work) into a process-wide covering_trace. Beside it a
// shadow linear_covering_index over the same link set answers every check
// exactly, giving the detection rate. Shadow time is tracked separately so
// the benchmark can subtract it from operation wall time.
//
// Only the traced run (--trace 1) installs this; the end-to-end run uses
// the plain factory. covering_trace is trivially copyable so a forked
// daemon can keep it in memory shared with the benchmark process.
#pragma once

#include <cstdint>

#include "common.h"

namespace perfbench {

struct covering_trace {
  std::uint64_t checks = 0;
  std::uint64_t hits = 0;           // the SFC index found a coverer
  std::uint64_t shadow_hits = 0;    // the exact shadow found a coverer
  std::uint64_t check_ns = 0;
  std::uint64_t mutate_calls = 0;   // insert / insert_batch / erase / erase_batch / maintain
  std::uint64_t mutate_ns = 0;
  std::uint64_t shadow_ns = 0;      // tracing-only work (shadow index)
  std::uint64_t cubes = 0;
  std::uint64_t runs_in_plan = 0;
  std::uint64_t runs_probed = 0;
  std::uint64_t probes_restarted = 0;
  std::uint64_t probes_resumed = 0;
  std::uint64_t budget_exhausted = 0;
  latency_hist check_hist;

  // Time attributed to the covering layer so far (checks + mutations).
  [[nodiscard]] std::uint64_t covering_ns() const { return check_ns + mutate_ns; }
  // Folds another trace in (the per-daemon traces of tcp_cluster).
  void merge(const covering_trace& o);
};

subcover::covering_index_factory traced_factory(covering_trace& trace);

// The per-check covering, dominance and sfcarray metrics over every check
// `t` saw (the per-op ones depend on the workload's phases).
void add_per_check_metrics(run_result& r, const covering_trace& t);

}  // namespace perfbench
