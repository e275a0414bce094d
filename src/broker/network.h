// In-process simulation of a broker tree running covering-optimized
// subscription propagation and reverse-path event routing, with three
// execution engines (a fourth — the standalone broker_daemon in
// broker/transport.h, one OS process per broker over TCP — runs the same
// replication core, broker/replica.h, as the faults mode below):
//
//   * Deterministic mode (workers == 0, the default): messages between
//     brokers are processed from a single FIFO queue until quiescence on the
//     calling thread — byte-identical to the original sequential simulation
//     (same message order, same delivery order, same metrics).
//
//   * Parallel mode (workers >= 1): an async message loop over a fixed
//     worker_pool. Every broker owns an MPSC inbox; a broker with pending
//     messages is scheduled onto a worker, drains its inbox in FIFO order,
//     and re-enqueues the resulting forwards/deliveries onto its neighbors'
//     inboxes. Within one broker, the per-outgoing-link covering shards fan
//     out across the pool (broker::handle_*_parallel). Each subscribe /
//     unsubscribe / publish call still runs to quiescence before returning.
//
//   * Faults mode (options.faults set; requires workers == 0): one
//     replica per broker (broker/replica.h: WAL-append before ack, dedup,
//     cascading acks, re-emission after a crash — the daemon's protocol)
//     over a seeded deterministic fault fabric that drops, duplicates,
//     delays and reorders frames and SIGKILLs brokers, which restart from
//     their WALs. Every operation converges to exactly the
//     deterministic-mode final state (broker/fault_engine.h).
//
// Parallel mode may reorder message processing across brokers, but on the
// acyclic overlay every broker receives all of an operation's messages from
// its unique neighbor toward the origin, in that neighbor's emission order —
// so each broker consumes an identical message sequence under any schedule,
// and the final routing tables, forwarded sets, delivered ids, and every
// metric total are identical to deterministic mode for every worker count
// (pinned by tests/broker/network_test.cc). Only wall-clock interleaving
// and the covering_check_ns sum (a timer, not a counter) vary.
//
// The equivalence contract includes operations whose broker handlers throw:
// every engine catches at its message-processing boundary (the sequential
// FIFO pop, the parallel inbox drain), skips only the failing message's
// forwards, completes every other in-flight message to quiescence, and
// rethrows the first error to the caller. Within a broker, the per-shard
// fan-out attempts every shard even when one throws (the serial loop
// matches run_batch's attempt-every-index contract) and the parallel
// handlers fold their per-shard metric deltas before rethrowing — so the
// post-throw routing tables, forwarded sets, and metric totals are valid,
// deterministic, and identical across engines and worker counts (which
// failure is reported first is the only scheduling-dependent part).
//
// The simulation preserves exactly the metrics the paper's motivation
// concerns: subscription messages, routing table sizes, event traffic, and
// delivery completeness.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "broker/broker.h"
#include "broker/fault_engine.h"
#include "broker/topology.h"

namespace subcover {

struct network_options {
  bool use_covering = true;
  double epsilon = 0.0;
  // Factory for the per-link covering indexes; defaults to the paper's
  // SFC index (Z curve + skip list).
  covering_index_factory factory;
  // 0 = deterministic sequential FIFO (the reference engine). >= 1 = async
  // message loop on a worker pool of this size; covering checks overlap
  // across links and brokers. Final state and metric totals are identical
  // either way (see header comment).
  int workers = 0;
  // Set = faults mode: inter-broker messages travel through the seeded
  // fault-injection fabric (broker/fault_engine.h) with per-broker WALs and
  // crash recovery. Requires workers == 0 (the fabric is its own single-
  // threaded virtual-time scheduler). Unset = the two engines above run
  // byte-for-byte as before.
  std::optional<fault_options> faults;
};

class network {
 public:
  network(topology t, schema s, network_options options = {});
  ~network();
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  // Registers a subscription for a client at `broker_id`; propagates to
  // quiescence and returns the assigned subscription id.
  sub_id subscribe(int broker_id, const subscription& s);
  // Withdraws a subscription; returns false if unknown.
  bool unsubscribe(sub_id id);
  // Publishes at `broker_id`; returns the ids of subscriptions that received
  // the event, sorted ascending.
  std::vector<sub_id> publish(int broker_id, const event& e);

  // Ground truth: ids of all active subscriptions matching e, regardless of
  // routing (what a correct network must deliver to).
  [[nodiscard]] std::vector<sub_id> expected_recipients(const event& e) const;

  [[nodiscard]] const network_metrics& metrics() const { return metrics_; }
  network_metrics& mutable_metrics() { return metrics_; }
  // Sum of routing-table entries over all brokers — the size metric covering
  // is meant to reduce.
  [[nodiscard]] std::size_t total_routing_entries() const;
  [[nodiscard]] int broker_count() const { return topology_.size(); }
  [[nodiscard]] const broker& broker_at(int id) const;
  [[nodiscard]] std::size_t active_subscriptions() const { return owners_.size(); }
  [[nodiscard]] std::optional<int> owner_broker(sub_id id) const;
  [[nodiscard]] const schema& message_schema() const { return schema_; }
  [[nodiscard]] int workers() const { return options_.workers; }

  // Faults mode only (throws std::logic_error otherwise): the broker's
  // durable write-ahead log, for inspection.
  [[nodiscard]] broker_wal& wal_of(int broker_id);
  // Faults mode only: crash-between-operations — discards the broker's
  // in-memory routing state and rebuilds it from its WAL (counted in
  // metrics().recoveries). Returns the number of log records replayed.
  std::size_t recover_broker(int broker_id);

 private:
  struct sub_record {
    int broker;
    subscription s;
  };
  // The parallel engine (worker pool, per-broker inboxes, per-broker metric
  // accumulators and delivery buffers). Null in deterministic mode.
  struct async_state;
  struct net_msg;

  // Enqueues one initial message and blocks until the network is quiescent,
  // then folds the per-broker metric accumulators into metrics_.
  void run_async(int target_broker, net_msg msg);

  topology topology_;
  schema schema_;
  network_options options_;
  std::vector<broker> brokers_;
  std::map<sub_id, sub_record> owners_;
  network_metrics metrics_;
  sub_id next_id_ = 1;
  std::unique_ptr<async_state> async_;
  // The fault-injection executor; null unless options_.faults is set.
  std::unique_ptr<fault_engine> faults_;
};

}  // namespace subcover
