// A single content-based pub/sub broker with covering-optimized subscription
// propagation (paper Section 1).
//
// Subscription handling: a subscription arriving over link L is recorded in
// the routing table under L, then considered for forwarding to every other
// link M. If covering is enabled and a subscription already forwarded to M
// covers the new one, the forward is suppressed — the covered subscription
// needs no entry downstream because every event it matches is already being
// pulled by the coverer. The covering check is delegated to a pluggable
// covering_index (exact linear, SFC exhaustive, SFC eps-approximate, ...).
//
// Event handling: an event arriving over link L is delivered to matching
// local subscriptions and forwarded to every other link that has at least
// one matching subscription in its routing table (reverse-path routing).
//
// Unsubscription: removing a subscription that was forwarded to link M may
// uncover subscriptions whose forward to M was suppressed; those are
// re-forwarded so that completeness is preserved.
//
// Link shards and parallelism: all forwarding state of one outgoing link —
// its covering index, the bodies of the subscriptions forwarded over it,
// and the covering-check scratch — lives in one `link_shard`. The per-link
// work of subscription handling (covering check + shard mutation) touches
// exactly one shard and never another, so the *_parallel handler variants
// can fan the per-link loop out over a worker_pool: each shard job runs on
// whatever worker claims it, writes only its own shard and its own slot of
// the result scratch, and the merge back into the action (and into the
// caller's network_metrics) happens on the calling thread in link order —
// producing the identical action and identical metric totals as the serial
// handlers, independent of worker count and scheduling. The serial handlers
// remain the reference semantics (and the deterministic-mode code path).
// One broker instance must still be driven by one thread at a time; the
// network's per-broker inbox serialization provides that.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "broker/metrics.h"
#include "broker/routing_table.h"
#include "broker/wal.h"
#include "covering/covering_index.h"

namespace subcover {

class worker_pool;

using covering_index_factory = std::function<std::unique_ptr<covering_index>(const schema&)>;

struct broker_options {
  // false = flood every subscription (the paper's "ignore covering" extreme).
  bool use_covering = true;
  // Epsilon for find_covering: 0 = exact/exhaustive detection.
  double epsilon = 0.0;
};

class broker {
 public:
  broker(int id, const schema& s, const std::vector<int>& neighbor_links,
         const covering_index_factory& factory, broker_options options);
  // Rebuilds a broker from persisted routing state: `initial_forwarded` maps
  // a neighbor link to the (id, subscription) pairs already forwarded over
  // it. Each link's covering index is populated through the bulk
  // insert_batch path (one sort instead of one index descent per
  // subscription on the sorted-vector backend). Links absent from the map
  // start empty; throws std::invalid_argument for links not in
  // `neighbor_links`.
  broker(int id, const schema& s, const std::vector<int>& neighbor_links,
         const covering_index_factory& factory, broker_options options,
         const std::map<int, std::vector<std::pair<sub_id, subscription>>>& initial_forwarded);

  // Bulk-populates the forwarded set of one link (the bootstrap primitive
  // behind the constructor above). Ids must not already be forwarded on the
  // link.
  void bootstrap_forwarded(int link,
                           const std::vector<std::pair<sub_id, subscription>>& subs);

  struct subscribe_action {
    std::vector<int> forward_links;  // links the subscription must be sent to
  };
  struct unsubscribe_action {
    std::vector<int> forward_links;  // links the unsubscription must be sent to
    // Suppressed subscriptions that became uncovered and must now be sent.
    std::vector<std::pair<int, std::pair<sub_id, subscription>>> reforwards;
  };
  struct event_action {
    std::vector<int> forward_links;
    std::vector<sub_id> local_deliveries;
  };
  struct unsubscribe_batch_action {
    // Per link: the ids whose withdrawal must be sent over it (ascending in
    // batch order). Links with no forwarded id from the batch are absent.
    std::vector<std::pair<int, std::vector<sub_id>>> forward_links;
    // Suppressed subscriptions that became uncovered and must now be sent.
    std::vector<std::pair<int, std::pair<sub_id, subscription>>> reforwards;
  };

  // `from_link` is kLocalLink for client operations, else the neighbor id.
  subscribe_action handle_subscribe(int from_link, sub_id id, const subscription& s,
                                    network_metrics& metrics);
  unsubscribe_action handle_unsubscribe(int from_link, sub_id id, network_metrics& metrics);
  // Bulk withdrawal: every id must be registered under `from_link` and ids
  // must be distinct (same per-id contract as handle_unsubscribe). Each
  // shard pays ONE covering-index erase_batch (tombstone/compaction
  // machinery once) and ONE re-forward sweep for the whole batch instead of
  // one per id. Completeness-preserving but NOT byte-equivalent to
  // sequential per-id unsubscribes: the single sweep re-checks each
  // suppressed subscription once against the post-batch state, so it may
  // re-forward fewer subscriptions than an id-at-a-time replay whose
  // intermediate states momentarily uncover them. A batch of one id is
  // exactly handle_unsubscribe. Pinned by tests/broker/network_test.cc.
  unsubscribe_batch_action handle_unsubscribe_batch(int from_link,
                                                    const std::vector<sub_id>& ids,
                                                    network_metrics& metrics);
  [[nodiscard]] event_action handle_event(int from_link, const event& e) const;

  // Parallel variants: semantically identical to the serial handlers above
  // (same action, same metric totals), with the per-link shard work fanned
  // out over `pool` via run_batch. `metrics` must not be shared with any
  // concurrently-running handler; the network gives each broker its own
  // accumulator. The broker itself must not be re-entered while a parallel
  // handler is in flight.
  subscribe_action handle_subscribe_parallel(int from_link, sub_id id, const subscription& s,
                                             network_metrics& metrics, worker_pool& pool);
  unsubscribe_action handle_unsubscribe_parallel(int from_link, sub_id id,
                                                 network_metrics& metrics, worker_pool& pool);

  // --- durability (broker/wal.h) ---------------------------------------
  // Full routing state at this instant: routing-table entries plus per-link
  // forwarded sets, ids ascending within each link.
  [[nodiscard]] broker_snapshot snapshot() const;
  // Writes snapshot() through `wal` (replacing its snapshot and compacting
  // its log). Call only at operation boundaries — a snapshot taken between
  // an operation's messages would capture state no record sequence ends at.
  void checkpoint(broker_wal& wal) const;
  // Applies one logged disposition as a pure state mutation: table add or
  // remove plus the recorded shard inserts/withdrawals. No covering check
  // re-runs and no metrics move — the record already carries the decision's
  // outcome. event_receipt records are a no-op here (their channel
  // positions are the replica's concern, not the broker's).
  void apply_replay(const wal_record& r);
  // Rebuilds a broker from recovered durable state: the snapshot first
  // (forwarded sets through the bootstrap constructor, routing entries into
  // the table), then every log record in append order. The result is
  // state-identical to the broker that wrote them — pinned by
  // routing_table::operator== and forwarded_ids equality in
  // tests/broker/broker_recovery_test.cc.
  [[nodiscard]] static broker recover(int id, const schema& s,
                                      const std::vector<int>& neighbor_links,
                                      const covering_index_factory& factory,
                                      broker_options options, const broker_wal::recovery& rec);
  // recover() in place, keeping this broker's id, links and options.
  void restore(const broker_wal::recovery& rec);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] const schema& message_schema() const { return schema_; }
  [[nodiscard]] std::size_t routing_entries() const { return table_.total_entries(); }
  [[nodiscard]] std::size_t forwarded_to(int link) const;
  // Ids forwarded over `link`, ascending — the per-shard state the
  // deterministic-vs-parallel equivalence tests compare.
  [[nodiscard]] std::vector<sub_id> forwarded_ids(int link) const;
  [[nodiscard]] const routing_table& table() const { return table_; }
  // Estimated bytes this broker holds: the routing table plus every link
  // shard (covering index — dominance array, tiered or not, included — and
  // the forwarded subscription bodies).
  [[nodiscard]] std::size_t memory_footprint() const;

 private:
  // All forwarding state of one outgoing link. A shard is only ever touched
  // by one thread at a time (the serial handlers by the broker's thread; the
  // parallel handlers by whichever worker claimed the shard's batch index),
  // so nothing in it is synchronized.
  struct link_shard {
    std::unique_ptr<covering_index> index;   // covering over forwarded subs
    std::map<sub_id, subscription> forwarded;  // bodies for re-forwarding
    // Scratch for covering checks on this shard: reused instead of
    // constructing stats per call (the covering index reuses its own
    // query-plan scratch underneath). Mutable so the logically-const check
    // path can reuse it; shard-local so parallel checks on different links
    // never share it.
    mutable covering_check_stats scratch;
  };

  // True if a subscription already forwarded to the shard's link covers `s`;
  // folds the check's accounting into `metrics`.
  bool covered_on_shard(const link_shard& shard, const subscription& s,
                        network_metrics& metrics) const;
  // The subscribe-side work of one shard: check + insert-if-uncovered.
  // Returns true if the subscription must be forwarded over the link.
  // Touches only `shard` and `metrics`.
  bool subscribe_on_shard(link_shard& shard, sub_id id, const subscription& s,
                          network_metrics& metrics);
  // The unsubscribe-side work of one shard: withdraw + re-forward newly
  // uncovered subscriptions. `link` is the shard's link id (needed to skip
  // subscriptions received over it). Touches only `shard`, `metrics` and
  // the (read-only) routing table.
  struct shard_unsubscribe_result {
    bool forward = false;  // the unsubscription travels over this link
    std::vector<std::pair<sub_id, subscription>> reforwards;
  };
  shard_unsubscribe_result unsubscribe_on_shard(link_shard& shard, int link, sub_id id,
                                                network_metrics& metrics);
  // Fills the fan-out scratch (targets_/target_links_) with every shard
  // except `from_link`'s and sizes the per-shard delta slots.
  void collect_targets(int from_link);

  int id_;
  schema schema_;
  std::vector<int> links_;  // neighbor links (excludes kLocalLink)
  broker_options options_;
  covering_index_factory factory_;
  routing_table table_;
  // Per outgoing link: the link's shard (see link_shard).
  std::map<int, link_shard> shards_;
  // Fan-out scratch for the parallel handlers, reused across messages (the
  // broker is driven by one thread at a time, so one set suffices; batch
  // job i writes only slot i). Kept warm like the per-shard check scratch.
  std::vector<link_shard*> targets_;
  std::vector<int> target_links_;
  std::vector<std::uint8_t> forward_scratch_;
  std::vector<network_metrics> delta_scratch_;
  std::vector<shard_unsubscribe_result> unsub_scratch_;
};

}  // namespace subcover
