// The replication protocol, stated once: a deterministic state machine that
// does no I/O and makes one broker's routing state crash-safe. Two drivers
// run it — broker_daemon (broker/transport.h) around poll() and real
// sockets, fault_engine (broker/fault_engine.h) around a seeded
// virtual-time fabric — so the seeded chaos suite exercises the very code
// the daemon runs.
//
// Inputs: a client operation, a data frame from link L, an ack from link
// L, and "link L is up". Outputs go through a replica_sink: a frame for
// link L, and "client operation done". The replica borrows its broker, WAL
// and metrics; it owns everything else below, and a crash (SIGKILL, or the
// fault engine destroying the object) loses all of it. Constructing a
// replica is a restart.
//
//   * Dedup. Every data frame is keyed (op, from, seq): `op` is the
//     cluster-unique operation id, `seq` the sender's per-op per-link
//     position. A frame is fresh (seq == next expected on that link),
//     a duplicate (seq < next) or a gap (seq > next). The driver drops a
//     gap: the daemon closes the connection and the reconnect replays the
//     ledger in order; the fabric withholds its hop ack so the frame is
//     retransmitted.
//   * WAL-append before ack. A fresh frame runs the broker handler, the
//     disposition is appended as a wal_record carrying the frame's key,
//     and only then are the record's frames emitted — from the record,
//     through the same function a replay uses, so fresh processing and
//     replay cannot emit in different orders. Publishes emit through one
//     recompute path (the event handler mutates no state).
//   * Ledger. Every emitted data frame stays in the per-link unacked
//     ledger until its ack arrives; link_up replays the ledger in order.
//   * Cascading acks. A broker acks (op, seq) to its parent only when
//     every frame it emitted for that message is acked, and the ack
//     carries every subscription id delivered in the subtree. One op can
//     reach a relay as several frames — an unsubscribe's withdrawal and
//     its re-forwards — each acked on its own. The origin's "done" thus
//     carries the cluster-wide delivered set, and quiescence needs no
//     global coordinator.
//   * Re-emission. A duplicate that is not in flight means the subtree's
//     ack state died with a crash (here or upstream) or the ack was lost.
//     If the frame's record is still in the log, its emissions are
//     replayed with the seqs the record carries (send_base), so a replayed
//     later message of an op never reuses seqs downstream already holds;
//     a publish recomputes from the payload the duplicate carries and
//     re-aggregates the delivered set from the children's re-acks. A
//     subscribe/unsubscribe whose record was checkpointed away completed
//     before the checkpoint and is re-acked empty.
//   * Checkpoint. At quiescence (no op in flight) and every
//     `checkpoint_every` records, one write stores the snapshot plus an
//     aux blob with the dedup keys and the op send seqs, so compaction
//     cannot widen the exactly-once window.
//   * Restart. Rebuild the broker from snapshot + log, reload the dedup
//     keys and send seqs, resume the local op-id counter past every op
//     this broker originated, and re-emit every client-origin record in
//     the log: its client is gone, so nobody else would finish it.
//
// Exactly-once applies to state; deliveries are at-least-once across
// client retries. Dedup keys and op send seqs live for the replica's
// lifetime (a re-forward of an unsubscribe may arrive at a relay after
// the op went quiet there); bounding them is open work.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "broker/wal.h"
#include "broker/wire.h"

namespace subcover {

class replica_sink {
 public:
  virtual ~replica_sink() = default;
  // A data or ack frame for neighbour `link`. Data frames stay in the
  // ledger, so a driver whose link is down may drop them.
  virtual void send(int link, const wire_msg& m) = 0;
  // The client operation `op` that client_op was given `client` for
  // finished cluster-wide (status 0), or was rejected (status 1).
  virtual void done(std::uint64_t client, std::uint64_t op, std::uint8_t status,
                    const std::vector<sub_id>& delivered) = 0;
};

class replica {
 public:
  enum class verdict : std::uint8_t { fresh, duplicate, gap };

  // Restart (see the header comment). Frames resumed here go to `out`.
  replica(broker& b, broker_wal& wal, network_metrics& metrics, replica_sink& out,
          std::uint64_t checkpoint_every);
  ~replica();
  replica(const replica&) = delete;
  replica& operator=(const replica&) = delete;

  // One client operation (m.type subscribe, unsubscribe or publish) at
  // this broker; returns its minted op id. `client` is handed back with
  // done; 0 means nobody awaits it.
  std::uint64_t client_op(std::uint64_t client, wire_msg m);
  verdict on_data(int from, const wire_msg& m);
  void on_ack(int from, const wire_msg& m);
  // Replays the ledger of `link`, oldest first.
  void link_up(int link);
  // Checkpoints now if checkpoints are enabled and nothing is in flight.
  void checkpoint_if_idle();

  // No op in flight and every ledger empty.
  [[nodiscard]] bool idle() const;
  // The WAL held state at restart, and how many log records it replayed.
  [[nodiscard]] bool restored() const { return restored_; }
  [[nodiscard]] std::size_t replayed() const { return replayed_; }

 private:
  struct op_state;
  struct ledger_entry {
    std::uint64_t op = 0;
    std::uint64_t seq = 0;
    std::uint64_t owner_seq = 0;  // parent seq of the op_state that sent it
    wire_msg msg;
  };
  using op_key = std::pair<std::uint64_t, std::uint64_t>;  // (op, parent seq)

  void process_fresh(int from, const wire_msg& m, op_state& st);
  void emit_record(const wal_record& r, op_state& st);
  void emit_publish(int from, const wire_msg& m, const event& e, op_state& st, bool fresh);
  void send_data(int link, wire_msg m, op_state& st);
  void settle(std::uint64_t op, std::unique_ptr<op_state> st);
  void complete_op(std::uint64_t op, op_state& st);
  void merge_send_seqs(std::uint64_t op, const std::map<int, std::uint64_t>& seqs);
  void maybe_checkpoint(std::uint64_t min_records);
  [[nodiscard]] std::vector<std::uint8_t> encode_aux() const;
  void load_aux(const std::vector<std::uint8_t>& aux);

  broker& broker_;
  broker_wal& wal_;
  network_metrics& metrics_;
  replica_sink& out_;
  std::uint64_t checkpoint_every_;
  bool restored_ = false;
  std::size_t replayed_ = 0;

  std::uint64_t op_counter_ = 0;  // client ops originated here
  // Dedup: op -> (from -> next expected seq).
  std::map<std::uint64_t, std::map<int, std::uint64_t>> applied_;
  // Post-snapshot records by their key (op, from, seq); cleared at checkpoint.
  std::map<std::tuple<std::uint64_t, int, std::uint64_t>, wal_record> records_;
  std::map<op_key, std::unique_ptr<op_state>> active_;
  // Per-op per-link next send seq.
  std::map<std::uint64_t, std::map<int, std::uint64_t>> send_seq_;
  std::map<int, std::deque<ledger_entry>> ledger_;  // per link, send order
};

}  // namespace subcover
