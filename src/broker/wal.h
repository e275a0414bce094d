// Durable per-broker routing state: a write-ahead log of subscription
// dispositions plus periodic compacted snapshots, the persistence layer the
// fault-tolerant broker network recovers from.
//
// What is logged: not the covering *decisions* but their *dispositions* —
// for a subscribe, the routing-table entry plus the exact set of links the
// subscription was forwarded (i.e. inserted into the link shard) on; for an
// unsubscribe, the links it was withdrawn from plus every (link, id, body)
// re-forward the withdrawal uncovered. Replaying a record is therefore a
// pure state mutation (broker::apply_replay): no covering check re-runs, no
// metrics move, and the rebuilt broker is state-identical to one that never
// crashed (pinned by routing_table::operator== and forwarded_ids equality
// in tests/broker/broker_recovery_test.cc).
//
// Idempotency keys: every record carries the op-scoped channel position
// (op, from, seq) it was applied at. The replication core (broker/
// replica.h) rebuilds its duplicate-suppression state from these keys after
// a crash, which is what makes "WAL-append before ack" turn at-least-once
// message delivery into exactly-once state application.
// event_receipt records exist only for this: events mutate no routing
// state, but their channel position must survive a crash so retransmitted
// (already-processed) events are suppressed instead of re-delivered.
//
// On-disk format (wal_store holds opaque bytes; both stores are durable on
// return from append/replace — to the OS always, to the *platter* only with
// wal_options::fsync_on_append):
//
//   log      := record*                   (append-only; compacted by snapshot)
//   record   := len:u32le  fnv1a64(payload):u64le  payload[len]
//   snapstore:= snapframe [auxframe]      (replaced atomically as one blob)
//
// The framing discipline is shared with the TCP wire protocol
// (broker/codec.h). A torn tail — a final record whose length header,
// checksum, or payload was cut by a crash mid-append — is tolerated:
// recovery applies every intact prefix record and reports the dropped bytes
// (recovery::torn_bytes). Payloads are varint/zigzag coded (LEB128).
//
// The snapshot store holds one checksummed broker_snapshot (routing table +
// per-link forwarded sets) plus an optional opaque aux frame (the replica
// persists its duplicate-suppression keys there, so compaction
// cannot widen the exactly-once window); write_snapshot replaces both
// atomically and truncates the log, bounding replay time and WAL size.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "broker/routing_table.h"
#include "pubsub/subscription.h"

namespace subcover {

// Recovery found a corrupt snapshot or an internally inconsistent store
// (torn *tails* are tolerated and reported, not thrown), or a directory
// store could not be created, opened, or locked — the message names the
// offending path.
struct wal_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Durability policy for directory-backed stores.
struct wal_options {
  // fsync(2) the log file after every record append, fsync the snapshot
  // temp file before its rename and the directory after it. Off = durable
  // to the OS page cache (survives SIGKILL of the process, not power loss);
  // on = a real crash-durability guarantee at per-record fsync cost. The
  // recovered bytes are identical either way (pinned by
  // tests/broker/wal_test.cc).
  bool fsync_on_append = false;
};

// One logged disposition. `op`/`from`/`seq` form the idempotency key: the
// per-operation channel position at which this record was applied
// (from == kLocalLink for client-originated messages).
struct wal_record {
  enum class kind : std::uint8_t { subscribe = 1, unsubscribe = 2, event_receipt = 3 };
  kind k = kind::subscribe;
  std::uint64_t op = 0;
  int from = kLocalLink;
  std::uint64_t seq = 0;
  sub_id id = 0;                    // subscribe / unsubscribe
  subscription body;                // subscribe
  std::vector<int> forwarded_links;  // subscribe: links the body was inserted on
  std::vector<int> withdrawn_links;  // unsubscribe: links the id was withdrawn from
  // unsubscribe: re-forwards the withdrawal uncovered, as (link, (id, body)).
  std::vector<std::pair<int, std::pair<sub_id, subscription>>> reforwards;
  // Per link, the op's send seq of this record's first frame there (absent
  // = 0), so replaying the record alone regenerates its seqs.
  std::map<int, std::uint64_t> send_base;

  friend bool operator==(const wal_record&, const wal_record&) = default;
};

// Full routing state of one broker at a checkpoint: per-link routing-table
// entries and per-link forwarded sets, ids ascending within each link.
struct broker_snapshot {
  std::map<int, std::vector<std::pair<sub_id, subscription>>> routing;
  std::map<int, std::vector<std::pair<sub_id, subscription>>> forwarded;

  friend bool operator==(const broker_snapshot&, const broker_snapshot&) = default;
};

// Durable byte storage for one log or snapshot. Implementations must make
// append/replace durable before returning (the fault model's crashes never
// lose acknowledged writes; a crash *during* the final append is the torn
// tail recovery tolerates).
class wal_store {
 public:
  virtual ~wal_store() = default;
  virtual void append(const std::vector<std::uint8_t>& bytes) = 0;
  virtual void replace(const std::vector<std::uint8_t>& bytes) = 0;
  [[nodiscard]] virtual std::vector<std::uint8_t> read_all() const = 0;
  [[nodiscard]] virtual std::uint64_t size() const = 0;
};

// In-memory store: the fault-injection engine's default (durability is
// simulated — the store lives in the network, outside the crashing broker).
class memory_wal_store final : public wal_store {
 public:
  void append(const std::vector<std::uint8_t>& bytes) override;
  void replace(const std::vector<std::uint8_t>& bytes) override;
  [[nodiscard]] std::vector<std::uint8_t> read_all() const override;
  [[nodiscard]] std::uint64_t size() const override { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// File-backed store: append opens O_APPEND and writes the whole record in
// one write(2); replace writes a sibling temp file and renames over the
// target, so a crash mid-replace leaves either the old or the new content,
// never a mix. With wal_options::fsync_on_append the record (and, for
// replace, the temp file and then the directory entry) is fsynced before
// returning.
class file_wal_store final : public wal_store {
 public:
  explicit file_wal_store(std::string path, wal_options options = {});
  void append(const std::vector<std::uint8_t>& bytes) override;
  void replace(const std::vector<std::uint8_t>& bytes) override;
  [[nodiscard]] std::vector<std::uint8_t> read_all() const override;
  [[nodiscard]] std::uint64_t size() const override;

 private:
  std::string path_;
  wal_options options_;
};

// RAII holder of an flock(2)-ed file descriptor: the broker_wal directory
// lock. The kernel releases the lock when the descriptor closes — including
// on SIGKILL — so a crashed daemon never wedges its own restart, while a
// *live* second opener of the same directory is rejected.
class file_lock {
 public:
  file_lock() = default;
  explicit file_lock(int fd) : fd_(fd) {}
  file_lock(file_lock&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  file_lock& operator=(file_lock&& o) noexcept;
  file_lock(const file_lock&) = delete;
  file_lock& operator=(const file_lock&) = delete;
  ~file_lock();

 private:
  int fd_ = -1;
};

// One broker's durable state: a snapshot store plus an append-only record
// log. Not thread-safe; driven by one replica (broker/replica.h) or a
// test — one call at a time.
class broker_wal {
 public:
  // In-memory stores (the fault engine's configuration).
  broker_wal();
  // Caller-chosen stores; both required.
  broker_wal(std::unique_ptr<wal_store> snapshot_store, std::unique_ptr<wal_store> log_store);
  // File-backed stores <dir>/broker-<id>.snap and <dir>/broker-<id>.log.
  // Creates `dir` (and parents) if missing, then takes an exclusive
  // <dir>/broker-<id>.lock flock held for the returned object's lifetime.
  // Throws wal_error naming the offending path if the directory cannot be
  // created or the WAL is already locked by a live process.
  static broker_wal in_directory(const std::string& dir, int broker_id,
                                 wal_options options = {});

  // Appends one framed record to the log, durably.
  void append(const wal_record& r);
  // Replaces the snapshot and truncates the log (compaction). Everything the
  // log's records built is assumed folded into `snap`. `aux` is an opaque
  // consumer blob stored (checksummed) beside the snapshot and handed back
  // by recover(); empty = no aux frame, byte-identical to the pre-aux
  // format.
  void write_snapshot(const broker_snapshot& snap, const std::vector<std::uint8_t>& aux = {});

  struct recovery {
    broker_snapshot snapshot;
    std::vector<std::uint8_t> aux;    // write_snapshot's aux blob, or empty
    std::vector<wal_record> records;  // intact log records, append order
    std::uint64_t torn_bytes = 0;     // trailing log bytes dropped as torn
  };
  // Reads snapshot + log back. Tolerates a torn final record (reported in
  // torn_bytes); throws wal_error on a corrupt snapshot or a corrupt
  // non-tail region that cannot be attributed to a torn append.
  [[nodiscard]] recovery recover() const;

  // Total bytes made durable through this object (records + snapshots) —
  // the network_metrics::wal_bytes feed.
  [[nodiscard]] std::uint64_t bytes_appended() const { return bytes_appended_; }
  // Records appended since the last snapshot (checkpoint-policy input).
  [[nodiscard]] std::uint64_t records_since_snapshot() const { return records_since_snapshot_; }

  [[nodiscard]] wal_store& log_store() { return *log_; }
  [[nodiscard]] wal_store& snapshot_store() { return *snapshot_; }

 private:
  std::unique_ptr<wal_store> snapshot_;
  std::unique_ptr<wal_store> log_;
  file_lock lock_;  // held iff built by in_directory
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t records_since_snapshot_ = 0;
};

// Codec internals, exposed for tests (round-trip and torn-frame property
// tests) and for the daemon's routing-state dump.
std::vector<std::uint8_t> encode_record(const wal_record& r);
std::vector<std::uint8_t> encode_snapshot(const broker_snapshot& s);

}  // namespace subcover
