// Deterministic fault-injection engine: the network's third execution mode
// (network_options::faults). One replica (broker/replica.h, the protocol
// the TCP daemon runs) per broker, wired by a simulated unreliable fabric —
// a discrete-event loop in virtual time with a seeded RNG — that can drop,
// duplicate, delay and reorder transmissions, and can crash a broker.
//
// The fabric's hops: every frame a replica emits (data or ack — the core's
// cascading acks ride above the fabric as data) is one hop, retransmitted
// with exponential backoff (ack_timeout doubling per attempt) until the
// receiver's hop ack arrives; past max_retries the operation throws
// std::runtime_error. `retries` counts these retransmissions only. A frame
// the replica judges a gap gets no hop ack, so it is retransmitted until
// its predecessors have arrived. A link to a down broker carries nothing:
// frames sent on it are dropped, and the replica's ledger holds them.
//
// Crashes are SIGKILL-like. A data delivery of the operation in flight may
// crash its receiver — half before the replica sees the frame, half after
// (the WAL record is durable, the ack is not sent). The crash destroys
// that broker's replica (ledger, op states, send seqs) and the hops on its
// links; after recovery_delay ticks it restarts through the replica's
// restart path, and its neighbours replay their ledgers to it, as on a TCP
// reconnect. An operation's data frames flow away from its origin, so the
// origin never crashes during its own operation and always reports done.
//
// Determinism contract: on the tree overlay each broker applies every
// operation's frames in its parent's emission order, whatever the
// schedule, so the final routing tables, forwarded sets, delivered ids and
// every logical metric counter equal deterministic mode's for every seed
// (pinned by tests/broker/fault_injection_test.cc). Only the transport
// counters (retries, duplicates_suppressed, recoveries, wal_bytes) vary.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "broker/replica.h"
#include "broker/topology.h"
#include "util/random.h"

namespace subcover {

struct fault_options {
  std::uint64_t seed = 1;
  // Per-transmission probabilities, each drawn independently (an unlucky
  // hop can be both delayed and duplicated; a dropped one simply never
  // arrives and its retransmission rolls fresh dice).
  double drop_prob = 0.0;
  double duplicate_prob = 0.0;
  double delay_prob = 0.0;
  // Extra virtual-time ticks (uniform in [1, max_delay]) when delayed; base
  // latency is 1 tick. Delay is what produces reordering.
  std::uint64_t max_delay = 8;
  // Probability, per delivered data frame of the operation in flight, that
  // the receiving broker crashes (half before, half after processing it).
  double crash_prob = 0.0;
  // Virtual ticks a crashed broker stays down before restarting from WAL.
  std::uint64_t recovery_delay = 16;
  // Retransmission policy: first retry after ack_timeout ticks, doubling
  // per attempt; exceeding max_retries throws std::runtime_error.
  int max_retries = 10;
  std::uint64_t ack_timeout = 4;
  // A replica checkpoints when it is quiescent with at least this many
  // records since its last snapshot. 0 disables checkpoints.
  std::uint64_t checkpoint_every = 64;
};

// One network's fault-injection executor. Owns the per-broker WALs,
// replicas and the virtual-time fabric; borrows the brokers, topology, and
// metrics from the network that built it. Runs one operation at a time to
// quiescence on the calling thread.
class fault_engine {
 public:
  fault_engine(const topology& t, fault_options opts, std::vector<broker>& brokers,
               network_metrics& metrics);
  fault_engine(const fault_engine&) = delete;  // the ports point back at it
  fault_engine& operator=(const fault_engine&) = delete;

  void run_subscribe(int origin, sub_id id, const subscription& s);
  void run_unsubscribe(int origin, sub_id id);
  // Delivered subscription ids, ascending.
  std::vector<sub_id> run_publish(int origin, const event& e);

  // The broker's durable log (tests inspect it; the example prints it).
  [[nodiscard]] broker_wal& wal_of(int b);
  // Crash-between-operations: restarts broker b from its WAL and runs the
  // fabric to quiescence. Returns the number of log records replayed.
  std::size_t recover_broker(int b);

 private:
  struct hop {
    int from = 0;
    int to = 0;
    std::uint64_t uid = 0;  // hop-ack identity
    wire_msg frame;
  };
  struct sim_event {
    std::uint64_t time = 0;
    std::uint64_t order = 0;  // insertion tie-break: keeps the heap a total order
    enum class kind : std::uint8_t { deliver, hop_ack, timeout, restart };
    kind k = kind::deliver;
    hop h;                  // deliver
    std::uint64_t uid = 0;  // hop_ack / timeout
    int broker = 0;         // restart
  };
  struct event_after {
    bool operator()(const sim_event& a, const sim_event& b) const {
      return a.time != b.time ? a.time > b.time : a.order > b.order;
    }
  };
  struct pending_hop {
    hop h;
    int retries = 0;
  };
  // One broker's replica outputs, fed into the fabric.
  struct port final : replica_sink {
    fault_engine* engine = nullptr;
    int broker = 0;
    void send(int link, const wire_msg& m) override;
    void done(std::uint64_t client, std::uint64_t op, std::uint8_t status,
              const std::vector<sub_id>& delivered) override;
  };

  void run_op(int origin, wire_msg m);
  void drain();
  void dispatch(const sim_event& e);
  void deliver(const hop& h);
  void send_hop(hop h);
  // One attempt: drop/delay/duplicate dice, then deliver event(s).
  void transmit(const hop& h);
  void crash(int b);
  void restart(int b);
  void push_event(sim_event e);
  std::uint64_t latency();

  const topology& topology_;
  fault_options opts_;
  std::vector<broker>& brokers_;
  network_metrics& metrics_;

  std::vector<broker_wal> wals_;
  std::vector<port> ports_;
  std::vector<std::unique_ptr<replica>> replicas_;  // null while down
  rng rng_;

  std::priority_queue<sim_event, std::vector<sim_event>, event_after> heap_;
  std::uint64_t now_ = 0;
  std::uint64_t order_ = 0;
  std::uint64_t next_uid_ = 0;
  std::map<std::uint64_t, pending_hop> pending_;
  std::uint64_t op_ = 0;  // the operation in flight
  bool done_ = false;
  std::uint8_t status_ = 0;
  std::vector<sub_id> delivered_;
};

}  // namespace subcover
