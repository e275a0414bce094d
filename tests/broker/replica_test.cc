// The replication core driven by hand: a three-broker line whose frames sit
// on an explicit wire until the test delivers, drops or crashes them. Each
// scenario is a crash the seeded chaos suite reaches only by luck, pinned
// here step by step, and every one must end idle and byte-identical to the
// deterministic engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "broker/network.h"
#include "broker/replica.h"
#include "covering/sfc_covering_index.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

covering_index_factory sfc_factory() {
  return [](const schema& s) { return std::make_unique<sfc_covering_index>(s); };
}

// Brokers 0 - 1 - 2, one replica each, frames queued FIFO on `wire`.
struct line_harness {
  struct frame {
    int from = 0;
    int to = 0;
    wire_msg m;
  };
  struct port final : replica_sink {
    line_harness* h = nullptr;
    int b = 0;
    void send(int link, const wire_msg& m) override { h->wire.push_back({b, link, m}); }
    void done(std::uint64_t, std::uint64_t op, std::uint8_t status,
              const std::vector<sub_id>&) override {
      EXPECT_EQ(status, 0);
      h->done.push_back(op);
    }
  };

  static constexpr int kBrokers = 3;
  schema s = workload::make_uniform_schema(2, 10);
  topology t = topology::line(kBrokers);
  std::vector<broker> brokers;
  std::vector<broker_wal> wals{kBrokers};
  std::vector<port> ports{kBrokers};
  std::vector<std::unique_ptr<replica>> replicas{kBrokers};
  network_metrics metrics;
  std::deque<frame> wire;
  std::vector<std::uint64_t> done;
  std::uint64_t checkpoint_every = 16;

  explicit line_harness(std::uint64_t every = 16) : checkpoint_every(every) {
    for (int b = 0; b < kBrokers; ++b)
      brokers.emplace_back(b, s, t.neighbors(b), sfc_factory(), broker_options{});
    for (int b = 0; b < kBrokers; ++b) {
      ports[static_cast<std::size_t>(b)].h = this;
      ports[static_cast<std::size_t>(b)].b = b;
      restart(b);
    }
  }

  void restart(int b) {
    const auto i = static_cast<std::size_t>(b);
    replicas[i] = std::make_unique<replica>(brokers[i], wals[i], metrics, ports[i], checkpoint_every);
    for (const int n : t.neighbors(b))
      if (replicas[static_cast<std::size_t>(n)] != nullptr)
        replicas[static_cast<std::size_t>(n)]->link_up(b);
  }

  // SIGKILL: the replica and every frame still on its links are gone.
  void crash(int b) {
    replicas[static_cast<std::size_t>(b)].reset();
    std::erase_if(wire, [b](const frame& f) { return f.from == b || f.to == b; });
  }

  // Delivers the i-th frame on the wire (a gap verdict drops it).
  void step(std::size_t i = 0) {
    const frame f = wire[i];
    wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(i));
    replica* r = replicas[static_cast<std::size_t>(f.to)].get();
    if (r == nullptr) return;
    if (f.m.type == msg_type::ack)
      r->on_ack(f.from, f.m);
    else
      (void)r->on_data(f.from, f.m);
  }
  void run() {
    while (!wire.empty()) step();
  }

  void client(int b, msg_type t, sub_id id, const subscription& body = {}) {
    wire_msg m;
    m.type = t;
    m.id = id;
    m.body = body;
    (void)replicas[static_cast<std::size_t>(b)]->client_op(1, m);
  }

  void expect_matches(const network& ref) const {
    for (int b = 0; b < kBrokers; ++b) {
      EXPECT_TRUE(replicas[static_cast<std::size_t>(b)]->idle()) << "broker " << b;
      EXPECT_EQ(brokers[static_cast<std::size_t>(b)].snapshot(), ref.broker_at(b).snapshot())
          << "broker " << b;
    }
    EXPECT_TRUE(same_counters(metrics, ref.metrics()))
        << "replicas:      " << metrics.to_string()
        << "\ndeterministic: " << ref.metrics().to_string();
  }
};

// At broker 0, `wide` covers `narrow`, so only `wide` reaches brokers 1
// and 2. Unsubscribing `wide` sends broker 1 two frames of one op — the
// withdrawal (seq 0) and the re-forward of `narrow` (seq 1) — and broker 1
// relays both to broker 2 (seqs 0 and 1 there). Leaves those two frames
// on the wire towards broker 1, and `ref` in the final state.
void start_reforwarding_unsubscribe(line_harness& h, network& ref) {
  const subscription wide(h.s, {{100, 900}, {100, 900}});
  const subscription narrow(h.s, {{400, 500}, {400, 500}});
  for (const subscription& sub : {wide, narrow}) {
    h.client(0, msg_type::subscribe, ref.subscribe(0, sub), sub);
    h.run();
  }
  ASSERT_TRUE(ref.unsubscribe(1));
  ASSERT_EQ(ref.metrics().reforwards, 1U);
  h.client(0, msg_type::unsubscribe, 1);
  ASSERT_EQ(h.wire.size(), 2U);
}

network reference(const line_harness& h) {
  network_options o;
  o.factory = sfc_factory();
  return network(h.t, h.s, o);
}

TEST(Replica, ReplayOfALaterMessageKeepsItsSendSeqs) {
  // Broker 1 relays both frames; broker 2 applies and acks the withdrawal,
  // so broker 1 acks seq 0 upstream. Then broker 1 dies with the re-forward
  // of `narrow` still unsent. Broker 0 replays only seq 1, and broker 1
  // must re-emit it at seq 1 on link 2: restarting the op's count at 0
  // would read as a duplicate of the withdrawal, and broker 2 would never
  // learn of `narrow`.
  line_harness h;
  network ref = reference(h);
  start_reforwarding_unsubscribe(h, ref);
  h.step();   // 0 -> 1 withdrawal
  h.step();   // 0 -> 1 re-forward
  h.step();   // 1 -> 2 withdrawal; wire: 1 -> 2 re-forward, 2 -> 1 ack
  h.step(1);  // 2 -> 1 ack
  h.step(1);  // 1 -> 0 ack of seq 0
  ASSERT_EQ(h.wire.size(), 1U);  // 1 -> 2 re-forward
  h.crash(1);
  h.restart(1);
  h.run();
  EXPECT_EQ(h.done.size(), 3U);
  h.expect_matches(ref);
  EXPECT_EQ(h.brokers[2].table().total_entries(), 1U);  // `narrow`, re-forwarded
}

TEST(Replica, DuplicateWithdrawalReplaysTheWithdrawal) {
  // Broker 1 logs both messages of the op and dies before anything leaves
  // it. Broker 0 replays both; each duplicate must replay its own record.
  // A record store keyed by op alone would answer the withdrawal's
  // duplicate with the re-forward's emissions.
  line_harness h;
  network ref = reference(h);
  start_reforwarding_unsubscribe(h, ref);
  h.step();
  h.step();
  h.crash(1);
  h.restart(1);
  h.run();
  EXPECT_EQ(h.done.size(), 3U);
  h.expect_matches(ref);
  EXPECT_GT(h.metrics.duplicates_suppressed, 0U);
}

TEST(Replica, FreshMessageAfterRestartContinuesTheOpsSendSeqs) {
  // Broker 1 relays the withdrawal, which completes, and dies before the
  // re-forward reaches it. After the restart the re-forward is fresh, and
  // its frame on link 2 must follow the withdrawal's (seq 1): the restart
  // rebuilds the op's send seqs from the log or, once a checkpoint has
  // dropped the record, from the snapshot's aux blob.
  for (const std::uint64_t every : {0U, 1U}) {
    line_harness h(every);
    network ref = reference(h);
    start_reforwarding_unsubscribe(h, ref);
    h.step();   // 0 -> 1 withdrawal; wire: 0 -> 1 re-forward, 1 -> 2 withdrawal
    h.step(1);  // 1 -> 2 withdrawal
    h.step(1);  // 2 -> 1 ack
    h.step(1);  // 1 -> 0 ack of seq 0
    ASSERT_EQ(h.wire.size(), 1U);  // 0 -> 1 re-forward
    h.crash(1);
    h.restart(1);
    h.run();
    EXPECT_EQ(h.done.size(), 3U) << "checkpoint_every " << every;
    h.expect_matches(ref);
  }
}

TEST(Replica, VerdictsFollowTheLinkSequence) {
  line_harness h;
  network ref = reference(h);
  start_reforwarding_unsubscribe(h, ref);
  const auto first = h.wire[0].m;
  const auto second = h.wire[1].m;
  replica& r = *h.replicas[1];
  EXPECT_EQ(r.on_data(0, second), replica::verdict::gap);
  EXPECT_EQ(r.on_data(0, first), replica::verdict::fresh);
  EXPECT_EQ(r.on_data(0, first), replica::verdict::duplicate);
  EXPECT_EQ(r.on_data(0, second), replica::verdict::fresh);
  h.wire.clear();
  r.link_up(2);  // replays the ledger: both relayed frames, in order
  ASSERT_EQ(h.wire.size(), 2U);
  EXPECT_EQ(h.wire[0].m.seq, 0U);
  EXPECT_EQ(h.wire[1].m.seq, 1U);
}

// A snapshot store that counts its replaces.
class counting_store final : public wal_store {
 public:
  explicit counting_store(int& replaces) : replaces_(replaces) {}
  void append(const std::vector<std::uint8_t>& bytes) override { inner_.append(bytes); }
  void replace(const std::vector<std::uint8_t>& bytes) override {
    ++replaces_;
    inner_.replace(bytes);
  }
  [[nodiscard]] std::vector<std::uint8_t> read_all() const override { return inner_.read_all(); }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }

 private:
  int& replaces_;
  memory_wal_store inner_;
};

TEST(Replica, EachCheckpointWritesTheSnapshotOnce) {
  struct null_sink final : replica_sink {
    void send(int, const wire_msg&) override {}
    void done(std::uint64_t, std::uint64_t, std::uint8_t, const std::vector<sub_id>&) override {}
  } sink;
  const schema s = workload::make_uniform_schema(2, 8);
  int replaces = 0;
  broker_wal wal(std::make_unique<counting_store>(replaces), std::make_unique<memory_wal_store>());
  broker b(0, s, {}, sfc_factory(), broker_options{});
  network_metrics metrics;
  replica r(b, wal, metrics, sink, 2);
  workload::subscription_gen gen(s, {}, 5);
  for (sub_id id = 1; id <= 6; ++id) {
    wire_msg m;
    m.type = msg_type::subscribe;
    m.id = id;
    m.body = gen.next();
    (void)r.client_op(1, m);
  }
  EXPECT_EQ(replaces, 3);  // after records 2, 4 and 6
  r.checkpoint_if_idle();
  EXPECT_EQ(replaces, 4);
  EXPECT_EQ(wal.records_since_snapshot(), 0U);

  // The one write carries snapshot and dedup keys: a restart replays no
  // record yet still knows every op it originated.
  broker restored(0, s, {}, sfc_factory(), broker_options{});
  replica again(restored, wal, metrics, sink, 2);
  EXPECT_TRUE(again.restored());
  EXPECT_EQ(again.replayed(), 0U);
  EXPECT_EQ(restored.snapshot(), b.snapshot());
  wire_msg m;
  m.type = msg_type::subscribe;
  m.id = 7;
  m.body = gen.next();
  EXPECT_EQ(again.client_op(1, m) & ((std::uint64_t{1} << 40) - 1), 7U);
}

}  // namespace
}  // namespace subcover
