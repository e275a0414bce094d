// Checkpoint → crash → broker::recover round trips: the rebuilt broker must
// be state-identical (routing table, per-link forwarded sets — compared
// wholesale via broker_snapshot equality) to the broker that wrote the WAL,
// across key widths and curves, and must behave identically afterwards.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "broker/wal.h"
#include "covering/sfc_covering_index.h"
#include "util/random.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

constexpr int kBrokerId = 0;
const std::vector<int> kLinks = {1, 2, 3};

covering_index_factory sfc_factory(curve_kind curve) {
  return [curve](const schema& sc) {
    sfc_covering_options so;
    so.curve = curve;
    so.max_cubes = 2048;
    return std::make_unique<sfc_covering_index>(sc, so);
  };
}

broker_options covering_opts() {
  broker_options o;
  o.use_covering = true;
  o.epsilon = 0.1;
  return o;
}

// Drives one broker through a seeded churn of subscribes/unsubscribes from
// mixed links, logging every disposition the way the replication core does
// (src/broker/replica.cc, process_fresh): the WAL records state deltas, so
// this is the full durable trace of the broker's history.
struct churn_driver {
  broker& br;
  broker_wal& wal;
  network_metrics metrics;
  workload::subscription_gen subs;
  rng gen;
  std::vector<std::pair<sub_id, int>> active;  // (id, link it arrived over)
  sub_id next_id = 1;
  std::uint64_t op = 0;

  churn_driver(broker& b, broker_wal& w, const schema& s, std::uint64_t seed)
      : br(b), wal(w), subs(s, clustered(), seed), gen(seed + 1) {}

  static workload::subscription_gen_options clustered() {
    workload::subscription_gen_options o;
    o.kind = workload::workload_kind::clustered;
    return o;
  }

  int pick_link() {
    const auto i = gen.index(kLinks.size() + 1);
    return i == kLinks.size() ? kLocalLink : kLinks[i];
  }

  void subscribe() {
    const int from = pick_link();
    const sub_id id = next_id++;
    const auto body = subs.next();
    const auto action = br.handle_subscribe(from, id, body, metrics);
    wal_record r;
    r.k = wal_record::kind::subscribe;
    r.op = ++op;
    r.from = from;
    r.seq = op;
    r.id = id;
    r.body = body;
    r.forwarded_links = action.forward_links;
    wal.append(r);
    active.emplace_back(id, from);
  }

  void unsubscribe() {
    const auto pick = gen.index(active.size());
    const auto [id, from] = active[pick];
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    const auto action = br.handle_unsubscribe(from, id, metrics);
    wal_record r;
    r.k = wal_record::kind::unsubscribe;
    r.op = ++op;
    r.from = from;
    r.seq = op;
    r.id = id;
    r.withdrawn_links = action.forward_links;
    r.reforwards = action.reforwards;
    wal.append(r);
  }

  void step() {
    if (gen.uniform(0, 9) < 7 || active.size() < 4)
      subscribe();
    else
      unsubscribe();
  }
};

void expect_state_identical(const broker& a, const broker& b) {
  EXPECT_EQ(a.table(), b.table());
  EXPECT_EQ(a.routing_entries(), b.routing_entries());
  for (const int link : kLinks) EXPECT_EQ(a.forwarded_ids(link), b.forwarded_ids(link)) << link;
  // The wholesale comparison: every routing entry and every forwarded body.
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

struct combo {
  curve_kind curve;
  int attrs;
  int bits;
  const char* name;
};

// One combo per key width of the dominance pipeline (key_width::automatic):
// 2x8-bit attrs fit u64, 3x16-bit fit u128, 8x16-bit need u512 — so the
// replay path is pinned on every wide-integer backend and every curve.
const combo kCombos[] = {
    {curve_kind::z_order, 2, 8, "z_order/u64"},
    {curve_kind::gray_code, 3, 16, "gray/u128"},
    {curve_kind::hilbert, 8, 16, "hilbert/u512"},
};

TEST(BrokerRecovery, CheckpointKillRecoverIsStateIdentical) {
  for (const auto& c : kCombos) {
    SCOPED_TRACE(c.name);
    const schema s = workload::make_uniform_schema(c.attrs, c.bits);
    const auto factory = sfc_factory(c.curve);
    broker br(kBrokerId, s, kLinks, factory, covering_opts());
    broker_wal wal;
    churn_driver drive(br, wal, s, 4711);
    for (int i = 0; i < 80; ++i) {
      drive.step();
      if (i == 40) br.checkpoint(wal);  // mid-history: snapshot + log tail
    }
    const auto rec = wal.recover();
    ASSERT_FALSE(rec.snapshot.routing.empty());  // the checkpoint is in play
    ASSERT_FALSE(rec.records.empty());           // and so is replay
    EXPECT_EQ(rec.torn_bytes, 0U);
    const broker recovered =
        broker::recover(kBrokerId, s, kLinks, factory, covering_opts(), rec);
    expect_state_identical(br, recovered);
  }
}

TEST(BrokerRecovery, RecoveredBrokerBehavesIdentically) {
  // State-identical must mean behavior-identical: the same post-recovery
  // operations produce the same covering decisions (forward links,
  // reforwards) on the original and the rebuilt broker.
  const schema s = workload::make_uniform_schema(2, 8);
  const auto factory = sfc_factory(curve_kind::z_order);
  broker br(kBrokerId, s, kLinks, factory, covering_opts());
  broker_wal wal;
  churn_driver drive(br, wal, s, 815);
  for (int i = 0; i < 60; ++i) drive.step();
  broker recovered =
      broker::recover(kBrokerId, s, kLinks, factory, covering_opts(), wal.recover());
  // Continue the workload on both, comparing every action.
  workload::subscription_gen more(s, churn_driver::clustered(), 816);
  network_metrics ma, mb;
  sub_id id = drive.next_id;
  for (int i = 0; i < 25; ++i, ++id) {
    const auto body = more.next();
    const int from = i % 2 == 0 ? kLocalLink : kLinks[static_cast<std::size_t>(i) % kLinks.size()];
    const auto aa = br.handle_subscribe(from, id, body, ma);
    const auto ab = recovered.handle_subscribe(from, id, body, mb);
    EXPECT_EQ(aa.forward_links, ab.forward_links) << "op " << i;
  }
  const auto ua = br.handle_unsubscribe(drive.active[0].second, drive.active[0].first, ma);
  const auto ub = recovered.handle_unsubscribe(drive.active[0].second, drive.active[0].first, mb);
  EXPECT_EQ(ua.forward_links, ub.forward_links);
  EXPECT_EQ(ua.reforwards, ub.reforwards);
  expect_state_identical(br, recovered);
}

TEST(BrokerRecovery, TornFinalRecordRecoversToPreviousOperation) {
  // A crash mid-append loses exactly the half-written operation: recovery
  // from the torn log must land on the state just before it.
  const schema s = workload::make_uniform_schema(2, 8);
  const auto factory = sfc_factory(curve_kind::z_order);
  broker br(kBrokerId, s, kLinks, factory, covering_opts());
  broker_wal wal;
  churn_driver drive(br, wal, s, 2222);
  for (int i = 0; i < 30; ++i) drive.step();
  const auto before = br.snapshot();
  drive.subscribe();  // the operation whose record the crash tears
  auto bytes = wal.log_store().read_all();
  bytes.resize(bytes.size() - 3);  // cut into the final record's checksum/payload
  wal.log_store().replace(bytes);
  const auto rec = wal.recover();
  EXPECT_GT(rec.torn_bytes, 0U);
  const broker recovered =
      broker::recover(kBrokerId, s, kLinks, factory, covering_opts(), rec);
  EXPECT_EQ(recovered.snapshot(), before);
}

TEST(BrokerRecovery, RecoverRejectsUnknownLinks) {
  // A snapshot naming a link the topology no longer has is a configuration
  // error the bootstrap constructor refuses (std::invalid_argument).
  const schema s = workload::make_uniform_schema(2, 8);
  const auto factory = sfc_factory(curve_kind::z_order);
  broker br(kBrokerId, s, kLinks, factory, covering_opts());
  broker_wal wal;
  churn_driver drive(br, wal, s, 99);
  for (int i = 0; i < 20; ++i) drive.step();
  br.checkpoint(wal);
  const auto rec = wal.recover();
  EXPECT_THROW((void)broker::recover(kBrokerId, s, {1, 2}, factory, covering_opts(), rec),
               std::invalid_argument);
}

}  // namespace
}  // namespace subcover
