// Chaos tests for the fault-injection engine (network_options::faults):
// under seeded drop/duplicate/delay/crash schedules, every operation must
// converge to the exact deterministic-mode outcome — per-publish delivery
// sets, final routing tables, forwarded sets, and every logical metric
// counter (same_counters) — with the injected faults visible only in the
// fault-transport counters (retries, duplicates_suppressed, recoveries,
// wal_bytes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "broker/network.h"
#include "covering/sfc_covering_index.h"
#include "pubsub/parser.h"
#include "workload/event_gen.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

network_options base_opts() {
  network_options o;
  o.use_covering = true;
  o.epsilon = 0.1;
  o.factory = [](const schema& sc) {
    sfc_covering_options so;
    so.max_cubes = 2048;
    return std::make_unique<sfc_covering_index>(sc, so);
  };
  return o;
}

network_options faulty_opts(const fault_options& f) {
  network_options o = base_opts();
  o.faults = f;
  return o;
}

// Runs the same seeded churn on both networks, asserting per-publish
// delivery equality and ground-truth completeness along the way. Of every
// ten steps, `subscribes` subscribe, `unsubscribes` unsubscribe and the
// rest publish.
void run_identical_churn(network& det, network& faulty, const schema& s, std::uint64_t seed,
                         int steps, std::uint64_t subscribes = 5, std::uint64_t unsubscribes = 2,
                         const workload::subscription_gen_options& gen_opts = {}) {
  workload::subscription_gen subs(s, gen_opts, seed);
  workload::event_gen events(s, seed + 1);
  rng gen(seed + 2);
  const auto n = static_cast<std::size_t>(det.broker_count());
  std::vector<sub_id> active;
  for (int step = 0; step < steps; ++step) {
    const auto roll = gen.uniform(0, 9);
    if (roll < subscribes || active.empty()) {
      const auto at = static_cast<int>(gen.index(n));
      const auto body = subs.next();
      const auto ida = det.subscribe(at, body);
      const auto idb = faulty.subscribe(at, body);
      ASSERT_EQ(ida, idb);
      active.push_back(ida);
    } else if (roll < subscribes + unsubscribes) {
      const auto pick = gen.index(active.size());
      ASSERT_TRUE(det.unsubscribe(active[pick]));
      ASSERT_TRUE(faulty.unsubscribe(active[pick]));
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const auto ev = events.next();
      const auto at = static_cast<int>(gen.index(n));
      const auto got = faulty.publish(at, ev);
      EXPECT_EQ(got, det.publish(at, ev)) << "step " << step;
      EXPECT_EQ(got, faulty.expected_recipients(ev)) << "step " << step;
    }
  }
}

void expect_same_final_state(const network& det, const network& faulty) {
  ASSERT_EQ(det.broker_count(), faulty.broker_count());
  for (int i = 0; i < det.broker_count(); ++i) {
    EXPECT_EQ(det.broker_at(i).table(), faulty.broker_at(i).table()) << "broker " << i;
    for (int j = 0; j < det.broker_count(); ++j)
      EXPECT_EQ(det.broker_at(i).forwarded_ids(j), faulty.broker_at(i).forwarded_ids(j))
          << "broker " << i << " link " << j;
  }
  EXPECT_EQ(det.total_routing_entries(), faulty.total_routing_entries());
  EXPECT_TRUE(same_counters(det.metrics(), faulty.metrics()))
      << "deterministic: " << det.metrics().to_string()
      << "\nfaults:        " << faulty.metrics().to_string();
}

TEST(FaultInjection, FaultFreePathMatchesDeterministicExactly) {
  // faults set but every probability zero: the reliability machinery (acks,
  // sequencing, WAL appends) runs, yet nothing fires — the outcome and the
  // logical counters must be byte-identical to deterministic mode, and
  // every fault-transport counter except wal_bytes must stay zero.
  const schema s = workload::make_uniform_schema(2, 8);
  network det(topology::balanced_tree(2, 3), s, base_opts());
  network faulty(topology::balanced_tree(2, 3), s, faulty_opts(fault_options{}));
  run_identical_churn(det, faulty, s, 101, 120);
  expect_same_final_state(det, faulty);
  EXPECT_EQ(faulty.metrics().retries, 0U);
  EXPECT_EQ(faulty.metrics().duplicates_suppressed, 0U);
  EXPECT_EQ(faulty.metrics().recoveries, 0U);
  EXPECT_GT(faulty.metrics().wal_bytes, 0U);
}

TEST(FaultInjection, ChaosConvergesToDeterministicAcrossSeeds) {
  // The acceptance gate: drop + duplicate + delay + crash all enabled, five
  // seeds. Completed operations must land on the exact deterministic-mode
  // state every time.
  const schema s = workload::make_uniform_schema(2, 8);
  for (const std::uint64_t seed : {1U, 2U, 3U, 4U, 5U}) {
    fault_options f;
    f.seed = seed;
    f.drop_prob = 0.05;
    f.duplicate_prob = 0.05;
    f.delay_prob = 0.3;
    f.crash_prob = 0.01;
    f.checkpoint_every = 32;
    network det(topology::balanced_tree(2, 3), s, base_opts());
    network faulty(topology::balanced_tree(2, 3), s, faulty_opts(f));
    run_identical_churn(det, faulty, s, 1000 + seed, 150);
    expect_same_final_state(det, faulty);
    // The schedule must actually have exercised the machinery: five seeds
    // of 5% drop / 5% duplicate over thousands of transmissions cannot all
    // be clean runs.
    EXPECT_GT(faulty.metrics().retries, 0U) << "seed " << seed;
    EXPECT_GT(faulty.metrics().duplicates_suppressed, 0U) << "seed " << seed;
  }
}

TEST(FaultInjection, CrashRecoveryConvergesMidOperation) {
  // Crash-heavy schedule, no message-level faults: brokers go down mid-
  // operation and restart from their WALs; the operation's retransmissions
  // must carry it to the exact deterministic outcome.
  const schema s = workload::make_uniform_schema(2, 8);
  fault_options f;
  f.seed = 99;
  f.crash_prob = 0.03;
  f.checkpoint_every = 16;
  network det(topology::balanced_tree(2, 3), s, base_opts());
  network faulty(topology::balanced_tree(2, 3), s, faulty_opts(f));
  run_identical_churn(det, faulty, s, 2020, 150);
  expect_same_final_state(det, faulty);
  EXPECT_GT(faulty.metrics().recoveries, 0U);
  EXPECT_GT(faulty.metrics().duplicates_suppressed, 0U);  // the ack-lost crash variant
}

TEST(FaultInjection, RelaysKilledMidUnsubscribeConverge) {
  // SIGKILL-like crashes under unsubscribe-heavy churn on a depth-3 tree,
  // so relays with children die between an unsubscribe's withdrawal and
  // its re-forwards and lose their ledgers, op states and send seqs. Only
  // crashes are injected, so every duplicate descends from a restart:
  // the neighbours' ledger replay or the restarted broker's resumed client
  // ops, each of which first meets a replica with no state for it — the
  // re-emission path.
  const schema s = workload::make_uniform_schema(2, 8);
  workload::subscription_gen_options wide;  // wildcards make covering, and re-forwards, common
  wide.wildcard_prob = 0.4;
  for (const std::uint64_t seed : {7U, 8U, 9U}) {
    fault_options f;
    f.seed = seed;
    f.crash_prob = 0.08;
    f.checkpoint_every = 8;
    network det(topology::balanced_tree(2, 3), s, base_opts());
    network faulty(topology::balanced_tree(2, 3), s, faulty_opts(f));
    run_identical_churn(det, faulty, s, 3000 + seed, 160, 4, 4, wide);
    expect_same_final_state(det, faulty);
    EXPECT_GT(faulty.metrics().reforwards, 0U) << "seed " << seed;
    EXPECT_GT(faulty.metrics().recoveries, 0U) << "seed " << seed;
    EXPECT_GT(faulty.metrics().duplicates_suppressed, 0U) << "seed " << seed;
  }
}

TEST(FaultInjection, RecoverBrokerBetweenOperationsIsByteIdentical) {
  // The crash-between-operations path: capture a broker's state, discard it,
  // rebuild from the WAL, and require byte-identical routing + forwarded
  // state, then continued correct operation.
  const schema s = workload::make_uniform_schema(2, 8);
  fault_options f;
  f.checkpoint_every = 8;
  network faulty(topology::balanced_tree(2, 3), s, faulty_opts(f));
  workload::subscription_gen subs(s, {}, 303);
  workload::event_gen events(s, 304);
  rng gen(305);
  const auto n = static_cast<std::size_t>(faulty.broker_count());
  for (int i = 0; i < 80; ++i)
    (void)faulty.subscribe(static_cast<int>(gen.index(n)), subs.next());
  for (int b = 0; b < faulty.broker_count(); ++b) {
    const routing_table before = faulty.broker_at(b).table();
    std::vector<std::vector<sub_id>> forwarded_before;
    for (int j = 0; j < faulty.broker_count(); ++j)
      forwarded_before.push_back(faulty.broker_at(b).forwarded_ids(j));
    (void)faulty.recover_broker(b);
    EXPECT_EQ(faulty.broker_at(b).table(), before) << "broker " << b;
    for (int j = 0; j < faulty.broker_count(); ++j)
      EXPECT_EQ(faulty.broker_at(b).forwarded_ids(j), forwarded_before[static_cast<std::size_t>(j)])
          << "broker " << b << " link " << j;
  }
  EXPECT_EQ(faulty.metrics().recoveries, static_cast<std::uint64_t>(faulty.broker_count()));
  for (int e = 0; e < 20; ++e) {
    const auto ev = events.next();
    EXPECT_EQ(faulty.publish(static_cast<int>(gen.index(n)), ev),
              faulty.expected_recipients(ev));
  }
}

TEST(FaultInjection, CheckpointBoundsReplayLength) {
  const schema s = workload::make_uniform_schema(1, 8);
  fault_options f;
  f.checkpoint_every = 4;
  network faulty(topology::line(3), s, faulty_opts(f));
  for (int i = 0; i < 40; ++i)
    (void)faulty.subscribe(i % 3, parse_subscription(s, "attr0 <= " + std::to_string(i)));
  // Compaction keeps every broker's pending replay under the threshold.
  for (int b = 0; b < 3; ++b) {
    EXPECT_LT(faulty.wal_of(b).records_since_snapshot(), 4U) << "broker " << b;
    EXPECT_GT(faulty.wal_of(b).snapshot_store().size(), 0U) << "broker " << b;
  }
  // And recovery after compaction replays only the short tail.
  EXPECT_LT(faulty.recover_broker(1), 4U);
}

TEST(FaultInjection, RetryExhaustionThrows) {
  const schema s = workload::make_uniform_schema(1, 8);
  fault_options f;
  f.drop_prob = 1.0;  // the fabric eats every inter-broker transmission
  f.max_retries = 2;
  network faulty(topology::line(2), s, faulty_opts(f));
  EXPECT_THROW((void)faulty.subscribe(0, subscription::match_all(s)), std::runtime_error);
}

TEST(FaultInjection, FaultsPlusWorkersThrows) {
  const schema s = workload::make_uniform_schema(1, 8);
  network_options o = faulty_opts(fault_options{});
  o.workers = 2;
  EXPECT_THROW(network(topology::line(2), s, o), std::invalid_argument);
}

TEST(FaultInjection, WalAccessorsRequireFaultsMode) {
  const schema s = workload::make_uniform_schema(1, 8);
  network det(topology::line(2), s, base_opts());
  EXPECT_THROW((void)det.wal_of(0), std::logic_error);
  EXPECT_THROW((void)det.recover_broker(0), std::logic_error);
  network faulty(topology::line(2), s, faulty_opts(fault_options{}));
  EXPECT_THROW((void)faulty.wal_of(7), std::invalid_argument);
  EXPECT_THROW((void)faulty.recover_broker(-1), std::invalid_argument);
}

TEST(FaultInjection, BadFaultOptionsThrow) {
  const schema s = workload::make_uniform_schema(1, 8);
  for (auto mutate : std::vector<void (*)(fault_options&)>{
           [](fault_options& f) { f.drop_prob = 1.5; },
           [](fault_options& f) { f.duplicate_prob = -0.1; },
           [](fault_options& f) { f.crash_prob = 2.0; },
           [](fault_options& f) { f.max_retries = -1; },
           [](fault_options& f) { f.ack_timeout = 0; },
           [](fault_options& f) { f.max_delay = 0; },
       }) {
    fault_options f;
    mutate(f);
    EXPECT_THROW(network(topology::line(2), s, faulty_opts(f)), std::invalid_argument);
  }
}

}  // namespace
}  // namespace subcover
