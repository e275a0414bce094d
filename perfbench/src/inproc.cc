// The two in-process workloads on the deterministic `network` engine:
// subscription_churn (covering-heavy) and event_routing (covering idle).
//
// A run is kRounds rounds. Each round builds one standing state from its
// own seed (derived from --seed): topology::balanced_tree(2, 3) (15
// brokers), epsilon 0.05, and the first kWarmSubscriptions subscribes of
// the bench_stream_options() churn_gen stream at uniformly chosen brokers.
// The round then runs its slice (--seconds / kRounds) of the timed phase on
// that state. setup_s is the median of the rounds' build times; everything
// else pools over the rounds, so one run averages over four independent
// standing states instead of one.
//
// Every client operation is timed on its own; oracle, generator and replay
// work run between operations and never inside a timed interval.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <utility>

#include "common.h"
#include "trace.h"
#include "workload/churn_gen.h"

namespace perfbench {

using namespace subcover;
using op_kind = workload::churn_op::op_kind;

namespace {

constexpr int kRounds = 4;
constexpr int kBrokers = 15;
constexpr double kEpsilon = 0.05;
// event_routing's ops_per_s is the median of the rates of batches of this
// many publishes.
constexpr std::size_t kPublishBatch = 1024;
// subscription_churn's publishes are 10% of a slow mix, too few for a
// publish percentile; each round publishes this many on its standing state
// before the churn slice instead. (On the churned state the live count is
// a random walk, and the probe's p50 spread 0.32 IQR/median over seeds.)
constexpr int kPublishProbe = 65536;
// Cap on the signed self-time samples the traced run keeps per op type.
constexpr std::size_t kSelfSamples = std::size_t{1} << 20;

// Client operations of one phase kind (set-up or timed), pooled over rounds.
struct phase_stats {
  latency_hist sub, unsub, pub;
  // Traced run: op wall time minus the layer time attributed to it, in us
  // (signed: a replayed span can exceed the op it was replayed for).
  std::vector<double> sub_self, unsub_self, pub_self;
  std::uint64_t ops = 0, subs = 0, unsubs = 0, pubs = 0;
  std::uint64_t sub_ns = 0, unsub_ns = 0, pub_ns = 0;  // Σ op wall time
  std::uint64_t wall_ns = 0;        // traced: op wall minus shadow time
  std::uint64_t attributed_ns = 0;  // traced: part of wall_ns inside a layer span
  std::uint64_t replay_ns = 0, hops = 0;
  // network_metrics deltas over the phase.
  std::uint64_t sub_msgs = 0, event_msgs = 0, reforwards = 0, compactions = 0;
  // covering_trace deltas over the phase (counters only).
  std::uint64_t checks = 0, check_ns = 0, mutate_ns = 0;
};

class inproc_bench {
 public:
  inproc_bench(const run_config& cfg, bool churn) : cfg_(cfg), churn_(churn) {}

  void run() {
    const auto slice_ns = static_cast<std::uint64_t>(cfg_.seconds * 1e9 / kRounds);
    std::vector<double> setup_secs;
    for (int k = 0; k < kRounds && result_.correct; ++k) {
      const std::uint64_t seed = cfg_.seed * kRounds + static_cast<std::uint64_t>(k);
      gen_ = std::make_unique<workload::churn_gen>(schema_, bench_stream_options(), seed);
      events_ = std::make_unique<workload::event_gen>(schema_, seed + 7);
      pick_ = rng(seed * 0x9E3779B97F4A7C15ULL + 1);
      std::vector<std::pair<int, workload::churn_op>> warm;
      for (int i = 0; i < kWarmSubscriptions; ++i) {
        const int broker = static_cast<int>(pick_.index(kBrokers));
        warm.push_back({broker, gen_->next()});
      }
      by_gen_.clear();
      live_.clear();

      const std::uint64_t t0 = now_ns();
      network_options o;
      o.epsilon = kEpsilon;
      if (cfg_.trace)
        o.factory = traced_factory(cov_);
      else
        o.factory = [](const schema& s) -> std::unique_ptr<covering_index> {
          return std::make_unique<sfc_covering_index>(s);
        };
      net_ = std::make_unique<network>(topology::balanced_tree(2, 3), schema_, o);
      std::uint64_t build_ns = now_ns() - t0;
      begin();
      for (const auto& [broker, op] : warm) build_ns += subscribe(setup_, broker, op);
      end(setup_);
      setup_secs.push_back(static_cast<double>(build_ns) / 1e9);
      // The standing state's table size, where the live count is exactly
      // kWarmSubscriptions. Publishes leave it unchanged; churn walks the
      // live count away from it, so the end of a churn slice is no fixed
      // point to compare covering changes at.
      routing_entries_ += static_cast<double>(net_->total_routing_entries()) / kRounds;

      if (churn_) {
        begin();
        for (int i = 0; i < kPublishProbe && result_.correct; ++i) {
          const int broker = static_cast<int>(pick_.index(kBrokers));
          publish(probe_, broker, events_->next());
        }
        end(probe_);
      }
      begin();
      if (churn_)
        churn_slice(slice_ns);
      else
        publish_slice(slice_ns);
      end(timed_);
      if (net_->active_subscriptions() != live_.size())
        result_.fail("network holds " + std::to_string(net_->active_subscriptions()) +
                     " subscriptions, the benchmark expects " + std::to_string(live_.size()));
      net_.reset();
    }
    setup_s_ = median_of(setup_secs);
  }

  // Each op type's latency comes from the phase that has it in volume:
  // subscribes from the timed churn or else set-up, publishes from the
  // timed publish loop or else the churn's publish probe.
  const phase_stats& sub_source() const { return churn_ ? timed_ : setup_; }
  const phase_stats& pub_source() const { return churn_ ? probe_ : timed_; }

  run_result end_to_end() {
    const phase_stats& subs = sub_source();
    const phase_stats& pubs = pub_source();
    result_.add("setup_s", setup_s_, "s");
    result_.add("ops_per_s", ops_per_s(), "1/s");
    result_.add("subscribe_p50_ms", subs.sub.quantile_ms(0.50), "ms");
    result_.add("subscribe_p90_ms", subs.sub.quantile_ms(0.90), "ms");
    result_.add("publish_p50_ms", pubs.pub.quantile_ms(0.50), "ms");
    result_.add("publish_p90_ms", pubs.pub.quantile_ms(0.90), "ms");
    result_.add("sub_msgs_per_subscribe", ratio(static_cast<double>(subs.sub_msgs), subs.subs),
                "msg/op");
    result_.add("event_msgs_per_publish", ratio(static_cast<double>(pubs.event_msgs), pubs.pubs),
                "msg/op");
    result_.add("routing_entries", routing_entries_, "count");
    result_.add("peak_rss_mb", static_cast<double>(proc_status_kb(::getpid(), "VmHWM")) / 1024.0,
                "MB");
    return result_;
  }

  run_result per_layer() {
    const phase_stats& t = timed_;
    const phase_stats& subs = sub_source();
    const phase_stats& pubs = pub_source();
    const double ops = static_cast<double>(std::max<std::uint64_t>(t.ops, 1));
    const double wall = static_cast<double>(std::max<std::uint64_t>(t.wall_ns, 1));
    result_.add("ops_per_s", ops_per_s(), "1/s");
    add_per_check_metrics(result_, cov_);
    result_.add("covering.checks_per_op", static_cast<double>(t.checks) / ops, "checks/op");
    result_.add("covering.busy_share", static_cast<double>(t.check_ns + t.mutate_ns) / wall,
                "ratio");
    result_.add("covering.mutate_us_per_op", static_cast<double>(t.mutate_ns) / 1e3 / ops, "us");
    result_.add("sfcarray.maint_compactions_per_op", static_cast<double>(t.compactions) / ops,
                "count/op");
    result_.add("network.subscribe_self_us_p50", median_of(subs.sub_self), "us");
    result_.add("network.unsubscribe_self_us_p50", median_of(t.unsub_self), "us");
    result_.add("network.reforwards_per_unsubscribe",
                ratio(static_cast<double>(t.reforwards), t.unsubs), "msg/op");
    result_.add("network.publish_self_us_p50", median_of(pubs.pub_self), "us");
    result_.add("routing_table.handle_event_us_per_publish",
                ratio(static_cast<double>(pubs.replay_ns), pubs.pubs) / 1e3, "us");
    result_.add("routing_table.hops_per_publish", ratio(static_cast<double>(pubs.hops), pubs.pubs),
                "hops");
    // The TCP layers are not on the in-process path.
    for (const auto& [name, unit] : std::initializer_list<std::pair<const char*, const char*>>{
             {"wire.encode_us_per_op", "us"},
             {"wire.decode_us_per_op", "us"},
             {"wire.bytes_per_op", "B"},
             {"wal.bytes_per_op", "B"},
             {"transport.residual_us_per_op", "us"},
             {"transport.publish_us_p99", "us"},
             {"transport.partial_writes_per_op", "count/op"},
             {"transport.reconnects", "count"},
             {"transport.heartbeats_missed", "count"},
             {"transport.daemon_rss_growth_kb_per_kop", "kB/kop"}})
      result_.add(name, 0, unit);
    result_.add("trace.unaccounted_share", 1.0 - static_cast<double>(t.attributed_ns) / wall,
                "ratio");
    return result_;
  }

 private:
  // Timed-phase ops per second. subscription_churn: the rate at the
  // stream's nominal op mix, one over the mix-weighted mean op time. A run
  // times only a few hundred churn ops, too few for steady batch rates, and
  // the share of subscribes drawn alone moves a plain ops-per-wall rate by
  // several percent. event_routing: the median of batch rates.
  double ops_per_s() const {
    if (!churn_) return rates_.median();
    const workload::churn_gen_options o = bench_stream_options();
    const phase_stats& t = timed_;
    const double mean_ns =
        (o.subscribe_weight * ratio(static_cast<double>(t.sub_ns), t.subs) +
         o.unsubscribe_weight * ratio(static_cast<double>(t.unsub_ns), t.unsubs) +
         o.publish_weight * ratio(static_cast<double>(t.pub_ns), t.pubs)) /
        (o.subscribe_weight + o.unsubscribe_weight + o.publish_weight);
    return mean_ns > 0 ? 1e9 / mean_ns : 0;
  }

  // Churn slice: the churn_gen stream after its warm-up prefix. Each op is
  // drawn before its own timed interval starts.
  void churn_slice(std::uint64_t slice_ns) {
    const std::uint64_t deadline = now_ns() + slice_ns;
    while (now_ns() < deadline && result_.correct) {
      const int broker = static_cast<int>(pick_.index(kBrokers));
      const workload::churn_op op = gen_->next();
      switch (op.kind) {
        case op_kind::subscribe: subscribe(timed_, broker, op); break;
        case op_kind::unsubscribe: unsubscribe(timed_, op.id); break;
        case op_kind::publish: publish(timed_, broker, op.ev); break;
      }
    }
  }

  // Publish slice: uniform events at uniformly chosen brokers.
  void publish_slice(std::uint64_t slice_ns) {
    const std::uint64_t deadline = now_ns() + slice_ns;
    while (now_ns() < deadline && result_.correct) {
      std::vector<std::pair<int, event>> batch;
      for (std::size_t i = 0; i < kPublishBatch; ++i) {
        const int broker = static_cast<int>(pick_.index(kBrokers));
        batch.push_back({broker, events_->next()});
      }
      std::uint64_t batch_ns = 0;
      for (const auto& [broker, ev] : batch) batch_ns += publish(timed_, broker, ev);
      rates_.batch(batch.size(), batch_ns);
    }
  }

  void begin() {
    mark_ = net_->metrics();
    mark_cov_ = {cov_.checks, cov_.check_ns, cov_.mutate_ns};
  }
  void end(phase_stats& p) {
    const network_metrics& m = net_->metrics();
    p.sub_msgs += m.subscription_messages - mark_.subscription_messages;
    p.event_msgs += m.event_messages - mark_.event_messages;
    p.reforwards += m.reforwards - mark_.reforwards;
    p.compactions += m.covering_maint_compactions - mark_.covering_maint_compactions;
    p.checks += cov_.checks - mark_cov_[0];
    p.check_ns += cov_.check_ns - mark_cov_[1];
    p.mutate_ns += cov_.mutate_ns - mark_cov_[2];
  }

  // Times one client op. The traced run also splits its wall time: covering
  // calls inside it, plus the layer time `replay` returns (run after the
  // op, outside its timing), are layer spans; the rest is self time.
  template <class F, class R>
  std::uint64_t timed_op(phase_stats& p, latency_hist& h, std::vector<double>& self, F&& op,
                         R&& replay) {
    const std::uint64_t cov0 = cov_.covering_ns(), shadow0 = cov_.shadow_ns;
    const std::uint64_t t0 = now_ns();
    op();
    const std::uint64_t wall = now_ns() - t0;
    h.add(wall);
    ++p.ops;
    if (cfg_.trace) {
      const std::uint64_t shadow = cov_.shadow_ns - shadow0;
      const std::uint64_t own = wall > shadow ? wall - shadow : 0;
      const std::uint64_t layer = cov_.covering_ns() - cov0 + replay();
      p.wall_ns += own;
      p.attributed_ns += std::min(layer, own);
      if (self.size() < kSelfSamples)
        self.push_back((static_cast<double>(own) - static_cast<double>(layer)) / 1e3);
    }
    return wall;
  }
  template <class F>
  std::uint64_t timed_op(phase_stats& p, latency_hist& h, std::vector<double>& self, F&& op) {
    return timed_op(p, h, self, std::forward<F>(op), [] { return std::uint64_t{0}; });
  }

  std::uint64_t subscribe(phase_stats& p, int broker, const workload::churn_op& op) {
    ++result_.attempted;
    ++p.subs;
    try {
      sub_id id = 0;
      const std::uint64_t wall =
          timed_op(p, p.sub, p.sub_self, [&] { id = net_->subscribe(broker, op.sub); });
      by_gen_[op.id] = id;
      live_[id] = op.sub;
      p.sub_ns += wall;
      return wall;
    } catch (const std::exception& e) {
      result_.fail(std::string("subscribe: ") + e.what());
      return 0;
    }
  }

  std::uint64_t unsubscribe(phase_stats& p, std::uint64_t gen_id) {
    ++result_.attempted;
    ++p.unsubs;
    const auto it = by_gen_.find(gen_id);
    if (it == by_gen_.end()) {
      result_.fail("unsubscribe: generator victim " + std::to_string(gen_id) + " is not live");
      return 0;
    }
    try {
      bool ok = false;
      const std::uint64_t wall =
          timed_op(p, p.unsub, p.unsub_self, [&] { ok = net_->unsubscribe(it->second); });
      if (!ok)
        result_.fail("unsubscribe: the network did not know id " + std::to_string(it->second));
      live_.erase(it->second);
      by_gen_.erase(it);
      p.unsub_ns += wall;
      return wall;
    } catch (const std::exception& e) {
      result_.fail(std::string("unsubscribe: ") + e.what());
      return 0;
    }
  }

  std::uint64_t publish(phase_stats& p, int broker, const event& ev) {
    ++result_.attempted;
    ++p.pubs;
    try {
      // The traced run replays the publish's hops afterwards on the same
      // state (events mutate no routing state), so the publish itself runs
      // exactly as in the untraced run.
      std::vector<sub_id> got;
      const std::uint64_t wall =
          timed_op(p, p.pub, p.pub_self, [&] { got = net_->publish(broker, ev); },
                   [&] { return replay_hops(p, broker, ev); });
      if (got != expected_delivery(live_, ev))
        result_.fail("publish at broker " + std::to_string(broker) +
                     ": the delivered set differs from ground truth");
      p.pub_ns += wall;
      return wall;
    } catch (const std::exception& e) {
      result_.fail(std::string("publish: ") + e.what());
      return 0;
    }
  }

  // Walks one event's reverse-path forwarding tree through
  // broker::handle_event on const state, timing each hop.
  std::uint64_t replay_hops(phase_stats& p, int origin, const event& ev) {
    std::uint64_t total = 0;
    std::vector<std::pair<int, int>> frontier{{origin, kLocalLink}};
    while (!frontier.empty()) {
      const auto [b, from] = frontier.back();
      frontier.pop_back();
      const std::uint64_t t0 = now_ns();
      const auto action = net_->broker_at(b).handle_event(from, ev);
      total += now_ns() - t0;
      ++p.hops;
      for (const int link : action.forward_links) frontier.push_back({link, b});
    }
    p.replay_ns += total;
    return total;
  }

  run_config cfg_;
  bool churn_;
  schema schema_ = bench_schema();
  std::unique_ptr<workload::churn_gen> gen_;
  std::unique_ptr<workload::event_gen> events_;
  rng pick_{1};

  covering_trace cov_;  // fed only by the traced run's decorators
  std::unique_ptr<network> net_;
  std::map<std::uint64_t, sub_id> by_gen_;  // churn_gen id -> network id
  std::map<sub_id, subscription> live_;     // the oracle's subscription list
  network_metrics mark_;
  std::array<std::uint64_t, 3> mark_cov_{};

  run_result result_;
  double setup_s_ = 0;
  double routing_entries_ = 0;  // after set-up, mean over the rounds
  rate_meter rates_;
  phase_stats setup_, timed_, probe_;
};

run_result run_inproc(const run_config& cfg, bool churn) {
  auto b = std::make_unique<inproc_bench>(cfg, churn);
  b->run();
  return cfg.trace ? b->per_layer() : b->end_to_end();
}

}  // namespace

run_result run_subscription_churn(const run_config& cfg) { return run_inproc(cfg, true); }
run_result run_event_routing(const run_config& cfg) { return run_inproc(cfg, false); }

}  // namespace perfbench
