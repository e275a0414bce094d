#include "broker/fault_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace subcover {

namespace {

void check_prob(double p, const char* name) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument(std::string("fault_engine: ") + name + " must be in [0, 1]");
}

// The token the engine's client operations carry (0 would mean orphaned).
constexpr std::uint64_t kClient = 1;

}  // namespace

fault_engine::fault_engine(const topology& t, fault_options opts, std::vector<broker>& brokers,
                           network_metrics& metrics)
    : topology_(t), opts_(opts), brokers_(brokers), metrics_(metrics), rng_(opts.seed) {
  check_prob(opts_.drop_prob, "drop_prob");
  check_prob(opts_.duplicate_prob, "duplicate_prob");
  check_prob(opts_.delay_prob, "delay_prob");
  check_prob(opts_.crash_prob, "crash_prob");
  if (opts_.max_retries < 0)
    throw std::invalid_argument("fault_engine: max_retries must be >= 0");
  if (opts_.ack_timeout == 0)
    throw std::invalid_argument("fault_engine: ack_timeout must be >= 1");
  if (opts_.max_delay == 0) throw std::invalid_argument("fault_engine: max_delay must be >= 1");
  const auto n = brokers_.size();
  wals_.resize(n);
  ports_.resize(n);
  replicas_.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    ports_[b].engine = this;
    ports_[b].broker = static_cast<int>(b);
    replicas_[b] = std::make_unique<replica>(brokers_[b], wals_[b], metrics_, ports_[b],
                                             opts_.checkpoint_every);
  }
}

broker_wal& fault_engine::wal_of(int b) {
  return wals_.at(static_cast<std::size_t>(b));
}

std::size_t fault_engine::recover_broker(int b) {
  SUBCOVER_CHECK(b >= 0 && static_cast<std::size_t>(b) < brokers_.size(),
                 "fault_engine: bad broker id");
  replicas_[static_cast<std::size_t>(b)].reset();
  restart(b);
  drain();
  return replicas_[static_cast<std::size_t>(b)]->replayed();
}

void fault_engine::run_subscribe(int origin, sub_id id, const subscription& s) {
  wire_msg m;
  m.type = msg_type::subscribe;
  m.id = id;
  m.body = s;
  run_op(origin, std::move(m));
}

void fault_engine::run_unsubscribe(int origin, sub_id id) {
  wire_msg m;
  m.type = msg_type::unsubscribe;
  m.id = id;
  run_op(origin, std::move(m));
}

std::vector<sub_id> fault_engine::run_publish(int origin, const event& e) {
  wire_msg m;
  m.type = msg_type::publish;
  for (int i = 0; i < e.attribute_count(); ++i) m.values.push_back(e.value(i));
  run_op(origin, std::move(m));
  return std::move(delivered_);
}

void fault_engine::run_op(int origin, wire_msg m) {
  if (!heap_.empty()) {
    // The previous operation threw (retry exhaustion): drop its hops,
    // restart the brokers it left down, and reconnect every link.
    heap_ = {};
    pending_.clear();
    for (std::size_t b = 0; b < replicas_.size(); ++b)
      if (replicas_[b] == nullptr) restart(static_cast<int>(b));
    for (std::size_t b = 0; b < replicas_.size(); ++b)
      for (const int n : topology_.neighbors(static_cast<int>(b))) replicas_[b]->link_up(n);
    drain();
  }

  // The client -> broker hop is reliable and immediate: faults are a
  // property of the inter-broker overlay links.
  done_ = false;
  delivered_.clear();
  op_ = replicas_[static_cast<std::size_t>(origin)]->client_op(kClient, std::move(m));
  drain();
  op_ = 0;
  SUBCOVER_CHECK(done_, "fault_engine: operation never completed at its origin");
  if (status_ != 0) throw std::runtime_error("fault_engine: operation rejected at its origin");
  for (const auto& r : replicas_)
    SUBCOVER_CHECK(r->idle(), "fault_engine: quiescent with unacked messages");
}

void fault_engine::drain() {
  while (!heap_.empty()) {
    sim_event e = heap_.top();
    heap_.pop();
    now_ = e.time;
    dispatch(e);
  }
  // Each replica reports its own WAL; the network's figure is the sum.
  std::uint64_t total = 0;
  for (const auto& w : wals_) total += w.bytes_appended();
  metrics_.wal_bytes = total;
}

void fault_engine::push_event(sim_event e) {
  e.order = order_++;
  heap_.push(std::move(e));
}

std::uint64_t fault_engine::latency() {
  std::uint64_t ticks = 1;
  if (rng_.bernoulli(opts_.delay_prob)) ticks += rng_.uniform(1, opts_.max_delay);
  return ticks;
}

void fault_engine::port::send(int link, const wire_msg& m) {
  // A link to a down broker carries nothing; the ledger replays on restart.
  if (engine->replicas_[static_cast<std::size_t>(link)] == nullptr) return;
  engine->send_hop({broker, link, 0, m});
}

void fault_engine::port::done(std::uint64_t, std::uint64_t, std::uint8_t status,
                              const std::vector<sub_id>& delivered) {
  engine->done_ = true;
  engine->status_ = status;
  engine->delivered_ = delivered;
}

void fault_engine::dispatch(const sim_event& e) {
  switch (e.k) {
    case sim_event::kind::deliver:
      deliver(e.h);
      break;
    case sim_event::kind::hop_ack:
      pending_.erase(e.uid);  // absent = a duplicate's redundant hop ack
      break;
    case sim_event::kind::timeout: {
      const auto it = pending_.find(e.uid);
      if (it == pending_.end()) break;  // acked or cancelled in the meantime
      if (it->second.retries >= opts_.max_retries)
        throw std::runtime_error("fault_engine: retries exhausted for message to broker " +
                                 std::to_string(it->second.h.to));
      ++it->second.retries;
      ++metrics_.retries;
      transmit(it->second.h);
      sim_event next;
      next.k = sim_event::kind::timeout;
      next.uid = e.uid;
      next.time = now_ + (opts_.ack_timeout << it->second.retries);
      push_event(std::move(next));
      break;
    }
    case sim_event::kind::restart:
      restart(e.broker);
      break;
  }
}

void fault_engine::send_hop(hop h) {
  h.uid = ++next_uid_;
  pending_.emplace(h.uid, pending_hop{h, 0});
  sim_event timeout;
  timeout.k = sim_event::kind::timeout;
  timeout.uid = h.uid;
  timeout.time = now_ + opts_.ack_timeout;
  push_event(std::move(timeout));
  transmit(h);
}

void fault_engine::transmit(const hop& h) {
  if (!rng_.bernoulli(opts_.drop_prob)) {
    sim_event e;
    e.k = sim_event::kind::deliver;
    e.time = now_ + latency();
    e.h = h;
    push_event(std::move(e));
  }
  if (rng_.bernoulli(opts_.duplicate_prob)) {
    sim_event e;
    e.k = sim_event::kind::deliver;
    e.time = now_ + latency();
    e.h = h;
    push_event(std::move(e));
  }
}

void fault_engine::deliver(const hop& h) {
  replica* r = replicas_[static_cast<std::size_t>(h.to)].get();
  if (r == nullptr) return;  // down: the frame is lost with the connection
  if (h.frame.type == msg_type::ack) {
    r->on_ack(h.from, h.frame);
  } else {
    bool crash_after = false;
    if (h.frame.op == op_ && rng_.bernoulli(opts_.crash_prob)) {
      if (rng_.bernoulli(0.5)) {
        crash(h.to);  // the frame goes down with the broker
        return;
      }
      crash_after = true;  // record durable, ack lost: the re-emission path
    }
    if (r->on_data(h.from, h.frame) == replica::verdict::gap) return;  // no hop ack: resent
    if (crash_after) {
      crash(h.to);
      return;
    }
  }
  if (rng_.bernoulli(opts_.drop_prob)) return;  // lost hop ack: the sender retries
  sim_event e;
  e.k = sim_event::kind::hop_ack;
  e.uid = h.uid;
  e.time = now_ + latency();
  push_event(std::move(e));
}

void fault_engine::crash(int b) {
  replicas_[static_cast<std::size_t>(b)].reset();
  std::erase_if(pending_, [b](const auto& p) { return p.second.h.from == b || p.second.h.to == b; });
  sim_event e;
  e.k = sim_event::kind::restart;
  e.broker = b;
  e.time = now_ + opts_.recovery_delay;
  push_event(std::move(e));
}

void fault_engine::restart(int b) {
  const auto i = static_cast<std::size_t>(b);
  replicas_[i] =
      std::make_unique<replica>(brokers_[i], wals_[i], metrics_, ports_[i], opts_.checkpoint_every);
  ++metrics_.recoveries;
  for (const int n : topology_.neighbors(b))
    if (replicas_[static_cast<std::size_t>(n)] != nullptr)
      replicas_[static_cast<std::size_t>(n)]->link_up(b);
}

}  // namespace subcover
