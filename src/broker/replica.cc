#include "broker/replica.h"

#include <algorithm>
#include <exception>
#include <optional>

#include "broker/codec.h"
#include "util/check.h"

namespace subcover {

struct replica::op_state {
  int parent_link = kLocalLink;  // link the message arrived on; kLocalLink = client
  std::uint64_t parent_seq = 0;  // seq to ack on the parent link
  std::uint64_t client = 0;      // done token of a client op; 0 = nobody waits
  int pending_acks = 0;
  std::vector<sub_id> delivered;  // local + aggregated subtree deliveries
};

namespace {

// Op ids are ((origin broker id + 1) << kOriginShift) | per-origin counter.
constexpr int kOriginShift = 40;
constexpr std::uint64_t kCounterMask = (std::uint64_t{1} << kOriginShift) - 1;

// A subscription record's frames in the handler's order: a subscribe's
// forwards, or an unsubscribe's withdrawals and then its re-forwards.
std::vector<std::pair<int, wire_msg>> emissions(const wal_record& r) {
  std::vector<std::pair<int, wire_msg>> out;
  const auto add = [&](int link, msg_type t, sub_id id, const subscription& body) {
    wire_msg m;
    m.type = t;
    m.op = r.op;
    m.id = id;
    m.body = body;
    out.emplace_back(link, std::move(m));
  };
  for (const int link : r.forwarded_links) add(link, msg_type::subscribe, r.id, r.body);
  for (const int link : r.withdrawn_links) add(link, msg_type::unsubscribe, r.id, {});
  for (const auto& [link, sub] : r.reforwards)
    add(link, msg_type::subscribe, sub.first, sub.second);
  return out;
}

}  // namespace

replica::replica(broker& b, broker_wal& wal, network_metrics& metrics, replica_sink& out,
                 std::uint64_t checkpoint_every)
    : broker_(b), wal_(wal), metrics_(metrics), out_(out), checkpoint_every_(checkpoint_every) {
  const auto rec = wal_.recover();
  broker_.restore(rec);
  restored_ = !rec.records.empty() || !rec.aux.empty() || !(rec.snapshot == broker_snapshot{});
  replayed_ = rec.records.size();
  load_aux(rec.aux);
  for (const auto& r : rec.records) {
    auto& next = applied_[r.op][r.from];
    next = std::max(next, r.seq + 1);
    auto seqs = r.send_base;
    for (const auto& e : emissions(r)) ++seqs[e.first];
    merge_send_seqs(r.op, seqs);
    records_.emplace(std::tuple{r.op, r.from, r.seq}, r);
  }
  // A reused op id would meet dedup state the neighbours still hold.
  const std::uint64_t mine = static_cast<std::uint64_t>(broker_.id() + 1) << kOriginShift;
  for (const auto& [op, by_from] : applied_)
    if ((op & ~kCounterMask) == mine) op_counter_ = std::max(op_counter_, op & kCounterMask);
  // Resume client-origin records: their client died with the previous
  // incarnation. Completed ones cost suppressed duplicates and empty
  // re-acks; an interrupted one converges. Event receipts carry no payload.
  for (const auto& [key, r] : records_) {
    if (r.from != kLocalLink || r.k == wal_record::kind::event_receipt) continue;
    auto st = std::make_unique<op_state>();
    emit_record(r, *st);
    // Not settle(): its checkpoint would clear records_ under this loop.
    if (st->pending_acks > 0) active_.emplace(op_key{r.op, 0}, std::move(st));
  }
  metrics_.wal_bytes = wal_.bytes_appended();
}

replica::~replica() = default;

std::uint64_t replica::client_op(std::uint64_t client, wire_msg m) {
  m.op = (static_cast<std::uint64_t>(broker_.id() + 1) << kOriginShift) | ++op_counter_;
  m.seq = 0;
  auto st = std::make_unique<op_state>();
  st->client = client;
  try {
    process_fresh(kLocalLink, m, *st);
  } catch (const std::exception&) {
    // Malformed client input (bad event width, unknown id) fails before
    // anything is logged: report it and carry on.
    out_.done(client, m.op, 1, {});
    return m.op;
  }
  settle(m.op, std::move(st));
  return m.op;
}

replica::verdict replica::on_data(int from, const wire_msg& m) {
  std::uint64_t next = 0;
  if (const auto oit = applied_.find(m.op); oit != applied_.end())
    if (const auto fit = oit->second.find(from); fit != oit->second.end()) next = fit->second;
  if (m.seq > next) return verdict::gap;

  auto st = std::make_unique<op_state>();
  st->parent_link = from;
  st->parent_seq = m.seq;
  if (m.seq == next) {
    process_fresh(from, m, *st);
    settle(m.op, std::move(st));
    return verdict::fresh;
  }
  ++metrics_.duplicates_suppressed;
  if (active_.count({m.op, m.seq}) != 0) return verdict::duplicate;  // our ack will cover it
  if (m.type == msg_type::publish) {
    emit_publish(from, m, event(broker_.message_schema(), m.values), *st, false);
  } else if (const auto it = records_.find({m.op, from, m.seq}); it != records_.end()) {
    emit_record(it->second, *st);
  }
  // else: checkpointed subscribe/unsubscribe; the empty re-ack is all the
  // parent needs.
  settle(m.op, std::move(st));
  return verdict::duplicate;
}

void replica::process_fresh(int from, const wire_msg& m, op_state& st) {
  wal_record r;
  r.op = m.op;
  r.from = from;
  r.seq = m.seq;
  std::optional<event> e;
  switch (m.type) {
    case msg_type::subscribe:
      r.k = wal_record::kind::subscribe;
      r.id = m.id;
      r.body = m.body;
      r.forwarded_links = broker_.handle_subscribe(from, m.id, m.body, metrics_).forward_links;
      break;
    case msg_type::unsubscribe: {
      auto action = broker_.handle_unsubscribe(from, m.id, metrics_);
      r.k = wal_record::kind::unsubscribe;
      r.id = m.id;
      r.withdrawn_links = std::move(action.forward_links);
      r.reforwards = std::move(action.reforwards);
      break;
    }
    case msg_type::publish:
      r.k = wal_record::kind::event_receipt;
      e.emplace(broker_.message_schema(), m.values);  // validates before the append
      break;
    default:
      SUBCOVER_CHECK(false, "replica: non-data message");
  }
  if (const auto it = send_seq_.find(m.op); it != send_seq_.end()) r.send_base = it->second;
  wal_.append(r);
  metrics_.wal_bytes = wal_.bytes_appended();
  applied_[m.op][from] = m.seq + 1;
  const wal_record& logged =
      records_.emplace(std::tuple{m.op, from, m.seq}, std::move(r)).first->second;
  if (e) {
    emit_publish(from, m, *e, st, true);
    return;
  }
  metrics_.subscription_messages += logged.forwarded_links.size() + logged.reforwards.size();
  metrics_.unsubscription_messages += logged.withdrawn_links.size();
  metrics_.reforwards += logged.reforwards.size();
  emit_record(logged, st);
}

void replica::emit_record(const wal_record& r, op_state& st) {
  auto seqs = r.send_base;
  for (auto& [link, m] : emissions(r)) {
    m.seq = seqs[link]++;
    send_data(link, std::move(m), st);
  }
  merge_send_seqs(r.op, seqs);
}

void replica::emit_publish(int from, const wire_msg& m, const event& e, op_state& st,
                           bool fresh) {
  // Events mutate no routing state and ops run one at a time, so the
  // recompute of a duplicate sees the tables the original saw.
  const auto action = broker_.handle_event(from, e);
  st.delivered.insert(st.delivered.end(), action.local_deliveries.begin(),
                      action.local_deliveries.end());
  if (fresh) {
    metrics_.deliveries += action.local_deliveries.size();
    metrics_.event_messages += action.forward_links.size();
  }
  for (const int link : action.forward_links) {
    wire_msg out;
    out.type = msg_type::publish;
    out.op = m.op;
    out.seq = 0;  // an event crosses each link once per op
    out.values = m.values;
    send_data(link, std::move(out), st);
  }
}

void replica::send_data(int link, wire_msg m, op_state& st) {
  ++st.pending_acks;
  ledger_[link].push_back({m.op, m.seq, st.parent_seq, m});
  out_.send(link, m);
}

void replica::settle(std::uint64_t op, std::unique_ptr<op_state> st) {
  if (st->pending_acks == 0)
    complete_op(op, *st);
  else
    active_.emplace(op_key{op, st->parent_seq}, std::move(st));
}

void replica::on_ack(int from, const wire_msg& m) {
  auto& ledger = ledger_[from];
  const auto it = std::find_if(ledger.begin(), ledger.end(), [&](const ledger_entry& e) {
    return e.op == m.op && e.seq == m.seq;
  });
  if (it == ledger.end()) return;  // stale re-ack of an already-acked send
  const auto ait = active_.find({m.op, it->owner_seq});
  ledger.erase(it);
  if (ait == active_.end()) return;
  op_state& st = *ait->second;
  st.delivered.insert(st.delivered.end(), m.delivered.begin(), m.delivered.end());
  if (--st.pending_acks > 0) return;
  const auto owned = std::move(ait->second);
  active_.erase(ait);
  complete_op(m.op, *owned);
}

void replica::complete_op(std::uint64_t op, op_state& st) {
  std::sort(st.delivered.begin(), st.delivered.end());
  if (st.parent_link == kLocalLink) {
    if (st.client != 0) out_.done(st.client, op, 0, st.delivered);
  } else {
    wire_msg ack;
    ack.type = msg_type::ack;
    ack.op = op;
    ack.seq = st.parent_seq;
    ack.delivered = std::move(st.delivered);
    out_.send(st.parent_link, ack);
  }
  maybe_checkpoint(checkpoint_every_);
}

void replica::link_up(int link) {
  for (const auto& e : ledger_[link]) out_.send(link, e.msg);
}

bool replica::idle() const {
  return active_.empty() && std::all_of(ledger_.begin(), ledger_.end(),
                                        [](const auto& l) { return l.second.empty(); });
}

void replica::merge_send_seqs(std::uint64_t op, const std::map<int, std::uint64_t>& seqs) {
  if (seqs.empty()) return;
  auto& cur = send_seq_[op];
  for (const auto& [link, next] : seqs) cur[link] = std::max(cur[link], next);
}

void replica::checkpoint_if_idle() { maybe_checkpoint(0); }

void replica::maybe_checkpoint(std::uint64_t min_records) {
  if (checkpoint_every_ == 0 || !active_.empty()) return;
  if (wal_.records_since_snapshot() < min_records) return;
  // Quiescent: every op seen here is subtree-complete, so no replay needs
  // the records this drops.
  wal_.write_snapshot(broker_.snapshot(), encode_aux());
  records_.clear();
  metrics_.wal_bytes = wal_.bytes_appended();
}

// aux := table(applied_) table(send_seq_); table := n (op, link, next)^n
std::vector<std::uint8_t> replica::encode_aux() const {
  std::vector<std::uint8_t> out;
  for (const auto* table : {&applied_, &send_seq_}) {
    std::uint64_t entries = 0;
    for (const auto& [op, by_link] : *table) entries += by_link.size();
    codec::put_varint(out, entries);
    for (const auto& [op, by_link] : *table)
      for (const auto& [link, next] : by_link) {
        codec::put_varint(out, op);
        codec::put_signed(out, link);
        codec::put_varint(out, next);
      }
  }
  return out;
}

void replica::load_aux(const std::vector<std::uint8_t>& aux) {
  if (aux.empty()) return;
  codec::basic_byte_reader<wal_error> in{aux.data(), aux.data() + aux.size()};
  for (auto* table : {&applied_, &send_seq_}) {
    const auto entries = in.varint();
    for (std::uint64_t i = 0; i < entries; ++i) {
      const auto op = in.varint();
      const auto link = static_cast<int>(in.signed_varint());
      auto& next = (*table)[op][link];
      next = std::max(next, in.varint());
    }
  }
  if (!in.done()) throw wal_error("wal: trailing bytes in replica aux blob");
}

}  // namespace subcover
