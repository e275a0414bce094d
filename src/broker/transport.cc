#include "broker/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "broker/codec.h"
#include "util/check.h"

namespace subcover {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SUBCOVER_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 "transport: fcntl O_NONBLOCK failed");
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &a.sin_addr) != 1)
    throw std::invalid_argument("transport: bad IPv4 address: " + host);
  return a;
}

}  // namespace

// --- connection and op bookkeeping -------------------------------------------

struct broker_daemon::conn {
  int fd = -1;
  enum class kind : std::uint8_t { unknown, peer, client } k = kind::unknown;
  int peer_id = -1;
  bool connecting = false;           // outbound connect(2) still in flight
  std::int64_t connect_deadline = 0;  // unknown/connecting conns expire
  std::int64_t last_rx = 0;
  std::int64_t last_tx = 0;
  frame_decoder dec;
  std::vector<std::uint8_t> out;  // unwritten bytes, resumed on POLLOUT
  std::size_t out_pos = 0;
  bool dead = false;
};

struct broker_daemon::op_state {
  int parent_link = kLocalLink;  // peer the op arrived from; kLocalLink = client
  std::uint64_t parent_seq = 0;  // seq to ack on the parent channel
  conn* client = nullptr;        // client_done recipient; null = orphaned
  int pending_acks = 0;
  std::vector<sub_id> delivered;  // local + aggregated subtree deliveries
  // Part of an unsubscribe arriving from a peer: the withdrawal (seq 0) or
  // a re-forward (seq >= 1). The parent may send further re-forwards of the
  // op after this state completed, so the op's send seqs must outlive it.
  bool more_may_follow = false;
};

// --- construction / recovery -------------------------------------------------

namespace {

broker_wal open_wal(const transport_options& o) {
  if (o.wal_dir.empty()) return broker_wal{};
  return broker_wal::in_directory(o.wal_dir, o.broker_id, o.wal);
}

std::vector<int> peer_ids(const transport_options& o) {
  std::vector<int> ids;
  ids.reserve(o.peers.size());
  for (const auto& p : o.peers) ids.push_back(p.id);
  return ids;
}

}  // namespace

broker_daemon::broker_daemon(const schema& s, const covering_index_factory& factory,
                             transport_options opts)
    : schema_(s),
      factory_(factory),
      opts_(std::move(opts)),
      wal_(open_wal(opts_)),
      broker_(0, s, {}, factory, opts_.broker),
      rng_(opts_.seed ^ (static_cast<std::uint64_t>(opts_.broker_id) * 0x9e3779b97f4a7c15ULL)) {
  const auto rec = wal_.recover();
  broker_ = broker::recover(opts_.broker_id, schema_, peer_ids(opts_), factory_, opts_.broker, rec);
  const bool had_state =
      !rec.records.empty() || !rec.aux.empty() || !(rec.snapshot == broker_snapshot{});
  if (had_state) ++metrics_.recoveries;
  for (const auto& r : rec.records) {
    note_applied(r.op, r.from, r.seq);
    records_[r.op] = r;
  }
  load_dedup_aux(rec.aux);
  // Resume the local op-id counter past every op this broker ever
  // originated (applied_ holds both post-snapshot records and the aux
  // blob's checkpointed keys). Without this a restarted daemon would mint
  // op ids its neighbors already have dedup state for, and they would
  // replay stale records instead of applying the fresh operations.
  const std::uint64_t mine = static_cast<std::uint64_t>(opts_.broker_id + 1) << 40;
  for (const auto& [op, froms] : applied_)
    if ((op & ~((std::uint64_t{1} << 40) - 1)) == mine)
      op_counter_ = std::max(op_counter_, op & ((std::uint64_t{1} << 40) - 1));
  for (const auto& p : opts_.peers) peers_[p.id].addr = p;
  open_listener();
  resume_client_ops();
}

broker_daemon::~broker_daemon() {
  for (auto& c : conns_)
    if (c->fd >= 0) ::close(c->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void broker_daemon::open_listener() {
  if (opts_.listen_fd >= 0) {
    listen_fd_ = opts_.listen_fd;  // adopted: pre-bound by the supervisor
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SUBCOVER_CHECK(listen_fd_ >= 0, "transport: socket failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    auto addr = make_addr(opts_.listen_host, opts_.listen_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error(std::string("transport: bind failed: ") + std::strerror(errno));
    SUBCOVER_CHECK(::listen(listen_fd_, 32) == 0, "transport: listen failed");
  }
  set_nonblocking(listen_fd_);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  SUBCOVER_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
                 "transport: getsockname failed");
  listen_port_ = ntohs(bound.sin_port);
}

std::int64_t broker_daemon::now_ms() const {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

// --- event loop --------------------------------------------------------------

void broker_daemon::run() {
  while (step(50)) {
  }
}

bool broker_daemon::step(int timeout_ms) {
  if (stopping_) return false;
  poll_once(timeout_ms);
  return !stopping_;
}

void broker_daemon::poll_once(int timeout_ms) {
  const std::int64_t now = now_ms();
  start_connects(now);
  heartbeats(now);

  std::vector<pollfd> fds;
  std::vector<conn*> who;
  fds.push_back({listen_fd_, POLLIN, 0});
  who.push_back(nullptr);
  for (auto& c : conns_) {
    if (c->dead) continue;
    short ev = POLLIN;
    if (c->connecting || c->out_pos < c->out.size()) ev |= POLLOUT;
    fds.push_back({c->fd, ev, 0});
    who.push_back(c.get());
  }

  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n < 0) {
    SUBCOVER_CHECK(errno == EINTR, "transport: poll failed");
    return;
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    if (who[i] == nullptr) {
      accept_ready();
      continue;
    }
    conn& c = *who[i];
    if (c.dead) continue;
    if (c.connecting) {
      if (fds[i].revents & (POLLOUT | POLLERR | POLLHUP)) finish_connect(c);
      continue;
    }
    if (fds[i].revents & (POLLERR | POLLHUP)) {
      // POLLHUP with readable bytes still pending: drain them first.
      if ((fds[i].revents & POLLIN) == 0) {
        close_conn(c, "hangup");
        continue;
      }
    }
    if (fds[i].revents & POLLIN) read_ready(c);
    if (!c.dead && (fds[i].revents & POLLOUT)) write_ready(c);
  }

  // Reap closed connections (pointers into conns_ die here; op_state client
  // pointers were nulled in close_conn).
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const std::unique_ptr<conn>& c) { return c->dead; }),
               conns_.end());
}

void broker_daemon::start_connects(std::int64_t now) {
  for (auto& [id, slot] : peers_) {
    if (id >= opts_.broker_id) continue;  // lower id accepts, higher dials
    if (slot.c != nullptr) continue;
    bool connecting = false;
    for (const auto& c : conns_)
      if (!c->dead && c->connecting && c->peer_id == id) connecting = true;
    if (connecting || now < slot.next_connect_ms) continue;

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    set_nonblocking(fd);
    set_nodelay(fd);
    auto addr = make_addr(slot.addr.host, slot.addr.port);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(fd);
      slot.backoff_exp = std::min(slot.backoff_exp + 1, 8);
      const std::int64_t backoff =
          std::min<std::int64_t>(opts_.reconnect_cap_ms,
                                 std::int64_t{opts_.reconnect_base_ms} << slot.backoff_exp);
      slot.next_connect_ms =
          now + backoff + static_cast<std::int64_t>(rng_.uniform(
                              0, static_cast<std::uint64_t>(opts_.reconnect_base_ms)));
      continue;
    }
    auto c = std::make_unique<conn>();
    c->fd = fd;
    c->peer_id = id;
    c->connecting = true;
    c->connect_deadline = now + opts_.connect_timeout_ms;
    c->last_rx = c->last_tx = now;
    conns_.push_back(std::move(c));
    if (rc == 0) finish_connect(*conns_.back());
  }
}

void broker_daemon::finish_connect(conn& c) {
  int err = 0;
  socklen_t len = sizeof err;
  ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  const int id = c.peer_id;
  if (err != 0) {
    close_conn(c, "connect failed");
    return;
  }
  c.connecting = false;
  // The initiator introduces itself; the acceptor identifies us by this
  // frame. We already know whom we dialed, so no hello comes back.
  wire_msg hello;
  hello.type = msg_type::hello;
  hello.sender = opts_.broker_id;
  queue_bytes(c, frame_msg(hello));
  identify_peer(c, id);
}

void broker_daemon::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or a transient error: back to poll
    set_nonblocking(fd);
    set_nodelay(fd);
    auto c = std::make_unique<conn>();
    c->fd = fd;
    const auto now = now_ms();
    c->last_rx = c->last_tx = now;
    // An accepted connection must identify (hello) or speak client protocol
    // before the accept timeout, or it is dropped.
    c->connect_deadline = now + opts_.connect_timeout_ms;
    conns_.push_back(std::move(c));
  }
}

void broker_daemon::identify_peer(conn& c, int peer_id) {
  const auto it = peers_.find(peer_id);
  if (it == peers_.end()) {
    close_conn(c, "hello from unknown broker");
    return;
  }
  auto& slot = it->second;
  if (slot.c != nullptr && slot.c != &c) close_conn(*slot.c, "superseded");
  c.k = conn::kind::peer;
  c.peer_id = peer_id;
  slot.c = &c;
  if (slot.ever_connected) ++metrics_.reconnects;
  slot.ever_connected = true;
  slot.backoff_exp = 0;
  flush_ledger(slot);
}

void broker_daemon::flush_ledger(peer_slot& p) {
  // Replay every unacked data message, oldest first. The receiver's
  // (op, from, seq) dedup turns the already-applied prefix into re-acks.
  for (const auto& e : p.unacked) queue_bytes(*p.c, frame_msg(e.msg));
}

void broker_daemon::close_conn(conn& c, const char* /*why*/) {
  if (c.dead) return;
  ::close(c.fd);
  c.fd = -1;
  c.dead = true;
  if (c.k == conn::kind::peer) {
    auto& slot = peers_[c.peer_id];
    if (slot.c == &c) {
      slot.c = nullptr;
      if (c.peer_id < opts_.broker_id) {
        slot.backoff_exp = std::min(slot.backoff_exp + 1, 8);
        const std::int64_t backoff =
            std::min<std::int64_t>(opts_.reconnect_cap_ms,
                                   std::int64_t{opts_.reconnect_base_ms} << slot.backoff_exp);
        slot.next_connect_ms =
            now_ms() + backoff + static_cast<std::int64_t>(rng_.uniform(
                                     0, static_cast<std::uint64_t>(opts_.reconnect_base_ms)));
      }
    }
  }
  // Orphan any operation still owing this client its client_done.
  for (auto& [key, st] : active_)
    if (st->client == &c) st->client = nullptr;
}

void broker_daemon::queue_bytes(conn& c, const std::vector<std::uint8_t>& bytes) {
  if (c.dead) return;
  c.out.insert(c.out.end(), bytes.begin(), bytes.end());
  if (!c.connecting) write_ready(c);  // eager flush; remainder waits for POLLOUT
}

void broker_daemon::write_ready(conn& c) {
  while (c.out_pos < c.out.size()) {
    const std::size_t want = c.out.size() - c.out_pos;
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos, want, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      close_conn(c, "write error");
      return;
    }
    c.out_pos += static_cast<std::size_t>(w);
    metrics_.bytes_on_wire += static_cast<std::uint64_t>(w);
    c.last_tx = now_ms();
    if (static_cast<std::size_t>(w) < want) ++metrics_.partial_writes;
  }
  c.out.clear();
  c.out_pos = 0;
}

void broker_daemon::read_ready(conn& c) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      close_conn(c, "read error");
      return;
    }
    if (r == 0) {
      close_conn(c, "peer closed");
      return;
    }
    c.last_rx = now_ms();
    metrics_.bytes_on_wire += static_cast<std::uint64_t>(r);
    c.dec.feed(buf, static_cast<std::size_t>(r));
    try {
      while (auto payload = c.dec.next()) {
        handle_frame(c, *payload);
        if (c.dead) return;
      }
    } catch (const wire_error&) {
      // Torn or corrupt frame: the stream cannot be trusted past this
      // point. Resynchronize by reconnect — the replayed ledger carries
      // everything that matters.
      close_conn(c, "corrupt frame");
      return;
    }
    if (static_cast<std::size_t>(r) < sizeof buf) break;
  }
}

void broker_daemon::heartbeats(std::int64_t now) {
  for (auto& c : conns_) {
    if (c->dead) continue;
    if (c->connecting || c->k == conn::kind::unknown) {
      if (now >= c->connect_deadline) close_conn(*c, "connect/identify timeout");
      continue;
    }
    if (c->k != conn::kind::peer) continue;
    if (now - c->last_rx >= opts_.peer_timeout_ms) {
      ++metrics_.heartbeats_missed;
      close_conn(*c, "peer silent");
      continue;
    }
    if (now - c->last_tx >= opts_.heartbeat_ms) {
      wire_msg hb;
      hb.type = msg_type::heartbeat;
      queue_bytes(*c, frame_msg(hb));
    }
  }
}

// --- protocol dispatch -------------------------------------------------------

void broker_daemon::handle_frame(conn& c, const std::vector<std::uint8_t>& payload) {
  const wire_msg m = decode_msg(payload.data(), payload.size());
  if (c.k == conn::kind::unknown) {
    if (m.type == msg_type::hello) {
      identify_peer(c, m.sender);
      return;
    }
    c.k = conn::kind::client;  // first frame decides the connection's role
  }
  if (c.k == conn::kind::peer)
    handle_peer_msg(c, m);
  else
    handle_client_msg(c, m);
}

void broker_daemon::handle_peer_msg(conn& c, const wire_msg& m) {
  switch (m.type) {
    case msg_type::heartbeat:
    case msg_type::hello:
      return;
    case msg_type::subscribe:
    case msg_type::unsubscribe:
    case msg_type::publish:
      handle_data(c.peer_id, m);
      return;
    case msg_type::ack:
      handle_ack(c.peer_id, m);
      return;
    default:
      close_conn(c, "client message on peer connection");
  }
}

void broker_daemon::handle_client_msg(conn& c, const wire_msg& m) {
  switch (m.type) {
    case msg_type::client_subscribe:
    case msg_type::client_unsubscribe:
    case msg_type::client_publish: {
      const std::uint64_t op =
          (static_cast<std::uint64_t>(opts_.broker_id + 1) << 40) | ++op_counter_;
      wire_msg data;
      data.op = op;
      data.seq = 0;
      data.type = m.type == msg_type::client_subscribe    ? msg_type::subscribe
                  : m.type == msg_type::client_unsubscribe ? msg_type::unsubscribe
                                                           : msg_type::publish;
      data.id = m.id;
      data.body = m.body;
      data.values = m.values;
      auto st = std::make_unique<op_state>();
      st->parent_link = kLocalLink;
      st->client = &c;
      try {
        process_fresh(kLocalLink, data, *st);
      } catch (const std::exception&) {
        // Malformed client input (bad event width, unknown id): report,
        // don't take the daemon down.
        wire_msg done;
        done.type = msg_type::client_done;
        done.op = op;
        done.status = 1;
        queue_bytes(c, frame_msg(done));
        return;
      }
      if (st->pending_acks == 0)
        complete_op(op, *st);
      else
        active_[{op, 0}] = std::move(st);
      return;
    }
    case msg_type::client_dump: {
      wire_msg reply;
      reply.type = msg_type::dump_reply;
      reply.snapshot = encode_snapshot(broker_.snapshot());
      reply.metrics = metrics_;
      queue_bytes(c, frame_msg(reply));
      return;
    }
    case msg_type::client_shutdown:
      if (opts_.checkpoint_every > 0 && active_.empty()) {
        broker_.checkpoint(wal_);
        wal_.write_snapshot(broker_.snapshot(), dedup_aux());
        records_.clear();
        metrics_.wal_bytes = wal_.bytes_appended();
      }
      stopping_ = true;
      return;
    default:
      close_conn(c, "peer message on client connection");
  }
}

// --- operation processing ----------------------------------------------------

void broker_daemon::note_applied(std::uint64_t op, int from, std::uint64_t seq) {
  auto& pos = applied_[op][from];
  if (seq + 1 > pos) pos = seq + 1;
}

void broker_daemon::handle_data(int from, const wire_msg& m) {
  std::uint64_t next = 0;
  if (const auto oit = applied_.find(m.op); oit != applied_.end())
    if (const auto fit = oit->second.find(from); fit != oit->second.end()) next = fit->second;

  if (m.seq == next) {
    auto st = std::make_unique<op_state>();
    st->parent_link = from;
    st->parent_seq = m.seq;
    st->more_may_follow = m.type == msg_type::unsubscribe || m.seq > 0;
    process_fresh(from, m, *st);
    if (st->pending_acks == 0)
      complete_op(m.op, *st);
    else
      active_[{m.op, m.seq}] = std::move(st);
    return;
  }
  if (m.seq > next) {
    // TCP is in-order and the ledger replays in order: a gap means the
    // sender and receiver disagree about history. Drop the connection.
    if (auto& slot = peers_[from]; slot.c != nullptr) close_conn(*slot.c, "sequence gap");
    return;
  }

  // Duplicate: only reconnect replay produces these.
  ++metrics_.duplicates_suppressed;
  // In flight: our eventual ack covers it.
  if (active_.count({m.op, m.seq}) != 0) return;

  // The subtree's ack state died with a crash (ours or an ancestor's).
  // Rebuild it by deterministic re-emission — see transport.h.
  auto st = std::make_unique<op_state>();
  st->parent_link = from;
  st->parent_seq = m.seq;
  st->more_may_follow = m.type == msg_type::unsubscribe || m.seq > 0;
  if (const auto it = records_.find(m.op); it != records_.end()) {
    if (it->second.k == wal_record::kind::event_receipt)
      replay_publish(from, m, *st);
    else
      replay_record(it->second, *st);
  } else if (m.type == msg_type::publish) {
    // Record checkpointed away: the subtree completed, but the delivered
    // set must be reassembled for the ack.
    replay_publish(from, m, *st);
  }
  // else: checkpointed subscribe/unsubscribe — downstream is durable and
  // quiescent; the empty re-ack below is all the parent needs.
  if (st->pending_acks == 0)
    complete_op(m.op, *st);
  else
    active_[{m.op, m.seq}] = std::move(st);
}

void broker_daemon::process_fresh(int from, const wire_msg& m, op_state& st) {
  wal_record r;
  r.op = m.op;
  r.from = from;
  r.seq = m.seq;
  switch (m.type) {
    case msg_type::subscribe: {
      const auto action = broker_.handle_subscribe(from, m.id, m.body, metrics_);
      r.k = wal_record::kind::subscribe;
      r.id = m.id;
      r.body = m.body;
      r.forwarded_links = action.forward_links;
      wal_.append(r);
      note_applied(m.op, from, m.seq);
      records_[m.op] = r;
      for (const int link : action.forward_links) {
        ++metrics_.subscription_messages;
        wire_msg out;
        out.type = msg_type::subscribe;
        out.id = m.id;
        out.body = m.body;
        emit_data(m.op, link, std::move(out), st);
      }
      break;
    }
    case msg_type::unsubscribe: {
      const auto action = broker_.handle_unsubscribe(from, m.id, metrics_);
      r.k = wal_record::kind::unsubscribe;
      r.id = m.id;
      r.withdrawn_links = action.forward_links;
      r.reforwards = action.reforwards;
      wal_.append(r);
      note_applied(m.op, from, m.seq);
      records_[m.op] = r;
      for (const int link : action.forward_links) {
        ++metrics_.unsubscription_messages;
        wire_msg out;
        out.type = msg_type::unsubscribe;
        out.id = m.id;
        emit_data(m.op, link, std::move(out), st);
      }
      for (const auto& [link, sub_pair] : action.reforwards) {
        ++metrics_.subscription_messages;
        ++metrics_.reforwards;
        wire_msg out;
        out.type = msg_type::subscribe;
        out.id = sub_pair.first;
        out.body = sub_pair.second;
        emit_data(m.op, link, std::move(out), st);
      }
      break;
    }
    case msg_type::publish: {
      const event e(schema_, m.values);
      const auto action = broker_.handle_event(from, e);
      r.k = wal_record::kind::event_receipt;
      wal_.append(r);
      note_applied(m.op, from, m.seq);
      records_[m.op] = r;
      for (const sub_id id : action.local_deliveries) {
        st.delivered.push_back(id);
        ++metrics_.deliveries;
      }
      for (const int link : action.forward_links) {
        ++metrics_.event_messages;
        wire_msg out;
        out.type = msg_type::publish;
        out.values = m.values;
        emit_data(m.op, link, std::move(out), st);
      }
      break;
    }
    default:
      SUBCOVER_CHECK(false, "transport: non-data message in process_fresh");
  }
  metrics_.wal_bytes = wal_.bytes_appended();
}

void broker_daemon::replay_record(const wal_record& r, op_state& st) {
  // Physical re-emission of a logged disposition: no broker handler runs
  // and no logical counter moves. Emission order matches process_fresh
  // exactly, so the regenerated per-op per-link seqs equal the originals.
  switch (r.k) {
    case wal_record::kind::subscribe:
      for (const int link : r.forwarded_links) {
        wire_msg out;
        out.type = msg_type::subscribe;
        out.id = r.id;
        out.body = r.body;
        emit_data(r.op, link, std::move(out), st);
      }
      break;
    case wal_record::kind::unsubscribe:
      for (const int link : r.withdrawn_links) {
        wire_msg out;
        out.type = msg_type::unsubscribe;
        out.id = r.id;
        emit_data(r.op, link, std::move(out), st);
      }
      for (const auto& [link, sub_pair] : r.reforwards) {
        wire_msg out;
        out.type = msg_type::subscribe;
        out.id = sub_pair.first;
        out.body = sub_pair.second;
        emit_data(r.op, link, std::move(out), st);
      }
      break;
    case wal_record::kind::event_receipt:
      // Needs the event payload, which only a duplicate message carries —
      // replay_publish handles that path; client-origin receipts are not
      // resumable (resume_client_ops skips them).
      break;
  }
}

void broker_daemon::replay_publish(int from, const wire_msg& m, op_state& st) {
  // Events mutate no routing state and the cluster runs one operation at a
  // time, so re-running the (const) handler against the recovered tables
  // recomputes the original deliveries and forwards. Logical counters
  // stay untouched: this is physical redo, not new work.
  const event e(schema_, m.values);
  const auto action = broker_.handle_event(from, e);
  st.delivered.insert(st.delivered.end(), action.local_deliveries.begin(),
                      action.local_deliveries.end());
  for (const int link : action.forward_links) {
    wire_msg out;
    out.type = msg_type::publish;
    out.values = m.values;
    emit_data(m.op, link, std::move(out), st);
  }
}

void broker_daemon::emit_data(std::uint64_t op, int link, wire_msg m, op_state& st) {
  m.op = op;
  m.seq = send_seq_[op][link]++;
  ++st.pending_acks;
  auto& slot = peers_[link];
  slot.unacked.push_back({op, m.seq, st.parent_seq, m});
  if (slot.c != nullptr) queue_bytes(*slot.c, frame_msg(m));
  // else: the peer is down; the ledger entry goes out on reconnect.
}

void broker_daemon::handle_ack(int from, const wire_msg& m) {
  auto& slot = peers_[from];
  const auto it = std::find_if(slot.unacked.begin(), slot.unacked.end(),
                               [&](const ledger_entry& e) {
                                 return e.op == m.op && e.seq == m.seq;
                               });
  if (it == slot.unacked.end()) return;  // stale re-ack of an already-acked send
  const auto ait = active_.find({m.op, it->owner_seq});
  slot.unacked.erase(it);
  if (ait == active_.end()) return;
  op_state& st = *ait->second;
  st.delivered.insert(st.delivered.end(), m.delivered.begin(), m.delivered.end());
  if (--st.pending_acks == 0) {
    auto owned = std::move(ait->second);
    active_.erase(ait);
    complete_op(m.op, *owned);
  }
}

void broker_daemon::complete_op(std::uint64_t op, op_state& st) {
  std::sort(st.delivered.begin(), st.delivered.end());
  if (st.parent_link == kLocalLink) {
    if (st.client != nullptr && !st.client->dead) {
      wire_msg done;
      done.type = msg_type::client_done;
      done.op = op;
      done.status = 0;
      done.delivered = st.delivered;
      queue_bytes(*st.client, frame_msg(done));
    }
    // else: orphaned client op (resumed after a crash, or the client went
    // away) — the state converged; only the notification is dropped.
  } else {
    wire_msg ack;
    ack.type = msg_type::ack;
    ack.op = op;
    ack.seq = st.parent_seq;
    ack.delivered = st.delivered;
    if (auto& slot = peers_[st.parent_link]; slot.c != nullptr)
      queue_bytes(*slot.c, frame_msg(ack));
    // else: the ack is lost with the dead connection; the parent replays
    // on reconnect and the duplicate path re-acks.
  }
  // Per-link send seqs stay live while the op may still emit here: a
  // sibling state (another parent seq) is in flight, or more of an
  // unsubscribe's messages may follow. Downstream dedup keys (applied_)
  // live as long, so a restarted count would read as duplicates.
  const auto sibling = active_.lower_bound({op, 0});
  if (!st.more_may_follow && (sibling == active_.end() || sibling->first.first != op))
    send_seq_.erase(op);
  maybe_checkpoint();
}

void broker_daemon::maybe_checkpoint() {
  if (opts_.checkpoint_every == 0 || !active_.empty()) return;
  if (wal_.records_since_snapshot() < opts_.checkpoint_every) return;
  // Quiescent boundary: every op this daemon has seen is subtree-complete,
  // so compacting cannot orphan a record a replay still needs — and the
  // aux blob carries the dedup keys forward so the exactly-once window
  // stays closed across the compaction.
  broker_.checkpoint(wal_);
  wal_.write_snapshot(broker_.snapshot(), dedup_aux());
  records_.clear();
  metrics_.wal_bytes = wal_.bytes_appended();
}

// --- dedup persistence and startup resume ------------------------------------

std::vector<std::uint8_t> broker_daemon::dedup_aux() const {
  std::vector<std::uint8_t> out;
  std::uint64_t entries = 0;
  for (const auto& [op, by_from] : applied_) entries += by_from.size();
  codec::put_varint(out, entries);
  for (const auto& [op, by_from] : applied_)
    for (const auto& [from, next] : by_from) {
      codec::put_varint(out, op);
      codec::put_signed(out, from);
      codec::put_varint(out, next);
    }
  return out;
}

void broker_daemon::load_dedup_aux(const std::vector<std::uint8_t>& aux) {
  if (aux.empty()) return;
  codec::basic_byte_reader<wal_error> in{aux.data(), aux.data() + aux.size()};
  const auto entries = in.varint();
  for (std::uint64_t i = 0; i < entries; ++i) {
    const auto op = in.varint();
    const auto from = static_cast<int>(in.signed_varint());
    const auto next = in.varint();
    auto& pos = applied_[op][from];
    if (next > pos) pos = next;
  }
  if (!in.done()) throw wal_error("wal: trailing bytes in dedup aux blob");
}

void broker_daemon::resume_client_ops() {
  // Client-origin records have no parent to retransmit them: if their op
  // was cut short by the crash, nothing else in the cluster will finish
  // it. Re-emit them all (completed ones cost a few suppressed duplicates
  // and empty re-acks; the incomplete one converges the cluster).
  for (const auto& [op, r] : records_) {
    if (r.from != kLocalLink) continue;
    if (r.k == wal_record::kind::event_receipt) continue;  // no payload to replay
    auto st = std::make_unique<op_state>();
    st->parent_link = kLocalLink;
    st->client = nullptr;  // its client died with the previous incarnation
    replay_record(r, *st);
    if (st->pending_acks > 0) active_[{op, 0}] = std::move(st);
    // pending == 0 (leaf broker): nothing to do — state is durable and
    // there is no client to notify.
  }
}

// --- cluster_client ----------------------------------------------------------

cluster_client::~cluster_client() { close(); }

void cluster_client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void cluster_client::connect(const std::string& host, int port, int deadline_ms) {
  close();
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  const std::int64_t deadline =
      static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000 + deadline_ms;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0) {
      auto addr = make_addr(host, port);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
        set_nodelay(fd);
        fd_ = fd;
        decoder_ = frame_decoder{};  // a new stream needs a clean reassembly state
        return;
      }
      ::close(fd);
    }
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    if (static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000 >= deadline)
      throw wire_error("client: connect deadline exceeded for " + host + ":" +
                       std::to_string(port));
    const timespec nap{0, 20 * 1000 * 1000};
    ::nanosleep(&nap, nullptr);
  }
}

void cluster_client::send(const wire_msg& m) {
  if (fd_ < 0) throw wire_error("client: not connected");
  const auto bytes = frame_msg(m);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      close();
      throw wire_error("client: connection lost on send");
    }
    off += static_cast<std::size_t>(w);
  }
}

std::optional<wire_msg> cluster_client::recv(int timeout_ms) {
  if (fd_ < 0) throw wire_error("client: not connected");
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  const std::int64_t deadline =
      static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000 + timeout_ms;
  for (;;) {
    if (auto payload = decoder_.next())
      return decode_msg(payload->data(), payload->size());
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    const std::int64_t left =
        deadline - (static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000);
    if (left <= 0) return std::nullopt;
    pollfd p{fd_, POLLIN, 0};
    const int n = ::poll(&p, 1, static_cast<int>(left));
    if (n < 0 && errno != EINTR) {
      close();
      throw wire_error("client: poll failed");
    }
    if (n <= 0) continue;
    std::uint8_t buf[65536];
    const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
    if (r <= 0) {
      close();
      throw wire_error("client: connection closed");
    }
    decoder_.feed(buf, static_cast<std::size_t>(r));
  }
}

wire_msg cluster_client::request(const wire_msg& m, int timeout_ms) {
  send(m);
  auto reply = recv(timeout_ms);
  if (!reply) throw wire_error("client: request timed out");
  return *reply;
}

}  // namespace subcover
