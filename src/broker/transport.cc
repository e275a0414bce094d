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

// --- connections -------------------------------------------------------------

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
  std::uint64_t serial = 0;  // the replica's client token
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
    : opts_(std::move(opts)),
      wal_(open_wal(opts_)),
      broker_(opts_.broker_id, s, peer_ids(opts_), factory, opts_.broker),
      rng_(opts_.seed ^ (static_cast<std::uint64_t>(opts_.broker_id) * 0x9e3779b97f4a7c15ULL)) {
  for (const auto& p : opts_.peers) peers_[p.id].addr = p;
  // Restart: resumed frames wait in the ledger until their links connect.
  replica_sink& sink = *this;
  replica_ = std::make_unique<replica>(broker_, wal_, metrics_, sink, opts_.checkpoint_every);
  if (replica_->restored()) ++metrics_.recoveries;
  open_listener();
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
  replica_->link_up(peer_id);
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
      // TCP is in order and the ledger replays in order: a gap means the
      // two ends disagree about history, so resynchronize by reconnect.
      if (replica_->on_data(c.peer_id, m) == replica::verdict::gap) close_conn(c, "sequence gap");
      return;
    case msg_type::ack:
      replica_->on_ack(c.peer_id, m);
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
      wire_msg data;
      data.type = m.type == msg_type::client_subscribe    ? msg_type::subscribe
                  : m.type == msg_type::client_unsubscribe ? msg_type::unsubscribe
                                                           : msg_type::publish;
      data.id = m.id;
      data.body = m.body;
      data.values = m.values;
      if (c.serial == 0) c.serial = ++conn_serial_;
      (void)replica_->client_op(c.serial, std::move(data));
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
      replica_->checkpoint_if_idle();
      stopping_ = true;
      return;
    default:
      close_conn(c, "peer message on client connection");
  }
}

// --- replica outputs ---------------------------------------------------------

void broker_daemon::send(int link, const wire_msg& m) {
  // A down link drops the frame: data waits in the ledger for the
  // reconnect, and a lost ack is regenerated when the parent replays.
  if (auto& slot = peers_[link]; slot.c != nullptr) queue_bytes(*slot.c, frame_msg(m));
}

void broker_daemon::done(std::uint64_t client, std::uint64_t op, std::uint8_t status,
                         const std::vector<sub_id>& delivered) {
  // A client that went away orphans its op: the state still converges,
  // only the notification is dropped.
  for (auto& c : conns_) {
    if (c->serial != client || c->dead) continue;
    wire_msg reply;
    reply.type = msg_type::client_done;
    reply.op = op;
    reply.status = status;
    reply.delivered = delivered;
    queue_bytes(*c, frame_msg(reply));
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
