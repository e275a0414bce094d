// tcp_cluster: three broker_daemon processes forked from this benchmark,
// in a line over 127.0.0.1, driven through the client protocol.
//
// Each daemon adopts a listener the benchmark pre-binds on port 0
// (transport_options::listen_fd), so back-to-back runs never collide on a
// port, and keeps its WAL under a per-round temp root inside the scratch
// directory (fsync off, checkpoint every 64 records: the defaults). The
// cluster object reaps its daemons on every exit path — destructor, failed
// verification, exception — and a SIGINT/SIGTERM handler SIGKILLs them so a
// blocked client call fails fast and unwinds into that destructor. Daemons
// also get PR_SET_PDEATHSIG, so even a SIGKILLed benchmark leaves no
// orphan behind.
//
// The client is the library's cluster_client, one connection per daemon and
// one outstanding operation (closed loop). The traced run times the
// client's wire encode and decode by replaying them after each op.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "trace.h"

namespace perfbench {

using namespace subcover;

namespace {

constexpr int kBrokers = 3;
// A run is whole rounds, each on a freshly booted cluster, until the run's
// wall time (set-up and timed slices) reaches --seconds. A round publishes a
// fixed count: the daemons' dedup maps and WAL checkpoints grow with every
// publish, so a time-sliced round would give a faster program a bigger state
// to publish into. The count is small so that the checkpoints, the slowest
// publishes, stay small: with 16384 their cost followed the host's load and
// moved ops_per_s with it (README.md).
constexpr std::size_t kRoundPublishes = 4096;
constexpr int kMaxRounds = 64;
constexpr double kEpsilon = 0.05;
constexpr std::size_t kPublishBatch = 256;
constexpr int kTimeoutMs = 20000;

// Daemon pids the signal handler must kill (0 = empty slot), and whether
// it ran: the next client op then throws, unwinding into the cleanup.
std::atomic<pid_t> g_daemons[kBrokers];
std::atomic<bool> g_interrupted{false};

extern "C" void on_terminate_signal(int) {
  g_interrupted.store(true);
  for (auto& p : g_daemons) {
    const pid_t pid = p.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
}

// What a daemon shares with the benchmark process: memory mapped
// MAP_SHARED before the fork. The daemon writes; the benchmark reads only
// between operations, when the closed loop leaves every daemon idle.
struct daemon_slot {
  std::uint64_t routing_entries = 0;
  covering_trace trace;  // filled by the traced run's covering decorator
};

// Traced run: the client's wire work, replayed after each op (see
// replay_wire) so the request itself runs exactly as untraced.
struct wire_times {
  std::uint64_t encode_ns = 0, decode_ns = 0;
};

// Replays, after the op and outside its timing, the client-side wire calls
// cluster_client::request made inside it: frame_msg of the request, then
// frame_decoder reassembly and decode_msg of the reply's bytes.
void replay_wire(const wire_msg& request, const wire_msg& reply, wire_times& t) {
  const std::vector<std::uint8_t> reply_bytes = frame_msg(reply);
  std::uint64_t t0 = now_ns();
  [[maybe_unused]] const std::vector<std::uint8_t> request_bytes = frame_msg(request);
  t.encode_ns += now_ns() - t0;
  t0 = now_ns();
  frame_decoder dec;
  dec.feed(reply_bytes.data(), reply_bytes.size());
  const std::optional<std::vector<std::uint8_t>> payload = dec.next();
  if (!payload) throw std::runtime_error("wire replay: the reply frame did not reassemble");
  [[maybe_unused]] const wire_msg decoded = decode_msg(payload->data(), payload->size());
  t.decode_ns += now_ns() - t0;
}

int bind_loopback_listener(int* port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("listener: socket failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 || ::listen(fd, 32) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("listener: bind/listen on 127.0.0.1:0 failed");
  }
  *port_out = ntohs(addr.sin_port);
  return fd;
}

// Device interrupts each CPU has served since boot, by CPU number, from
// /proc/interrupts (numbered lines only: LOC, RES and the like are not
// devices). Empty if the file is unreadable.
std::map<int, std::uint64_t> device_interrupts_by_cpu() {
  std::ifstream in("/proc/interrupts");
  std::string line;
  if (!std::getline(in, line)) return {};
  std::vector<int> cpus;  // the header names the online CPUs: "CPU0 CPU1 ..."
  std::istringstream header(line);
  for (std::string name; header >> name;)
    if (name.rfind("CPU", 0) == 0) cpus.push_back(std::atoi(name.c_str() + 3));
  std::map<int, std::uint64_t> count;
  for (const int cpu : cpus) count[cpu] = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string irq;
    fields >> irq;
    if (irq.empty() || std::isdigit(static_cast<unsigned char>(irq[0])) == 0) continue;
    std::uint64_t n = 0;
    for (const int cpu : cpus) {
      if (!(fields >> n)) break;
      count[cpu] += n;
    }
  }
  return count;
}

// Pins the benchmark, and so the daemons it forks, to one CPU: of those it
// may run on, the one that has served the fewest device interrupts (the
// highest on a tie or without /proc/interrupts). A closed loop then always
// has exactly one runnable process, and each hop of a round trip is a
// context switch on that CPU. Spread over several idle vCPUs, a hop could be
// a cross-CPU wake-up, whose latency probably follows the load on the
// virtualisation host: publish p50 moved between ~22 and ~33 us from one run
// to the next. The CPU that completes disk I/O is avoided because WAL
// checkpoints write to disk: pinned beside the disk's interrupts, the
// benchmark published slowest of three CPUs in three of three trials
// (README.md).
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const std::map<int, std::uint64_t> interrupts = device_interrupts_by_cpu();
  int best = -1;
  std::uint64_t best_count = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    const auto it = interrupts.find(cpu);
    const std::uint64_t n = it == interrupts.end() ? 0 : it->second;
    if (best < 0 || n < best_count) {
      best = cpu;
      best_count = n;
    }
  }
  if (best < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  if (::sched_setaffinity(0, sizeof one, &one) != 0)
    throw std::runtime_error("cannot pin the benchmark to CPU " + std::to_string(best));
}

std::vector<std::uint64_t> event_values(const event& e) {
  std::vector<std::uint64_t> v;
  for (int i = 0; i < e.attribute_count(); ++i) v.push_back(e.value(i));
  return v;
}

// One booted cluster: listeners, daemon processes, WAL root, clients.
class cluster {
 public:
  cluster(const std::string& scratch_dir, bool traced) {
    try {
      std::filesystem::create_directories(scratch_dir);
      std::string tmpl = scratch_dir + "/tcp-XXXXXX";
      if (::mkdtemp(tmpl.data()) == nullptr)
        throw std::runtime_error("cannot create a WAL root under " + scratch_dir);
      wal_root_ = tmpl;
      void* mem = ::mmap(nullptr, sizeof(daemon_slot) * kBrokers, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_ANONYMOUS, -1, 0);
      if (mem == MAP_FAILED) throw std::runtime_error("mmap of daemon slots failed");
      slots_ = static_cast<daemon_slot*>(mem);
      for (int b = 0; b < kBrokers; ++b) new (&slots_[b]) daemon_slot{};
      for (int b = 0; b < kBrokers; ++b) fds_[b] = bind_loopback_listener(&ports_[b]);
      for (int b = 0; b < kBrokers; ++b) spawn(b, traced);
      for (int b = 0; b < kBrokers; ++b) clients_[b].connect("127.0.0.1", ports_[b], kTimeoutMs);
    } catch (...) {
      teardown();
      throw;
    }
  }
  cluster(const cluster&) = delete;
  cluster& operator=(const cluster&) = delete;
  ~cluster() { teardown(); }

  wire_msg request(int b, const wire_msg& m) { return clients_[b].request(m, kTimeoutMs); }

  // Summed daemon counters, via client_dump.
  network_metrics dump_metrics() {
    network_metrics sum;
    wire_msg dump;
    dump.type = msg_type::client_dump;
    for (int b = 0; b < kBrokers; ++b) {
      const auto reply = request(b, dump);
      if (reply.type != msg_type::dump_reply) throw std::runtime_error("dump: wrong reply type");
      sum += reply.metrics;
    }
    return sum;
  }

  long sum_status_kb(const char* field) const {
    long sum = 0;
    for (const pid_t pid : pids_) sum += proc_status_kb(pid, field);
    return sum;
  }
  std::uint64_t routing_entries() const {
    std::uint64_t n = 0;
    for (int b = 0; b < kBrokers; ++b) n += slots_[b].routing_entries;
    return n;
  }
  covering_trace merged_trace() const {
    covering_trace t;
    for (int b = 0; b < kBrokers; ++b) t.merge(slots_[b].trace);
    return t;
  }

  // Orderly stop: client_shutdown to every daemon, then reap. Returns false
  // if a daemon exited with an error or had to be killed.
  bool shutdown() {
    wire_msg bye;
    bye.type = msg_type::client_shutdown;
    for (int b = 0; b < kBrokers; ++b) clients_[b].send(bye);
    bool clean = true;
    const std::uint64_t deadline = now_ns() + 10'000'000'000ULL;
    for (int b = 0; b < kBrokers; ++b) {
      int status = 0;
      while (::waitpid(pids_[b], &status, WNOHANG) == 0) {
        if (now_ns() > deadline) {
          ::kill(pids_[b], SIGKILL);
          ::waitpid(pids_[b], &status, 0);
          clean = false;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) clean = false;
      if (!forget(b)) clean = false;
    }
    return clean;
  }

 private:
  void spawn(int id, bool traced) {
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) run_daemon(id, traced, parent);
    pids_[id] = pid;
    g_daemons[id].store(pid);
  }

  [[noreturn]] void run_daemon(int id, bool traced, pid_t parent) {
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(4);
    for (int b = 0; b < kBrokers; ++b)
      if (b != id) ::close(fds_[b]);
    int code = 0;
    try {
      transport_options o;
      o.broker_id = id;
      o.listen_fd = fds_[id];
      if (id > 0) o.peers.push_back({id - 1, "127.0.0.1", ports_[id - 1]});
      if (id + 1 < kBrokers) o.peers.push_back({id + 1, "127.0.0.1", ports_[id + 1]});
      o.wal_dir = wal_root_ + "/w" + std::to_string(id);
      o.broker.epsilon = kEpsilon;
      daemon_slot& slot = slots_[id];
      covering_index_factory factory =
          traced ? traced_factory(slot.trace)
                 : [](const schema& s) -> std::unique_ptr<covering_index> {
                     return std::make_unique<sfc_covering_index>(s);
                   };
      broker_daemon d(bench_schema(), factory, o);
      // broker_daemon::run() is this loop without the routing-entry
      // publication the benchmark reads at the end of the timed phase.
      while (d.step(50)) slot.routing_entries = d.state().routing_entries();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: daemon " << id << " failed: " << e.what() << "\n";
      code = 3;
    }
    ::_exit(code);
  }

  // Drops a reaped daemon; false if its pid is somehow still present.
  bool forget(int b) {
    g_daemons[b].store(0);
    const bool gone = ::kill(pids_[b], 0) != 0 && errno == ESRCH;
    if (!gone) std::cerr << "perfbench: daemon pid " << pids_[b] << " outlived its reaping\n";
    pids_[b] = -1;
    return gone;
  }

  // Every exit path: kill and reap what is left, close sockets, drop the
  // shared slots and remove the WAL root.
  void teardown() {
    for (int b = 0; b < kBrokers; ++b) {
      clients_[b].close();
      if (pids_[b] > 0) {
        ::kill(pids_[b], SIGKILL);
        ::waitpid(pids_[b], nullptr, 0);
        forget(b);
      }
      if (fds_[b] >= 0) ::close(fds_[b]);
      fds_[b] = -1;
    }
    if (slots_ != nullptr) ::munmap(slots_, sizeof(daemon_slot) * kBrokers);
    slots_ = nullptr;
    std::error_code ec;
    if (!wal_root_.empty()) std::filesystem::remove_all(wal_root_, ec);
  }

  std::string wal_root_;
  daemon_slot* slots_ = nullptr;
  int fds_[kBrokers] = {-1, -1, -1};
  int ports_[kBrokers] = {0, 0, 0};
  pid_t pids_[kBrokers] = {-1, -1, -1};
  cluster_client clients_[kBrokers];
};

}  // namespace

run_result run_tcp_cluster(const run_config& cfg) {
  pin_to_one_cpu();
  struct sigaction sa{};
  sa.sa_handler = on_terminate_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  const schema sch = bench_schema();
  const workload::churn_gen_options go = bench_stream_options();

  run_result res;
  // Set-up subscribes give subscribe_*: the timed phase only publishes.
  auto sub_h = std::make_unique<latency_hist>();
  auto pub_h = std::make_unique<latency_hist>();
  rate_meter rates;
  std::vector<double> setup_secs;
  double routing_entries = 0, peak_mb = 0;
  std::uint64_t pubs = 0, rtt_ns = 0, sub_msgs = 0, heartbeats_missed = 0, reconnects = 0;
  network_metrics timed;  // daemon counter deltas over the timed slices
  covering_trace cov;     // traced run: every covering call of every daemon
  std::uint64_t timed_checks = 0, timed_covering_ns = 0, timed_mutate_ns = 0;
  long rss_growth_kb = 0;
  wire_times wt;

  // One client op: checks client_done with status 0, returns wall time.
  // The traced run replays the wire calls of the ops given `t`.
  const auto op = [&](cluster& c, int b, const wire_msg& m, wire_times* t,
                      wire_msg* reply) -> std::uint64_t {
    ++res.attempted;
    if (g_interrupted.load()) throw std::runtime_error("interrupted by a signal");
    const std::uint64_t t0 = now_ns();
    *reply = c.request(b, m);
    const std::uint64_t wall = now_ns() - t0;
    if (t) replay_wire(m, *reply, *t);
    if (reply->type != msg_type::client_done || reply->status != 0)
      res.fail("client op at broker " + std::to_string(b) + " returned status " +
               std::to_string(reply->status));
    return wall;
  };

  const auto run_ns = static_cast<std::uint64_t>(cfg.seconds * 1e9);
  const std::uint64_t run_start = now_ns();
  int rounds = 0;
  for (; now_ns() - run_start < run_ns && rounds < kMaxRounds && res.correct; ++rounds) {
    const std::uint64_t seed = cfg.seed * kMaxRounds + static_cast<std::uint64_t>(rounds);
    workload::churn_gen gen(sch, go, seed);
    workload::event_gen events(sch, seed + 7);
    rng pick(seed * 0x9E3779B97F4A7C15ULL + 1);
    std::map<sub_id, subscription> live;  // the oracle's subscription list
    std::vector<std::pair<int, wire_msg>> warm;
    for (int i = 0; i < kWarmSubscriptions; ++i) {
      const int b = static_cast<int>(pick.index(kBrokers));
      const auto w = gen.next();
      wire_msg m;
      m.type = msg_type::client_subscribe;
      m.id = w.id + 1;
      m.body = w.sub;
      warm.push_back({b, std::move(m)});
    }

    // Set-up: boot the cluster and subscribe the warm state through it.
    const std::uint64_t t0 = now_ns();
    cluster c(cfg.scratch_dir, cfg.trace);
    for (const auto& [b, m] : warm) {
      wire_msg reply;
      sub_h->add(op(c, b, m, nullptr, &reply));
      live[m.id] = m.body;
    }
    setup_secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    // Timed slice: publish-only closed loop.
    const network_metrics before = c.dump_metrics();
    const covering_trace cov_before = c.merged_trace();
    const long rss_before = c.sum_status_kb("VmRSS");
    sub_msgs += before.subscription_messages;
    for (std::size_t n = 0; n < kRoundPublishes && res.correct; n += kPublishBatch) {
      std::vector<std::pair<int, event>> batch;
      for (std::size_t i = 0; i < kPublishBatch; ++i) {
        const int b = static_cast<int>(pick.index(kBrokers));
        batch.push_back({b, events.next()});
      }
      std::uint64_t batch_ns = 0;
      for (const auto& [b, ev] : batch) {
        wire_msg m, reply;
        m.type = msg_type::client_publish;
        m.values = event_values(ev);
        const std::uint64_t wall = op(c, b, m, cfg.trace ? &wt : nullptr, &reply);
        pub_h->add(wall);
        batch_ns += wall;
        ++pubs;
        if (reply.delivered != expected_delivery(live, ev))
          res.fail("publish at broker " + std::to_string(b) +
                   ": the delivered set differs from ground truth");
      }
      rtt_ns += batch_ns;
      rates.batch(batch.size(), batch_ns);
    }
    const network_metrics after = c.dump_metrics();
    const covering_trace cov_after = c.merged_trace();
    rss_growth_kb += c.sum_status_kb("VmRSS") - rss_before;
    routing_entries += static_cast<double>(c.routing_entries());
    peak_mb += static_cast<double>(c.sum_status_kb("VmHWM")) / 1024.0;
    timed.event_messages += after.event_messages - before.event_messages;
    timed.bytes_on_wire += after.bytes_on_wire - before.bytes_on_wire;
    timed.wal_bytes += after.wal_bytes - before.wal_bytes;
    timed.partial_writes += after.partial_writes - before.partial_writes;
    timed.covering_check_ns += after.covering_check_ns - before.covering_check_ns;
    timed.covering_maint_compactions +=
        after.covering_maint_compactions - before.covering_maint_compactions;
    reconnects += after.reconnects;
    heartbeats_missed += after.heartbeats_missed;
    timed_checks += cov_after.checks - cov_before.checks;
    timed_covering_ns += cov_after.covering_ns() - cov_before.covering_ns();
    timed_mutate_ns += cov_after.mutate_ns - cov_before.mutate_ns;
    cov.merge(cov_after);
    if (!c.shutdown()) res.fail("a daemon did not exit cleanly");
  }

  const double ops = static_cast<double>(std::max<std::uint64_t>(pubs, 1));
  if (!cfg.trace) {
    res.add("setup_s", median_of(setup_secs), "s");
    res.add("ops_per_s", rates.median(), "1/s");
    res.add("subscribe_p50_ms", sub_h->quantile_ms(0.50), "ms");
    res.add("subscribe_p90_ms", sub_h->quantile_ms(0.90), "ms");
    res.add("publish_p50_ms", pub_h->quantile_ms(0.50), "ms");
    res.add("publish_p90_ms", pub_h->quantile_ms(0.90), "ms");
    res.add("sub_msgs_per_subscribe",
            ratio(static_cast<double>(sub_msgs), kWarmSubscriptions * setup_secs.size()), "msg/op");
    res.add("event_msgs_per_publish", static_cast<double>(timed.event_messages) / ops, "msg/op");
    res.add("routing_entries", routing_entries / rounds, "count");
    res.add("peak_rss_mb", peak_mb / rounds, "MB");
    return res;
  }

  res.add("ops_per_s", rates.median(), "1/s");
  add_per_check_metrics(res, cov);
  res.add("covering.checks_per_op", static_cast<double>(timed_checks) / ops, "checks/op");
  res.add("covering.busy_share", ratio(static_cast<double>(timed_covering_ns), rtt_ns), "ratio");
  res.add("covering.mutate_us_per_op", static_cast<double>(timed_mutate_ns) / 1e3 / ops, "us");
  res.add("sfcarray.maint_compactions_per_op",
          static_cast<double>(timed.covering_maint_compactions) / ops, "count/op");
  // The in-process layers run inside the daemons, out of the client's reach.
  for (const auto& [name, unit] : std::initializer_list<std::pair<const char*, const char*>>{
           {"network.subscribe_self_us_p50", "us"},
           {"network.unsubscribe_self_us_p50", "us"},
           {"network.reforwards_per_unsubscribe", "msg/op"},
           {"network.publish_self_us_p50", "us"},
           {"routing_table.handle_event_us_per_publish", "us"},
           {"routing_table.hops_per_publish", "hops"}})
    res.add(name, 0, unit);
  res.add("wire.encode_us_per_op", static_cast<double>(wt.encode_ns) / 1e3 / ops, "us");
  res.add("wire.decode_us_per_op", static_cast<double>(wt.decode_ns) / 1e3 / ops, "us");
  res.add("wire.bytes_per_op", static_cast<double>(timed.bytes_on_wire) / ops, "B");
  res.add("wal.bytes_per_op", static_cast<double>(timed.wal_bytes) / ops, "B");
  // Layer spans: the client's wire encode and decode, and the daemons'
  // covering checks. The residual is the kernel, the daemons' poll loops,
  // WAL appends and ack aggregation, which no span reaches from outside.
  const double spans =
      static_cast<double>(wt.encode_ns + wt.decode_ns + timed.covering_check_ns);
  const double residual_ns = static_cast<double>(rtt_ns) - spans;
  res.add("transport.residual_us_per_op", residual_ns / 1e3 / ops, "us");
  // The publishes that trigger a WAL checkpoint (about one in 45) set the
  // p99, so it follows the host's disk and is no end-to-end metric.
  res.add("transport.publish_us_p99", pub_h->quantile_ms(0.99) * 1e3, "us");
  res.add("transport.partial_writes_per_op", static_cast<double>(timed.partial_writes) / ops,
          "count/op");
  res.add("transport.reconnects", static_cast<double>(reconnects), "count");
  res.add("transport.heartbeats_missed", static_cast<double>(heartbeats_missed), "count");
  res.add("transport.daemon_rss_growth_kb_per_kop",
          static_cast<double>(rss_growth_kb) / (ops / 1e3), "kB/kop");
  res.add("trace.unaccounted_share", ratio(residual_ns, rtt_ns), "ratio");
  return res;
}

}  // namespace perfbench
