// Shared plumbing of the end-to-end benchmark: the run configuration, the
// result record main() prints as JSON, latency histograms, batch-rate
// meters, the publish oracle, and /proc memory readings.
#pragma once

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "subcover.h"
#include "workload/churn_gen.h"

namespace perfbench {

using subcover::sub_id;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Where tcp_cluster puts its per-run WAL root (inside the checkout).
  std::string scratch_dir = ".bench_build/tmp";
};

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct run_result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // One failed or incorrect client operation; `why` goes to stderr.
  void fail(const std::string& why);
};

// Log-bucketed latency histogram (0.1% relative bucket width, 1 ns to
// ~190 s): constant memory however many operations a run completes, so the
// recording never shows up in peak_rss_mb. Trivially copyable, so a forked
// daemon can fill one in shared memory.
class latency_hist {
 public:
  void add(std::uint64_t ns);
  void merge(const latency_hist& o);
  // Quantile q in [0, 1] in milliseconds; 0 when empty.
  [[nodiscard]] double quantile_ms(double q) const;

 private:
  static constexpr std::size_t kBuckets = 26000;
  std::array<std::uint32_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

// Operations per second as the median of fixed-size batch rates: a burst of
// host noise spoils the batches it overlaps instead of the whole run.
class rate_meter {
 public:
  void batch(std::uint64_t ops, std::uint64_t ns) {
    if (ops > 0 && ns > 0) rates_.push_back(static_cast<double>(ops) * 1e9 / static_cast<double>(ns));
  }
  [[nodiscard]] double median() const;

 private:
  std::vector<double> rates_;
};

double median_of(std::vector<double> v);

// num / den, or 0 when nothing was counted.
inline double ratio(double num, std::uint64_t den) {
  return den ? num / static_cast<double>(den) : 0.0;
}

// The subscription stream every workload draws its standing state (and
// subscription_churn its timed ops) from: make_uniform_schema(2, 10),
// clustered narrow ranges without wildcards, the default 45/45/10 op mix,
// and kWarmSubscriptions pure subscribes first.
inline constexpr int kWarmSubscriptions = 64;
subcover::schema bench_schema();
subcover::workload::churn_gen_options bench_stream_options();

// Ground truth for one publish: ids of the live subscriptions the event
// matches, ascending. Computed from the benchmark's own subscription list,
// never from the engine under test.
std::vector<sub_id> expected_delivery(const std::map<sub_id, subcover::subscription>& live,
                                      const subcover::event& e);

// A /proc/<pid>/status field in kB (VmHWM, VmRSS); -1 if unreadable.
long proc_status_kb(pid_t pid, const char* field);

// The three workloads (inproc.cc, tcp.cc).
run_result run_subscription_churn(const run_config& cfg);
run_result run_event_routing(const run_config& cfg);
run_result run_tcp_cluster(const run_config& cfg);

}  // namespace perfbench
