#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

namespace perfbench {

namespace {

// Buckets per natural-log unit: bucket width exp(1/1000) - 1 = 0.1%.
constexpr double kBucketsPerE = 1000;

}  // namespace

void run_result::fail(const std::string& why) {
  correct = false;
  ++failed;
  if (failed <= 10) std::cerr << "perfbench: FAILED op: " << why << "\n";
}

void latency_hist::add(std::uint64_t ns) {
  const double x = std::log(static_cast<double>(std::max<std::uint64_t>(ns, 1))) * kBucketsPerE;
  const auto i = std::min<std::size_t>(static_cast<std::size_t>(x), kBuckets - 1);
  ++buckets_[i];
  ++count_;
}

void latency_hist::merge(const latency_hist& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
}

double latency_hist::quantile_ms(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= std::max<std::uint64_t>(rank, 1))
      return std::exp((static_cast<double>(i) + 0.5) / kBucketsPerE) / 1e6;
  }
  return 0;
}

subcover::schema bench_schema() { return subcover::workload::make_uniform_schema(2, 10); }

subcover::workload::churn_gen_options bench_stream_options() {
  subcover::workload::churn_gen_options o;
  o.subscriptions.kind = subcover::workload::workload_kind::clustered;
  // Narrow ranges make nearly every covering check run to the cube budget,
  // so an op's cost tracks its check count rather than the geometry of
  // each query; with the default 0.2 the per-op latency spread across
  // seeds exceeded every bound the benchmark can afford (README.md).
  o.subscriptions.mean_width = 0.1;
  o.subscriptions.wildcard_prob = 0.0;
  o.warmup_subscriptions = kWarmSubscriptions;
  return o;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double rate_meter::median() const { return median_of(rates_); }

std::vector<sub_id> expected_delivery(const std::map<sub_id, subcover::subscription>& live,
                                      const subcover::event& e) {
  std::vector<sub_id> out;
  for (const auto& [id, s] : live)
    if (subcover::matches(s, e)) out.push_back(id);
  return out;
}

long proc_status_kb(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':')
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
  return -1;
}

}  // namespace perfbench
