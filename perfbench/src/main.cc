// perfbench — one workload of the end-to-end benchmark per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints a human-readable metric table to stderr and, as the last line of
// stdout, one JSON object {correct, attempted, failed, metrics}. Exits 1 if
// any client operation failed or returned a wrong result, 2 on bad usage.
// run.py builds this binary and is the documented entry point.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload subscription_churn|event_routing|tcp_cluster"
               " --seed N --seconds S --trace 0|1 [--scratch DIR]\n";
  std::exit(2);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") cfg.workload = v;
      else if (a == "--seed") cfg.seed = std::stoull(v);
      else if (a == "--seconds") cfg.seconds = std::stod(v);
      else if (a == "--trace") cfg.trace = std::stoi(v) != 0;
      else if (a == "--scratch") cfg.scratch_dir = v;
      else usage(("unknown flag " + a).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (cfg.seconds <= 0) usage("--seconds must be positive");

  perfbench::run_result r;
  try {
    if (cfg.workload == "subscription_churn") r = perfbench::run_subscription_churn(cfg);
    else if (cfg.workload == "event_routing") r = perfbench::run_event_routing(cfg);
    else if (cfg.workload == "tcp_cluster") r = perfbench::run_tcp_cluster(cfg);
    else usage("unknown workload");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 1;
  }

  std::cerr << "workload " << cfg.workload << " seed " << cfg.seed << (cfg.trace ? " (traced)" : "")
            << ": " << r.attempted << " ops attempted, " << r.failed << " failed\n";
  std::fprintf(stderr, "  %-42s %14s  %s\n", "failed_op_share",
               json_number(static_cast<double>(r.failed) /
                           static_cast<double>(r.attempted ? r.attempted : 1))
                   .c_str(),
               "ratio");
  for (const auto& m : r.metrics)
    std::fprintf(stderr, "  %-42s %14s  %s\n", m.name.c_str(), json_number(m.value).c_str(),
                 m.unit.c_str());

  std::string json = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return r.correct && r.failed == 0 ? 0 : 1;
}
