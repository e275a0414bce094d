#include "broker/metrics.h"

#include <sstream>

namespace subcover {

network_metrics& network_metrics::operator+=(const network_metrics& o) {
  for (const metrics_field& f : kMetricsFields) this->*f.member += o.*f.member;
  return *this;
}

bool same_counters(const network_metrics& a, const network_metrics& b) {
  for (const metrics_field& f : kMetricsFields) {
    if (f.kind == counter_kind::logical && a.*f.member != b.*f.member) return false;
  }
  return true;
}

std::string network_metrics::to_string() const {
  std::ostringstream os;
  const char* sep = "metrics{";
  for (const metrics_field& f : kMetricsFields) {
    os << sep << f.name << '=' << this->*f.member;
    sep = ", ";
  }
  os << '}';
  return os.str();
}

}  // namespace subcover
