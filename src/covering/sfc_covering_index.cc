#include "covering/sfc_covering_index.h"

#include <set>
#include <stdexcept>

#include "pubsub/transform.h"
#include "util/check.h"
#include "util/timer.h"

namespace subcover {

sfc_covering_index::sfc_covering_index(const schema& s, sfc_covering_options options)
    : covering_index(s), index_(s.dominance_universe(), options) {}

std::string_view sfc_covering_index::name() const {
  switch (index_.options().curve) {
    case curve_kind::z_order:
      return "sfc-z";
    case curve_kind::hilbert:
      return "sfc-hilbert";
    case curve_kind::gray_code:
      return "sfc-gray";
  }
  return "sfc";
}

void sfc_covering_index::insert(sub_id id, const subscription& s) {
  const auto [it, inserted] = subs_.emplace(id, s);
  (void)it;
  if (!inserted)
    throw std::invalid_argument("sfc_covering_index: duplicate id " + std::to_string(id));
  index_.insert(to_dominance_point(schema_, s), id);
}

void sfc_covering_index::insert_batch(const std::vector<std::pair<sub_id, subscription>>& subs) {
  // Validate the whole batch before mutating anything: subs_ and the
  // dominance index must never desync (a half-inserted id would be visible
  // to erase but invisible to queries).
  std::set<sub_id> batch_ids;
  for (const auto& [id, s] : subs) {
    (void)s;
    if (subs_.count(id) > 0 || !batch_ids.insert(id).second)
      throw std::invalid_argument("sfc_covering_index: duplicate id " + std::to_string(id));
  }
  std::vector<std::pair<point, std::uint64_t>> points;
  points.reserve(subs.size());
  for (const auto& [id, s] : subs) {
    subs_.emplace(id, s);
    points.emplace_back(to_dominance_point(schema_, s), id);
  }
  index_.insert_batch(points);
}

bool sfc_covering_index::erase(sub_id id) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return false;
  const bool erased = index_.erase(to_dominance_point(schema_, it->second), id);
  SUBCOVER_CHECK(erased, "sfc_covering_index: dominance index out of sync");
  subs_.erase(it);
  return true;
}

std::size_t sfc_covering_index::erase_batch(const std::vector<sub_id>& ids) {
  // Collect the known ids' dominance points first (ids may repeat within
  // the batch; only the first occurrence of each resolves), then hand the
  // dominance index one batch so the SFC array sorts / tombstones / compacts
  // once instead of per id.
  std::vector<std::pair<point, std::uint64_t>> points;
  std::vector<std::map<sub_id, subscription>::iterator> victims;
  points.reserve(ids.size());
  victims.reserve(ids.size());
  std::set<sub_id> batch_ids;
  for (const sub_id id : ids) {
    const auto it = subs_.find(id);
    if (it == subs_.end() || !batch_ids.insert(id).second) continue;
    points.emplace_back(to_dominance_point(schema_, it->second), id);
    victims.push_back(it);
  }
  const std::size_t erased = index_.erase_batch(points);
  SUBCOVER_CHECK(erased == points.size(), "sfc_covering_index: dominance index out of sync");
  for (const auto it : victims) subs_.erase(it);
  return victims.size();
}

std::optional<sub_id> sfc_covering_index::find_covering(const subscription& s, double epsilon,
                                                        covering_check_stats* stats) const {
  const stopwatch timer;
  covering_check_stats local;
  covering_check_stats& st = stats != nullptr ? *stats : local;
  st = covering_check_stats{};

  const point query = to_dominance_point(schema_, s);
  const auto hit = index_.query(query, epsilon, &st.dominance);
  std::optional<sub_id> result;
  if (hit.has_value()) {
    // A dominance hit corresponds to a covering subscription by the EO82
    // equivalence; verify against the stored rectangle anyway so that a
    // corrupted index can never produce a false covering (which would lose
    // messages in a broker).
    const auto it = subs_.find(*hit);
    SUBCOVER_CHECK(it != subs_.end(), "sfc_covering_index: hit unknown id");
    SUBCOVER_CHECK(it->second.covers(s), "sfc_covering_index: dominance hit does not cover");
    result = *hit;
    st.found = true;
  }
  st.elapsed_ns = timer.elapsed_ns();
  return result;
}

}  // namespace subcover
