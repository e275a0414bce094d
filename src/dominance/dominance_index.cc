#include "dominance/dominance_index.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "dominance/query_plan.h"
#include "sfcarray/tiered_sfc_array.h"
#include "util/bitops.h"

namespace subcover {

namespace {

// Engine array factory honoring the tiering options: plain backend when
// tiering is off (the default), hot/cold tiered array when on.
template <class K>
std::unique_ptr<basic_sfc_array<K>> make_engine_array(const dominance_options& o) {
  if (o.tier_hot_capacity == 0) {
    auto a = make_basic_sfc_array<K>(o.array);
    a->set_compaction_policy(o.compact_live_fraction);
    return a;
  }
  tiered_array_options t;
  t.hot_backend = o.array;
  t.hot_capacity = o.tier_hot_capacity;
  t.block_entries = o.tier_block_entries;
  t.min_live_fraction = o.compact_live_fraction;
  return std::make_unique<basic_tiered_sfc_array<K>>(t);
}

}  // namespace

dominance_index::dominance_index(const universe& u, dominance_options options)
    : universe_(u),
      options_(options),
      width_(options.width == key_width::automatic ? select_key_width(u.key_bits())
                                                   : options.width) {
  switch (width_) {
    case key_width::w64:
      engine_.emplace<engine<std::uint64_t>>(
          engine<std::uint64_t>{make_basic_curve<std::uint64_t>(options.curve, u),
                                make_engine_array<std::uint64_t>(options_)});
      break;
    case key_width::w128:
      engine_.emplace<engine<u128>>(engine<u128>{make_basic_curve<u128>(options.curve, u),
                                                 make_engine_array<u128>(options_)});
      break;
    case key_width::w512:
    case key_width::automatic:
      width_ = key_width::w512;
      engine_.emplace<engine<u512>>(engine<u512>{make_basic_curve<u512>(options.curve, u),
                                                 make_engine_array<u512>(options_)});
      break;
  }
  plan_ = std::make_unique<query_plan>(*this);
}

dominance_index::~dominance_index() = default;

std::size_t dominance_index::size() const {
  return std::visit([](const auto& e) { return e.array->size(); }, engine_);
}

std::size_t dominance_index::memory_footprint() const {
  return std::visit([](const auto& e) { return e.array->memory_footprint(); }, engine_);
}

void dominance_index::insert(const point& p, std::uint64_t id) {
  if (!p.inside(universe_))
    throw std::invalid_argument("dominance_index::insert: point outside universe");
  std::visit([&](auto& e) { e.array->insert(e.curve->cell_key(p), id); }, engine_);
}

void dominance_index::insert_batch(const std::vector<std::pair<point, std::uint64_t>>& items) {
  for (const auto& [p, id] : items) {
    (void)id;
    if (!p.inside(universe_))
      throw std::invalid_argument("dominance_index::insert_batch: point outside universe");
  }
  std::visit(
      [&](auto& e) {
        using Array = std::decay_t<decltype(*e.array)>;
        std::vector<typename Array::entry> entries;
        entries.reserve(items.size());
        for (const auto& [p, id] : items) entries.push_back({e.curve->cell_key(p), id});
        e.array->bulk_load(std::move(entries));
      },
      engine_);
}

bool dominance_index::erase(const point& p, std::uint64_t id) {
  if (!p.inside(universe_))
    throw std::invalid_argument("dominance_index::erase: point outside universe");
  return std::visit([&](auto& e) { return e.array->erase(e.curve->cell_key(p), id); }, engine_);
}

std::size_t dominance_index::erase_batch(
    const std::vector<std::pair<point, std::uint64_t>>& items) {
  for (const auto& [p, id] : items) {
    (void)id;
    if (!p.inside(universe_))
      throw std::invalid_argument("dominance_index::erase_batch: point outside universe");
  }
  return std::visit(
      [&](auto& e) {
        using Array = std::decay_t<decltype(*e.array)>;
        std::vector<typename Array::entry> entries;
        entries.reserve(items.size());
        for (const auto& [p, id] : items) entries.push_back({e.curve->cell_key(p), id});
        return e.array->erase_batch(entries);
      },
      engine_);
}

void dominance_index::maintain() {
  std::visit([](auto& e) { e.array->maintain(); }, engine_);
}

maintenance_counters dominance_index::maintenance() const {
  return std::visit([](const auto& e) { return e.array->maintenance(); }, engine_);
}

int dominance_index::truncation_m(double epsilon) const {
  if (epsilon <= 0) return 0;
  const double d = universe_.dims();
  const int m = static_cast<int>(std::ceil(std::log2(2.0 * d / epsilon)));
  // Side lengths have at most k+1 bits (l = 2^k); truncating to more bits
  // than that is the identity, so clamp for a meaningful stat.
  return std::min(m, universe_.bits() + 1);
}

std::optional<std::uint64_t> dominance_index::query(const point& x, double epsilon,
                                                    query_stats* stats) const {
  return plan_->run(x, epsilon, stats);
}

std::vector<std::optional<std::uint64_t>> dominance_index::query_batch(
    const std::vector<point>& xs, double epsilon, std::vector<query_stats>* stats) const {
  std::vector<std::optional<std::uint64_t>> results;
  results.reserve(xs.size());
  if (stats != nullptr) stats->resize(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    results.push_back(plan_->run(xs[i], epsilon, stats != nullptr ? &(*stats)[i] : nullptr));
  return results;
}

}  // namespace subcover
