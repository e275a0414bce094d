// probe_frontier equivalence: the batched frontier sweep must visit exactly
// the runs the single-range first_in path visits, in the same (frontier)
// order, with byte-identical per-range answers — for realistic frontiers
// produced by the query planner's level enumerator (3 curves x 3 key
// widths) and for adversarial hand-built frontiers (empty, single-range,
// fully-overlapping with the stored runs, all-miss, duplicate lows). The
// early-stop contract (sink returns false) is pinned down too.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dominance/dominance_index.h"
#include "geometry/extremal.h"
#include "sfc/extremal_decomposition.h"
#include "sfc/key_range.h"
#include "sfcarray/sfc_array.h"
#include "util/key_traits.h"
#include "util/random.h"

namespace subcover {
namespace {

point random_point(rng& gen, const universe& u) {
  point p(u.dims());
  for (int i = 0; i < u.dims(); ++i)
    p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
  return p;
}

// Records every on_probe call; optionally stops after `stop_after` probes.
template <class K>
struct recording_sink final : basic_sfc_array<K>::frontier_sink {
  using entry = typename basic_sfc_array<K>::entry;

  std::vector<std::size_t> indices;
  std::vector<std::optional<entry>> answers;
  std::size_t stop_after = ~std::size_t{0};

  bool on_probe(std::size_t index, const entry* hit) override {
    indices.push_back(index);
    answers.push_back(hit != nullptr ? std::optional<entry>(*hit) : std::nullopt);
    return indices.size() < stop_after;
  }
};

// The reference semantics: one independent first_in per range.
template <class K>
std::vector<std::optional<typename basic_sfc_array<K>::entry>> reference_answers(
    const basic_sfc_array<K>& array, const std::vector<basic_key_range<K>>& frontier) {
  std::vector<std::optional<typename basic_sfc_array<K>::entry>> out;
  out.reserve(frontier.size());
  for (const auto& r : frontier) out.push_back(array.first_in(r));
  return out;
}

// Pins probe_frontier against the reference on one (array, frontier) pair.
template <class K>
void expect_frontier_matches(const basic_sfc_array<K>& array,
                             const std::vector<basic_key_range<K>>& frontier,
                             const std::string& what) {
  const auto expected = reference_answers(array, frontier);
  recording_sink<K> sink;
  array.probe_frontier(std::span<const basic_key_range<K>>(frontier), sink);
  ASSERT_EQ(sink.indices.size(), frontier.size()) << what;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    EXPECT_EQ(sink.indices[i], i) << what << " probe " << i;
    EXPECT_EQ(sink.answers[i], expected[i]) << what << " probe " << i << " range "
                                            << frontier[i].to_string();
  }
}

constexpr sfc_array_kind kKinds[] = {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector};
constexpr curve_kind kCurves[] = {curve_kind::z_order, curve_kind::hilbert,
                                  curve_kind::gray_code};

const char* kind_name(sfc_array_kind k) {
  return k == sfc_array_kind::skiplist ? "skiplist" : "sorted_vector";
}

// Realistic frontiers: exactly what query_plan feeds probe_frontier — the
// merged Equation-1 level ranges of extremal query regions — for every
// curve, key width and backend.
template <class K>
void planner_frontier_case(curve_kind ck, sfc_array_kind ak) {
  const universe u(2, 5);
  const auto curve = make_basic_curve<K>(ck, u);
  const auto array = make_basic_sfc_array<K>(ak);
  rng gen(0xf407 + static_cast<std::uint64_t>(ck) * 7 + static_cast<std::uint64_t>(ak));
  for (std::uint64_t id = 0; id < 150; ++id)
    array->insert(curve->cell_key(random_point(gen, u)), id);

  std::vector<basic_key_range<K>> frontier;
  for (int q = 0; q < 25; ++q) {
    const extremal_rect region = extremal_rect::query_region(u, random_point(gen, u));
    for (int i = u.bits(); i >= 0; --i) {
      frontier.clear();
      enumerate_level_ranges(*curve, region, i,
                             [&](const basic_key_range<K>& r) { frontier.push_back(r); });
      if (frontier.empty()) continue;
      merge_ranges_inplace(frontier);
      expect_frontier_matches(*array, frontier,
                              std::string(kind_name(ak)) + " level " + std::to_string(i));
    }
  }
}

TEST(ProbeFrontier, MatchesSingleRangePathOnPlannerFrontiers) {
  for (const curve_kind ck : kCurves) {
    for (const sfc_array_kind ak : kKinds) {
      planner_frontier_case<std::uint64_t>(ck, ak);
      planner_frontier_case<u128>(ck, ak);
      planner_frontier_case<u512>(ck, ak);
    }
  }
}

// Adversarial frontiers over a hand-built array: keys 10, 20, ..., 100 plus
// duplicates of 50 (ids 4, 105, 106) so the smallest-(key, id) rule is
// observable.
template <class K>
void adversarial_case(sfc_array_kind ak) {
  const auto array = make_basic_sfc_array<K>(ak);
  for (std::uint64_t i = 1; i <= 10; ++i) array->insert(K(i * 10), i - 1);
  array->insert(K(50), 105);
  array->insert(K(50), 106);
  const auto k = [](std::uint64_t v) { return K(v); };
  using range = basic_key_range<K>;
  const std::string what = kind_name(ak);

  // Empty frontier: the sink is never invoked.
  {
    recording_sink<K> sink;
    array->probe_frontier(std::span<const range>{}, sink);
    EXPECT_TRUE(sink.indices.empty()) << what;
  }
  // Single range, hit and miss.
  expect_frontier_matches<K>(*array, {range(k(15), k(35))}, what + " single-hit");
  expect_frontier_matches<K>(*array, {range(k(101), k(999))}, what + " single-miss");
  // Fully overlapping with the stored runs: every range hits, including
  // back-to-back ranges splitting one stored key's neighborhood and the
  // duplicate-key run (smallest id must win).
  expect_frontier_matches<K>(
      *array, {range(k(0), k(14)), range(k(15), k(49)), range(k(50), k(50)),
               range(k(51), k(120))},
      what + " overlapping");
  // All-miss: every range falls in a gap between stored keys.
  expect_frontier_matches<K>(
      *array, {range(k(1), k(9)), range(k(11), k(19)), range(k(41), k(49)),
               range(k(91), k(99)), range(k(101), k(102))},
      what + " all-miss");
  // Non-decreasing lows with duplicates (the contract's weakest legal
  // input): repeated and nested-from-equal-lo ranges.
  expect_frontier_matches<K>(
      *array, {range(k(30), k(30)), range(k(30), k(55)), range(k(30), k(95)),
               range(k(60), k(61)), range(k(60), k(80))},
      what + " duplicate-lows");
  // Early stop: returning false from the sink ends the sweep immediately.
  {
    const std::vector<range> frontier = {range(k(1), k(9)), range(k(15), k(35)),
                                         range(k(41), k(49)), range(k(55), k(65))};
    recording_sink<K> sink;
    sink.stop_after = 2;
    array->probe_frontier(std::span<const range>(frontier), sink);
    ASSERT_EQ(sink.indices.size(), 2u) << what;
    EXPECT_EQ(sink.indices[0], 0u) << what;
    EXPECT_EQ(sink.indices[1], 1u) << what;
  }
}

TEST(ProbeFrontier, AdversarialFrontiers) {
  for (const sfc_array_kind ak : kKinds) {
    adversarial_case<std::uint64_t>(ak);
    adversarial_case<u128>(ak);
    adversarial_case<u512>(ak);
  }
}

// The base-class default (independent first_in per range) is itself the
// reference implementation; a minimal backend inheriting it must satisfy
// the same contract, so derived backends can be pinned against it.
TEST(ProbeFrontier, DefaultImplementationIsReference) {
  // The sorted vector's single-range first_in is trusted (exhaustively
  // tested elsewhere); drive the default probe_frontier through a thin
  // wrapper that hides the override.
  struct wrapper final : basic_sfc_array<std::uint64_t> {
    std::unique_ptr<basic_sfc_array<std::uint64_t>> inner =
        make_basic_sfc_array<std::uint64_t>(sfc_array_kind::sorted_vector);

    void insert(const std::uint64_t& key, std::uint64_t id) override { inner->insert(key, id); }
    bool erase(const std::uint64_t& key, std::uint64_t id) override {
      return inner->erase(key, id);
    }
    [[nodiscard]] std::optional<entry> first_in(const range_type& r) const override {
      return inner->first_in(r);
    }
    [[nodiscard]] std::uint64_t count_in(const range_type& r) const override {
      return inner->count_in(r);
    }
    [[nodiscard]] std::size_t size() const override { return inner->size(); }
    [[nodiscard]] std::size_t memory_footprint() const override {
      return inner->memory_footprint();
    }
    void for_each(const std::function<void(const entry&)>& fn) const override {
      inner->for_each(fn);
    }
  };

  wrapper w;
  rng gen(99);
  for (std::uint64_t id = 0; id < 64; ++id) w.insert(gen.next() % 1000, id);
  std::vector<basic_key_range<std::uint64_t>> frontier;
  for (std::uint64_t lo = 0; lo < 1000; lo += 37) frontier.push_back({lo, lo + 20});
  expect_frontier_matches<std::uint64_t>(w, frontier, "default impl");
}

}  // namespace
}  // namespace subcover
