// Width-equivalence property tests (the key-type selection contract of
// subcover.h): the u64 and u128 instantiations of the SFC pipeline compute
// bit-identical keys, prefixes, runs and query results to the u512
// reference instantiation, for all three curves. This is what makes the
// narrow-key fast path a pure constant-factor optimization.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dominance/dominance_index.h"
#include "sfc/curve.h"
#include "sfc/runs.h"
#include "util/key_traits.h"
#include "util/random.h"

namespace subcover {
namespace {

const curve_kind kKinds[] = {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code};

// Every standard cube of a small universe, visited via side-aligned corners.
template <class Fn>
void for_each_cube(const universe& u, Fn&& fn) {
  for (int s = 0; s <= u.bits(); ++s) {
    const std::uint32_t side = std::uint32_t{1} << s;
    const std::uint32_t n = std::uint32_t{1} << (u.bits() - s);
    std::vector<std::uint32_t> idx(static_cast<std::size_t>(u.dims()), 0);
    while (true) {
      point corner(u.dims());
      for (int j = 0; j < u.dims(); ++j) corner[j] = idx[static_cast<std::size_t>(j)] * side;
      fn(standard_cube(corner, s));
      int j = 0;
      for (; j < u.dims(); ++j) {
        if (++idx[static_cast<std::size_t>(j)] < n) break;
        idx[static_cast<std::size_t>(j)] = 0;
      }
      if (j == u.dims()) break;
    }
  }
}

template <class K>
void expect_curve_equivalence(curve_kind kind, const universe& u) {
  SCOPED_TRACE(testing::Message() << curve_kind_name(kind) << " d=" << u.dims()
                                  << " k=" << u.bits() << " bits=" << key_traits<K>::kBits);
  const auto narrow = make_basic_curve<K>(kind, u);
  const auto wide = make_basic_curve<u512>(kind, u);
  // Prefixes and cube ranges agree for every standard cube.
  for_each_cube(u, [&](const standard_cube& c) {
    ASSERT_EQ(key_traits<K>::widen(narrow->cube_prefix(c)), wide->cube_prefix(c));
    const auto nr = narrow->cube_range(c);
    const auto wr = wide->cube_range(c);
    ASSERT_EQ(key_traits<K>::widen(nr.lo), wr.lo);
    ASSERT_EQ(key_traits<K>::widen(nr.hi), wr.hi);
  });
  // Key -> cell agrees for every key (and closes the bijection round trip).
  const std::uint64_t cells = std::uint64_t{1} << u.key_bits();
  for (std::uint64_t key = 0; key < cells; ++key) {
    const point np = narrow->cell_from_key(static_cast<K>(key));
    const point wp = wide->cell_from_key(u512(key));
    ASSERT_EQ(np, wp) << "key=" << key;
    ASSERT_EQ(key_traits<K>::widen(narrow->cell_key(np)), wide->cell_key(wp));
  }
}

TEST(KeyWidthEquivalence, CurvesAgreeOnSmallUniverses) {
  for (const curve_kind kind : kKinds) {
    for (const auto& [d, k] : {std::pair{1, 6}, {2, 4}, {3, 3}, {4, 2}}) {
      const universe u(d, k);
      expect_curve_equivalence<std::uint64_t>(kind, u);
      expect_curve_equivalence<u128>(kind, u);
    }
  }
}

template <class K>
void expect_runs_equivalence(curve_kind kind, const universe& u, std::uint64_t seed) {
  const auto narrow = make_basic_curve<K>(kind, u);
  const auto wide = make_basic_curve<u512>(kind, u);
  rng gen(seed);
  for (int trial = 0; trial < 40; ++trial) {
    point lo(u.dims());
    point hi(u.dims());
    for (int j = 0; j < u.dims(); ++j) {
      // Bounded sides keep the decomposition small on big-coordinate
      // universes; the equivalence claim is per cube, so small regions
      // exercise it just as well.
      const auto side = gen.uniform(1, 16);
      const auto a = gen.uniform(0, u.side() - side);
      lo[j] = static_cast<std::uint32_t>(a);
      hi[j] = static_cast<std::uint32_t>(a + side - 1);
    }
    const rect r(lo, hi);
    const auto nruns = region_runs(*narrow, r);
    const auto wruns = region_runs(*wide, r);
    ASSERT_EQ(nruns.size(), wruns.size()) << curve_kind_name(kind) << " trial " << trial;
    for (std::size_t i = 0; i < nruns.size(); ++i) {
      ASSERT_EQ(key_traits<K>::widen(nruns[i].lo), wruns[i].lo);
      ASSERT_EQ(key_traits<K>::widen(nruns[i].hi), wruns[i].hi);
    }
  }
}

TEST(KeyWidthEquivalence, RunsAgreeOnRandomRects) {
  for (const curve_kind kind : kKinds) {
    expect_runs_equivalence<std::uint64_t>(kind, universe(2, 8), 11);   // 16 bits
    expect_runs_equivalence<std::uint64_t>(kind, universe(3, 7), 13);   // 21 bits
    expect_runs_equivalence<u128>(kind, universe(3, 7), 17);
    expect_runs_equivalence<u128>(kind, universe(5, 20), 19);           // 100 bits, u128 only
  }
}

// Dominance queries give identical results *and* identical work counters at
// every width: same cubes enumerated, same runs probed, same hits.
TEST(KeyWidthEquivalence, DominanceQueriesAgreeAcrossWidths) {
  const universe u(3, 8);  // 24 bits: all three widths representable
  for (const curve_kind kind : kKinds) {
    SCOPED_TRACE(curve_kind_name(kind));
    std::vector<std::unique_ptr<dominance_index>> indexes;
    for (const key_width w : {key_width::w64, key_width::w128, key_width::w512}) {
      dominance_options o;
      o.curve = kind;
      o.array = sfc_array_kind::sorted_vector;
      o.width = w;
      indexes.push_back(std::make_unique<dominance_index>(u, o));
    }
    EXPECT_EQ(indexes[0]->width(), key_width::w64);
    EXPECT_EQ(indexes[2]->width(), key_width::w512);
    rng gen(23);
    std::vector<std::pair<point, std::uint64_t>> pts;
    for (std::uint64_t i = 0; i < 500; ++i) {
      point p(u.dims());
      for (int j = 0; j < u.dims(); ++j)
        p[j] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
      pts.emplace_back(p, i);
    }
    for (auto& idx : indexes) idx->insert_batch(pts);
    for (const double eps : {0.0, 0.1}) {
      rng qgen(29);
      for (int trial = 0; trial < 50; ++trial) {
        point x(u.dims());
        for (int j = 0; j < u.dims(); ++j)
          x[j] = static_cast<std::uint32_t>(qgen.uniform(0, u.coord_max()));
        query_stats st64;
        query_stats st128;
        query_stats st512;
        const auto r64 = indexes[0]->query(x, eps, &st64);
        const auto r128 = indexes[1]->query(x, eps, &st128);
        const auto r512 = indexes[2]->query(x, eps, &st512);
        ASSERT_EQ(r64, r512) << "eps=" << eps << " trial=" << trial;
        ASSERT_EQ(r128, r512) << "eps=" << eps << " trial=" << trial;
        ASSERT_EQ(st64.cubes_enumerated, st512.cubes_enumerated);
        ASSERT_EQ(st128.cubes_enumerated, st512.cubes_enumerated);
        ASSERT_EQ(st64.runs_in_plan, st512.runs_in_plan);
        ASSERT_EQ(st128.runs_in_plan, st512.runs_in_plan);
        ASSERT_EQ(st64.runs_probed, st512.runs_probed);
        ASSERT_EQ(st128.runs_probed, st512.runs_probed);
        ASSERT_EQ(st64.volume_fraction_planned, st512.volume_fraction_planned);
        ASSERT_EQ(st128.volume_fraction_planned, st512.volume_fraction_planned);
        ASSERT_EQ(st64.volume_fraction_searched, st512.volume_fraction_searched);
        ASSERT_EQ(st128.volume_fraction_searched, st512.volume_fraction_searched);
        ASSERT_EQ(st64.truncation_m, st512.truncation_m);
        ASSERT_EQ(st64.budget_exhausted, st512.budget_exhausted);
        ASSERT_EQ(st64.found, st512.found);
      }
    }
  }
}

// Forcing a width too narrow for the universe must fail loudly.
TEST(KeyWidthEquivalence, ForcedNarrowWidthThrows) {
  dominance_options o;
  o.width = key_width::w64;
  EXPECT_THROW(dominance_index(universe(5, 20), o), std::invalid_argument);  // 100 bits
  o.width = key_width::w128;
  EXPECT_THROW(dominance_index(universe(8, 30), o), std::invalid_argument);  // 240 bits
}

// The selection ladder itself.
TEST(KeyWidthEquivalence, SelectKeyWidth) {
  EXPECT_EQ(select_key_width(1), key_width::w64);
  EXPECT_EQ(select_key_width(64), key_width::w64);
  EXPECT_EQ(select_key_width(65), key_width::w128);
  EXPECT_EQ(select_key_width(128), key_width::w128);
  EXPECT_EQ(select_key_width(129), key_width::w512);
  EXPECT_EQ(select_key_width(512), key_width::w512);
  EXPECT_EQ(dominance_index(universe(2, 9)).width(), key_width::w64);
  EXPECT_EQ(dominance_index(universe(6, 16)).width(), key_width::w128);
  EXPECT_EQ(dominance_index(universe(16, 16)).width(), key_width::w512);
}

}  // namespace
}  // namespace subcover
