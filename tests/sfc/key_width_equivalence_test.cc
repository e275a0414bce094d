// Width-equivalence property tests (the key-type selection contract of
// subcover.h): the u64 and u128 instantiations of the SFC pipeline compute
// bit-identical keys, prefixes, runs and query results to the u512
// reference instantiation, for all three curves, and dominance queries
// return the same answers with the same query_stats at every width (batched
// and single-range probing, skip list and sorted vector, tiering on and
// off). This is what makes the narrow-key fast path a pure constant-factor
// optimization.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dominance/dominance_index.h"
#include "sfc/curve.h"
#include "sfc/runs.h"
#include "support/query_stats_eq.h"
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

point random_point(rng& gen, const universe& u) {
  point p(u.dims());
  for (int i = 0; i < u.dims(); ++i)
    p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
  return p;
}

std::string width_name(key_width w) {
  switch (w) {
    case key_width::w64:
      return "w64";
    case key_width::w128:
      return "w128";
    default:
      return "w512";
  }
}

// Dominance queries give identical results *and* identical query_stats at
// every width — physical probe-work counters included, since the key width
// changes how the numbers are computed, never what the plan or the arrays
// do. Only elapsed_ns may differ.
TEST(KeyWidthEquivalence, DominanceQueriesAgreeAcrossWidthsAndCurves) {
  // 24 key bits: representable at all three widths, so the same universe
  // cross-checks w64 and w128 against the w512 reference on identical data.
  const universe u(3, 8);
  rng gen(2024);
  std::vector<point> stored;
  for (int i = 0; i < 140; ++i) stored.push_back(random_point(gen, u));
  std::vector<point> queries;
  for (int q = 0; q < 24; ++q) queries.push_back(random_point(gen, u));

  for (const curve_kind curve : kKinds) {
    for (const bool batched : {true, false}) {
      auto make_index = [&](key_width w) {
        dominance_options o;
        o.curve = curve;
        o.width = w;
        o.batched_probe = batched;
        o.array = sfc_array_kind::sorted_vector;
        auto idx = std::make_unique<dominance_index>(u, o);
        for (std::size_t i = 0; i < stored.size(); ++i) idx->insert(stored[i], i);
        return idx;
      };
      const auto reference = make_index(key_width::w512);
      ASSERT_EQ(reference->width(), key_width::w512);
      for (const key_width w : {key_width::w64, key_width::w128}) {
        const auto narrow = make_index(w);
        ASSERT_EQ(narrow->width(), w);
        for (const double eps : {0.0, 0.05, 0.35}) {
          for (const auto& x : queries) {
            const std::string what = std::string(curve_kind_name(curve)) + " " + width_name(w) +
                                     " batched=" + std::to_string(batched) +
                                     " eps=" + std::to_string(eps) + " x=" + x.to_string();
            query_stats sr, sn;
            const auto rr = reference->query(x, eps, &sr);
            const auto rn = narrow->query(x, eps, &sn);
            EXPECT_EQ(rr, rn) << what;
            expect_same_stats(sr, sn, what);
          }
        }
      }
    }
  }
}

TEST(KeyWidthEquivalence, DominanceQueriesAgreeAcrossWidthsWithTiering) {
  // 20 key bits: the tiered arrays' envelope scans run at every width too,
  // so the same cold-tier traffic must produce the same tier_* and maint_*
  // counters at w64/w128 as at the w512 reference.
  const universe u(4, 5);
  for (const auto array : {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector}) {
    auto make_index = [&](key_width w) {
      dominance_options o;
      o.array = array;
      o.width = w;
      o.tier_hot_capacity = 32;  // force cold-tier traffic through the
      o.tier_block_entries = 8;  // envelope scans
      return std::make_unique<dominance_index>(u, o);
    };
    const auto reference = make_index(key_width::w512);
    const auto w64 = make_index(key_width::w64);
    const auto w128 = make_index(key_width::w128);
    rng gen(55);
    for (int i = 0; i < 200; ++i) {
      const point p = random_point(gen, u);
      reference->insert(p, static_cast<std::uint64_t>(i));
      w64->insert(p, static_cast<std::uint64_t>(i));
      w128->insert(p, static_cast<std::uint64_t>(i));
    }
    for (const double eps : {0.0, 0.1}) {
      for (int q = 0; q < 25; ++q) {
        const point x = random_point(gen, u);
        const std::string what = "array=" + std::to_string(static_cast<int>(array)) +
                                 " eps=" + std::to_string(eps) + " x=" + x.to_string();
        query_stats sr, s64, s128;
        const auto rr = reference->query(x, eps, &sr);
        EXPECT_EQ(w64->query(x, eps, &s64), rr) << what;
        EXPECT_EQ(w128->query(x, eps, &s128), rr) << what;
        expect_same_stats(sr, s64, what + " w64");
        expect_same_stats(sr, s128, what + " w128");
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
