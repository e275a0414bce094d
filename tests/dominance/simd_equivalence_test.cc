// Kernel equivalence: the vectorized query pipeline must be byte-identical
// to its plain-loop reference.
//
// On a u64-width universe query_plan runs its level-frontier work (cube
// coalescing, extent subtraction, the head argbest scan) through the
// runtime-dispatched kernels of util/simd_kernels.h; at u128 and u512 it
// runs its own plain loops. So the same data indexed at w64 (dispatched
// kernels), w128 (two-word plain loops) and w512 (the reference plain
// loops) must return the same answer with every query_stats field equal —
// physical probe-work and tier/maintenance counters included, since the
// key width changes how the numbers are computed, never what the plan or
// the arrays do. Only elapsed_ns may differ.
//
// The process-wide SUBCOVER_FORCE_SCALAR override is exercised by running
// the whole suite under it (CI's forced-scalar job), which pins the
// kernels' scalar backend against the same w512 reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dominance/dominance_index.h"
#include "util/random.h"

namespace subcover {
namespace {

point random_point(rng& gen, const universe& u) {
  point p(u.dims());
  for (int i = 0; i < u.dims(); ++i)
    p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
  return p;
}

// Every deterministic field (everything except elapsed_ns).
void expect_identical_stats(const query_stats& a, const query_stats& b, const std::string& what) {
  EXPECT_EQ(a.cubes_enumerated, b.cubes_enumerated) << what;
  EXPECT_EQ(a.runs_in_plan, b.runs_in_plan) << what;
  EXPECT_EQ(a.runs_probed, b.runs_probed) << what;
  EXPECT_EQ(a.frontier_batches, b.frontier_batches) << what;
  EXPECT_EQ(a.probes_restarted, b.probes_restarted) << what;
  EXPECT_EQ(a.probes_resumed, b.probes_resumed) << what;
  EXPECT_EQ(a.tier_cold_probes, b.tier_cold_probes) << what;
  EXPECT_EQ(a.tier_summary_answers, b.tier_summary_answers) << what;
  EXPECT_EQ(a.tier_blocks_decoded, b.tier_blocks_decoded) << what;
  EXPECT_EQ(a.tier_cold_hits, b.tier_cold_hits) << what;
  EXPECT_EQ(a.maint_tombstones_added, b.maint_tombstones_added) << what;
  EXPECT_EQ(a.maint_tombstones_purged, b.maint_tombstones_purged) << what;
  EXPECT_EQ(a.maint_compactions, b.maint_compactions) << what;
  EXPECT_EQ(a.truncation_m, b.truncation_m) << what;
  EXPECT_EQ(a.volume_fraction_planned, b.volume_fraction_planned) << what;
  EXPECT_EQ(a.volume_fraction_searched, b.volume_fraction_searched) << what;
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << what;
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

TEST(SimdEquivalence, KernelWidthsMatchPlainLoopWidthAcrossCurves) {
  // 24 key bits: representable at all three widths, so the same universe
  // cross-checks the u64 kernel path and the u128 plain loops against the
  // u512 plain-loop reference on identical data.
  const universe u(3, 8);
  rng gen(2024);
  std::vector<point> stored;
  for (int i = 0; i < 140; ++i) stored.push_back(random_point(gen, u));
  std::vector<point> queries;
  for (int q = 0; q < 24; ++q) queries.push_back(random_point(gen, u));

  for (const auto curve : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
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
            expect_identical_stats(sr, sn, what);
          }
        }
      }
    }
  }
}

TEST(SimdEquivalence, KernelWidthsComposeWithTieringAndSkiplist) {
  // 20 key bits: the tiered arrays' vectorized envelope scans run at every
  // width too, so the same cold-tier traffic must produce the same tier_*
  // and maint_* counters at w64/w128 as at the w512 reference.
  const universe u(4, 5);
  for (const auto array : {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector}) {
    auto make_index = [&](key_width w) {
      dominance_options o;
      o.array = array;
      o.width = w;
      o.tier_hot_capacity = 32;  // force cold-tier traffic through the
      o.tier_block_entries = 8;  // vectorized envelope scans
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
        expect_identical_stats(sr, s64, what + " w64");
        expect_identical_stats(sr, s128, what + " w128");
      }
    }
  }
}

}  // namespace
}  // namespace subcover
