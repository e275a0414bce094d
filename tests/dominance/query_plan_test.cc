// Equivalence and allocation-freedom of the plan -> probe query pipeline.
//
// query() routes through an index-internal query_plan; these tests pin down
// the contract the refactor must keep: (a) a reused plan, a fresh plan,
// query() and query_batch() all return the same hit and the same
// query_stats for the same input (scratch reuse leaks nothing between
// queries), (b) exhaustive results match a brute-force oracle, (c) the
// degenerate "M x 1" regions and the budget/settle path behave identically
// across entry points, and (d) a warm plan performs zero heap allocations
// per query — the acceptance criterion of the streaming refactor.
#include "dominance/query_plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "dominance/dominance_index.h"
#include "support/query_stats_eq.h"
#include "util/random.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t) { return ::operator new[](n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace subcover {
namespace {

point random_point(rng& gen, const universe& u) {
  point p(u.dims());
  for (int i = 0; i < u.dims(); ++i)
    p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
  return p;
}

TEST(QueryPlan, AllEntryPointsAgreeAcrossRandomUniverses) {
  rng gen(314);
  for (const int dims : {1, 2, 3, 4}) {
    for (const auto array : {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector}) {
      const universe u(dims, 5);
      dominance_options opts;
      opts.array = array;
      dominance_index idx(u, opts);
      std::vector<point> stored;
      for (std::uint64_t i = 0; i < 120; ++i) {
        stored.push_back(random_point(gen, u));
        idx.insert(stored.back(), i);
      }

      query_plan reused(idx);
      for (const double eps : {0.0, 0.01, 0.1, 0.5}) {
        std::vector<point> xs;
        for (int q = 0; q < 40; ++q) xs.push_back(random_point(gen, u));
        std::vector<query_stats> batch_stats;
        const auto batch = idx.query_batch(xs, eps, &batch_stats);
        ASSERT_EQ(batch.size(), xs.size());
        ASSERT_EQ(batch_stats.size(), xs.size());
        for (std::size_t q = 0; q < xs.size(); ++q) {
          const std::string what = "d=" + std::to_string(dims) + " eps=" + std::to_string(eps) +
                                   " x=" + xs[q].to_string();
          query_stats st_query;
          const auto via_query = idx.query(xs[q], eps, &st_query);
          query_stats st_reused;
          const auto via_reused = reused.run(xs[q], eps, &st_reused);
          query_plan fresh(idx);
          query_stats st_fresh;
          const auto via_fresh = fresh.run(xs[q], eps, &st_fresh);

          EXPECT_EQ(via_query, via_reused) << what;
          EXPECT_EQ(via_query, via_fresh) << what;
          EXPECT_EQ(via_query, batch[q]) << what;
          expect_same_stats(st_query, st_reused, what);
          expect_same_stats(st_query, st_fresh, what);
          expect_same_stats(st_query, batch_stats[q], what);

          // One-sided error: any hit is a true dominating point.
          if (via_query.has_value()) {
            EXPECT_TRUE(stored[*via_query].dominates(xs[q])) << what;
          }
          // Exhaustive queries match the brute-force oracle.
          if (eps == 0.0) {
            bool oracle = false;
            for (const auto& p : stored) oracle = oracle || p.dominates(xs[q]);
            EXPECT_EQ(via_query.has_value(), oracle) << what;
          }
        }
      }
    }
  }
}

TEST(QueryPlan, BatchedProbeIsByteIdenticalToSingleRangePath) {
  // The batched frontier sweep (probe_frontier + volume-order replay) must
  // reproduce the single-range reference path exactly: same hits, same
  // pre-existing stats (runs probed, searched fraction, ...) for every
  // curve, backend and epsilon. Only the physical probe-work counters may
  // differ — batching must strictly reduce fresh descents on multi-probe
  // queries.
  rng gen(4242);
  for (const auto curve : {curve_kind::z_order, curve_kind::hilbert, curve_kind::gray_code}) {
    for (const auto array : {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector}) {
      const universe u(2, 6);
      dominance_options batched_opts;
      batched_opts.curve = curve;
      batched_opts.array = array;
      batched_opts.batched_probe = true;
      dominance_options single_opts = batched_opts;
      single_opts.batched_probe = false;
      dominance_index batched_idx(u, batched_opts);
      dominance_index single_idx(u, single_opts);
      for (std::uint64_t i = 0; i < 200; ++i) {
        const point p = random_point(gen, u);
        batched_idx.insert(p, i);
        single_idx.insert(p, i);
      }

      std::uint64_t batched_restarts = 0;
      std::uint64_t single_restarts = 0;
      for (const double eps : {0.0, 0.02, 0.2, 0.6}) {
        for (int q = 0; q < 60; ++q) {
          const point x = random_point(gen, u);
          const std::string what = "curve=" + std::to_string(static_cast<int>(curve)) +
                                   " array=" + std::to_string(static_cast<int>(array)) +
                                   " eps=" + std::to_string(eps) + " x=" + x.to_string();
          query_stats st_batched;
          query_stats st_single;
          const auto via_batched = batched_idx.query(x, eps, &st_batched);
          const auto via_single = single_idx.query(x, eps, &st_single);
          EXPECT_EQ(via_batched, via_single) << what;
          expect_same_stats(st_batched, st_single, what, stats_fields::logical);
          // The reference path never batches; the batched path restarts at
          // most once per probed level (the head probe) plus once per
          // frontier sweep.
          EXPECT_EQ(st_single.frontier_batches, 0u) << what;
          EXPECT_EQ(st_single.probes_resumed, 0u) << what;
          EXPECT_EQ(st_single.probes_restarted, st_single.runs_probed) << what;
          EXPECT_LE(st_batched.probes_restarted,
                    st_batched.runs_probed + st_batched.frontier_batches)
              << what;
          batched_restarts += st_batched.probes_restarted;
          single_restarts += st_single.probes_restarted;
        }
      }
      EXPECT_LT(batched_restarts, single_restarts)
          << "batching should strictly reduce fresh descents";
    }
  }
}

TEST(QueryPlan, DegenerateMx1RegionsAgree) {
  // Query points with one coordinate at the maximum produce extremal regions
  // with a unit side — the paper's M x 1 worst case (per-cell runs). Use a
  // small settle budget so the budget path is exercised too.
  const universe u(2, 8);
  dominance_options opts;
  opts.max_cubes = 64;
  opts.settle_on_budget = true;
  dominance_index idx(u, opts);
  rng gen(27);
  for (std::uint64_t i = 0; i < 100; ++i) idx.insert(random_point(gen, u), i);

  query_plan reused(idx);
  for (const double eps : {0.0, 0.05, 0.3}) {
    for (std::uint32_t a = 0; a < 256; a += 37) {
      const point x{a, u.coord_max()};
      query_stats st_query;
      const auto via_query = idx.query(x, eps, &st_query);
      query_stats st_reused;
      const auto via_reused = reused.run(x, eps, &st_reused);
      const std::string what = "eps=" + std::to_string(eps) + " x=" + x.to_string();
      EXPECT_EQ(via_query, via_reused) << what;
      expect_same_stats(st_query, st_reused, what);
    }
  }
}

TEST(QueryPlan, BudgetThrowMatchesQuery) {
  dominance_options opts;
  opts.max_cubes = 16;
  dominance_index idx(universe(2, 9), opts);
  query_plan plan(idx);
  EXPECT_THROW((void)plan.run(point{255, 255}, 0.0), std::length_error);
  EXPECT_NO_THROW((void)plan.run(point{255, 255}, 0.5));
  // A failed run must not poison the plan's scratch for the next run.
  query_stats st_after;
  query_stats st_ref;
  const auto after = plan.run(point{255, 255}, 0.5, &st_after);
  const auto ref = query_plan(idx).run(point{255, 255}, 0.5, &st_ref);
  EXPECT_EQ(after, ref);
  expect_same_stats(st_after, st_ref, "post-throw reuse");
}

TEST(QueryPlan, InvalidArguments) {
  dominance_index idx(universe(2, 4));
  query_plan plan(idx);
  EXPECT_THROW((void)plan.run(point{0, 0}, -0.1), std::invalid_argument);
  EXPECT_THROW((void)plan.run(point{0, 0}, 1.0), std::invalid_argument);
  EXPECT_THROW((void)plan.run(point{0, 0, 0}, 0.0), std::invalid_argument);
}

TEST(QueryPlan, InsertBatchEquivalentToInserts) {
  const universe u(3, 5);
  dominance_options opts;
  opts.array = sfc_array_kind::sorted_vector;
  dominance_index via_loop(u, opts);
  dominance_index via_batch(u, opts);
  rng gen(55);
  std::vector<std::pair<point, std::uint64_t>> items;
  for (std::uint64_t i = 0; i < 200; ++i) items.emplace_back(random_point(gen, u), i);
  for (const auto& [p, id] : items) via_loop.insert(p, id);
  via_batch.insert_batch(items);
  ASSERT_EQ(via_batch.size(), via_loop.size());
  for (int q = 0; q < 100; ++q) {
    const point x = random_point(gen, u);
    for (const double eps : {0.0, 0.1}) {
      query_stats sa;
      query_stats sb;
      EXPECT_EQ(via_loop.query(x, eps, &sa), via_batch.query(x, eps, &sb));
      expect_same_stats(sa, sb, "insert_batch x=" + x.to_string());
    }
  }
  EXPECT_THROW(via_batch.insert_batch({{point{99, 0, 0}, 1}}), std::invalid_argument);
}

TEST(QueryPlan, WarmPlanPerformsZeroHeapAllocations) {
  // The acceptance criterion of the streaming refactor: after warm-up, a
  // query allocates nothing — no std::function, no materialized
  // decomposition, no per-query vectors.
  const universe u(2, 9);
  for (const auto array : {sfc_array_kind::skiplist, sfc_array_kind::sorted_vector}) {
    dominance_options opts;
    opts.array = array;
    dominance_index idx(u, opts);
    rng gen(77);
    for (std::uint64_t i = 0; i < 500; ++i) idx.insert(random_point(gen, u), i);

    query_plan plan(idx);
    const point miss{255, 255};  // 257x257 region, 385+ runs when exhaustive
    const point probe{10, 10};   // large region, likely early hit
    for (const double eps : {0.0, 0.01, 0.5}) {
      (void)plan.run(miss, eps);
      (void)plan.run(probe, eps);
    }
    for (const double eps : {0.0, 0.01, 0.5}) {
      const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
      (void)plan.run(miss, eps);
      (void)plan.run(probe, eps);
      const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after, before) << "eps=" << eps << " array="
                               << (array == sfc_array_kind::skiplist ? "skiplist" : "vector");
    }
  }
}

}  // namespace
}  // namespace subcover
