// E12 — google-benchmark micro-suite: per-operation costs of the building
// blocks (key generation per curve, greedy decomposition, streaming run
// coalescing, skip-list operations, warm-plan dominance queries, end-to-end
// covering checks).
//
// Output: the usual console table, plus machine-readable JSON written to
// BENCH_micro.json (override with --benchmark_out=...) so per-op ns and the
// probes/cubes/runs counters feed the perf-trajectory tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "broker/network.h"
#include "covering/sfc_covering_index.h"
#include "dominance/query_plan.h"
#include "util/timer.h"
#include "workload/churn_gen.h"
#include "sfc/decomposition.h"
#include "sfc/extremal_decomposition.h"
#include "sfc/gray_curve.h"
#include "sfc/hilbert_curve.h"
#include "sfc/runs.h"
#include "sfc/z_curve.h"
#include "sfcarray/skiplist_array.h"
#include "util/random.h"
#include "workload/subscription_gen.h"

namespace subcover {
namespace {

point random_point(rng& gen, const universe& u) {
  point p(u.dims());
  for (int i = 0; i < u.dims(); ++i)
    p[i] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
  return p;
}

void BM_ZCurveKey(benchmark::State& state) {
  const universe u(static_cast<int>(state.range(0)), 16);
  const z_curve c(u);
  rng gen(1);
  const point p = random_point(gen, u);
  for (auto _ : state) benchmark::DoNotOptimize(c.cell_key(p));
}
BENCHMARK(BM_ZCurveKey)->Arg(4)->Arg(8)->Arg(16);

void BM_HilbertCurveKey(benchmark::State& state) {
  const universe u(static_cast<int>(state.range(0)), 16);
  const hilbert_curve c(u);
  rng gen(1);
  const point p = random_point(gen, u);
  for (auto _ : state) benchmark::DoNotOptimize(c.cell_key(p));
}
BENCHMARK(BM_HilbertCurveKey)->Arg(4)->Arg(8)->Arg(16);

void BM_GrayCurveKey(benchmark::State& state) {
  const universe u(static_cast<int>(state.range(0)), 16);
  const gray_curve c(u);
  rng gen(1);
  const point p = random_point(gen, u);
  for (auto _ : state) benchmark::DoNotOptimize(c.cell_key(p));
}
BENCHMARK(BM_GrayCurveKey)->Arg(4)->Arg(8)->Arg(16);

// Narrow-key (u64) curve key generation, the production width for
// d*k <= 64 universes — the kernel the BMI2 pdep/pext interleave targets.
// Arg: dims at 16 bits per dim (2 -> 32-bit keys, 4 -> 64-bit keys).
template <class Curve>
void curve_key_narrow_bench(benchmark::State& state) {
  const universe u(static_cast<int>(state.range(0)), 16);
  const Curve c(u);
  rng gen(1);
  const point p = random_point(gen, u);
  for (auto _ : state) benchmark::DoNotOptimize(c.cell_key(p));
}

void BM_ZCurveKeyNarrow(benchmark::State& state) {
  curve_key_narrow_bench<basic_z_curve<std::uint64_t>>(state);
}
BENCHMARK(BM_ZCurveKeyNarrow)->Arg(2)->Arg(4);

void BM_HilbertCurveKeyNarrow(benchmark::State& state) {
  curve_key_narrow_bench<basic_hilbert_curve<std::uint64_t>>(state);
}
BENCHMARK(BM_HilbertCurveKeyNarrow)->Arg(2)->Arg(4);

void BM_GrayCurveKeyNarrow(benchmark::State& state) {
  curve_key_narrow_bench<basic_gray_curve<std::uint64_t>>(state);
}
BENCHMARK(BM_GrayCurveKeyNarrow)->Arg(2)->Arg(4);

void BM_Decompose257Square(benchmark::State& state) {
  const universe u(2, 9);
  const rect r(point{255, 255}, point{511, 511});
  for (auto _ : state) {
    std::uint64_t n = 0;
    decompose_rect(u, r, [&](const standard_cube&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_Decompose257Square);

void BM_RunsOfRandomRect(benchmark::State& state) {
  const universe u(2, 10);
  const z_curve z(u);
  rng gen(7);
  for (auto _ : state) {
    state.PauseTiming();
    const auto side = gen.uniform(1, 512);
    const auto x = gen.uniform(0, u.side() - side);
    const auto y = gen.uniform(0, u.side() - side);
    const rect r(point{static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y)},
                 point{static_cast<std::uint32_t>(x + side - 1),
                       static_cast<std::uint32_t>(y + side - 1)});
    state.ResumeTiming();
    benchmark::DoNotOptimize(count_runs(z, r));
  }
}
BENCHMARK(BM_RunsOfRandomRect);

void BM_RunStreamReused(benchmark::State& state) {
  // The allocation-free path: one warm run_stream over random rectangles.
  const universe u(2, 10);
  const z_curve z(u);
  run_stream stream(z);
  rng gen(7);
  std::uint64_t total_runs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto side = gen.uniform(1, 512);
    const auto x = gen.uniform(0, u.side() - side);
    const auto y = gen.uniform(0, u.side() - side);
    const rect r(point{static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y)},
                 point{static_cast<std::uint32_t>(x + side - 1),
                       static_cast<std::uint32_t>(y + side - 1)});
    state.ResumeTiming();
    stream.reset(r);
    key_range run;
    while (stream.next(&run)) ++total_runs;
    benchmark::DoNotOptimize(total_runs);
  }
  state.counters["runs"] =
      benchmark::Counter(static_cast<double>(total_runs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_RunStreamReused);

// The query planner's enumeration path in isolation: stream every level of
// an extremal query region as Equation-1 key ranges (largest cubes first),
// exactly what query_plan consumes. Arg: curve kind (0 = Z, 1 = Hilbert,
// 2 = Gray), at the production (u64) key width.
void BM_PlanLevelRanges(benchmark::State& state) {
  const universe u(2, 9);
  const curve_kind kind = static_cast<curve_kind>(state.range(0));
  const auto curve = make_basic_curve<std::uint64_t>(kind, u);
  rng gen(19);
  std::vector<extremal_rect> regions;
  for (int i = 0; i < 64; ++i) regions.push_back(extremal_rect::query_region(u, random_point(gen, u)));
  std::size_t next = 0;
  std::uint64_t total_ranges = 0;
  for (auto _ : state) {
    const extremal_rect& r = regions[next];
    next = (next + 1) % regions.size();
    for (int i = u.bits(); i >= 0; --i) {
      enumerate_level_ranges(*curve, r, i, [&](const basic_key_range<std::uint64_t>& run) {
        benchmark::DoNotOptimize(run.lo);
        ++total_ranges;
      });
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["ranges"] =
      benchmark::Counter(static_cast<double>(total_ranges), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PlanLevelRanges)->Arg(0)->Arg(1)->Arg(2);

void BM_DominanceQueryWarmPlan(benchmark::State& state) {
  // Warm-plan query throughput, the acceptance metric of the plan->probe
  // refactor. Arg: epsilon in percent (0 = exhaustive).
  const universe u(2, 9);
  dominance_index idx(u);
  rng gen(11);
  for (std::uint64_t i = 0; i < 50'000; ++i) idx.insert(random_point(gen, u), i);
  const double eps = static_cast<double>(state.range(0)) / 100.0;
  query_plan plan(idx);
  query_stats st;
  std::uint64_t probes = 0;
  std::uint64_t cubes = 0;
  std::uint64_t runs = 0;
  std::uint64_t restarts = 0;
  std::uint64_t resumed = 0;
  for (auto _ : state) {
    const point x = random_point(gen, u);
    benchmark::DoNotOptimize(plan.run(x, eps, &st));
    probes += st.runs_probed;
    cubes += st.cubes_enumerated;
    runs += st.runs_in_plan;
    restarts += st.probes_restarted;
    resumed += st.probes_resumed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["probes"] =
      benchmark::Counter(static_cast<double>(probes), benchmark::Counter::kAvgIterations);
  state.counters["cubes"] =
      benchmark::Counter(static_cast<double>(cubes), benchmark::Counter::kAvgIterations);
  state.counters["runs"] =
      benchmark::Counter(static_cast<double>(runs), benchmark::Counter::kAvgIterations);
  state.counters["restarts"] =
      benchmark::Counter(static_cast<double>(restarts), benchmark::Counter::kAvgIterations);
  state.counters["resumed"] =
      benchmark::Counter(static_cast<double>(resumed), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DominanceQueryWarmPlan)->Arg(0)->Arg(1)->Arg(10);

// --- per-key-width variants ------------------------------------------------
//
// The same workloads at d*k = 48, 96 and 256 bits, so the narrow-key fast
// path (u64 / u128 instantiations) and the u512 wide path are tracked side
// by side in BENCH_micro.json. The regions extend only in the first two
// dimensions (unit thickness elsewhere — the shape wildcard constraints
// produce after the EO82 transform), so the geometric work (cubes, runs,
// probes) is constant across widths and the per-op delta isolates the cost
// of key arithmetic.

universe width_universe(std::int64_t key_bits) {
  switch (key_bits) {
    case 48:
      return universe(3, 16);
    case 96:
      return universe(6, 16);
    default:
      return universe(16, 16);  // 256
  }
}

// A random box in dims 0 and 1, a random unit slice elsewhere.
rect width_rect(rng& gen, const universe& u) {
  point lo(u.dims());
  point hi(u.dims());
  for (int j = 0; j < u.dims(); ++j) {
    const auto a = gen.uniform(0, u.coord_max());
    lo[j] = static_cast<std::uint32_t>(a);
    hi[j] = static_cast<std::uint32_t>(a);
  }
  for (int j = 0; j < 2; ++j) {
    const auto side = gen.uniform(1, 64);
    const auto a = gen.uniform(0, u.side() - side);
    lo[j] = static_cast<std::uint32_t>(a);
    hi[j] = static_cast<std::uint32_t>(a + side - 1);
  }
  return {lo, hi};
}

template <class K>
void run_stream_width_bench(benchmark::State& state, const universe& u) {
  // The production path: the narrowest key type that fits the universe
  // (mirrors dominance_index's construction-time width selection).
  const basic_z_curve<K> c(u);
  basic_run_stream<K> stream(c);
  rng gen(7);
  std::vector<rect> rects;
  for (int i = 0; i < 64; ++i) rects.push_back(width_rect(gen, u));
  std::size_t next = 0;
  std::uint64_t total_runs = 0;
  for (auto _ : state) {
    stream.reset(rects[next]);
    next = (next + 1) % rects.size();
    basic_key_range<K> run;
    while (stream.next(&run)) ++total_runs;
    benchmark::DoNotOptimize(total_runs);
  }
  state.counters["runs"] =
      benchmark::Counter(static_cast<double>(total_runs), benchmark::Counter::kAvgIterations);
}

void BM_RunStreamWidth(benchmark::State& state) {
  const universe u = width_universe(state.range(0));
  switch (select_key_width(u.key_bits())) {
    case key_width::w64:
      run_stream_width_bench<std::uint64_t>(state, u);
      break;
    case key_width::w128:
      run_stream_width_bench<u128>(state, u);
      break;
    default:
      run_stream_width_bench<u512>(state, u);
      break;
  }
}
BENCHMARK(BM_RunStreamWidth)->Arg(48)->Arg(96)->Arg(256);

void BM_DominanceQueryWidth(benchmark::State& state) {
  const universe u = width_universe(state.range(0));
  dominance_options opts;
  opts.array = sfc_array_kind::sorted_vector;
  opts.settle_on_budget = true;
  opts.max_cubes = std::uint64_t{1} << 12;
  dominance_index idx(u, opts);
  rng gen(11);
  std::vector<std::pair<point, std::uint64_t>> pts;
  for (std::uint64_t i = 0; i < 20'000; ++i) pts.emplace_back(random_point(gen, u), i);
  idx.insert_batch(pts);
  std::vector<point> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(random_point(gen, u));
  std::size_t next = 0;
  query_plan plan(idx);
  query_stats st;
  std::uint64_t probes = 0;
  std::uint64_t cubes = 0;
  std::uint64_t restarts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.run(queries[next], 0.05, &st));
    next = (next + 1) % queries.size();
    probes += st.runs_probed;
    cubes += st.cubes_enumerated;
    restarts += st.probes_restarted;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["probes"] =
      benchmark::Counter(static_cast<double>(probes), benchmark::Counter::kAvgIterations);
  state.counters["cubes"] =
      benchmark::Counter(static_cast<double>(cubes), benchmark::Counter::kAvgIterations);
  state.counters["restarts"] =
      benchmark::Counter(static_cast<double>(restarts), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DominanceQueryWidth)->Arg(48)->Arg(96)->Arg(256);

// Bytes per subscription held by the dominance array, the storage headline
// of the compressed cold tier. ArgPair: (key bits 48/96/256, mode: 0 =
// materialized resident array — the default skiplist backend — 1 = tiered
// with the compressed cold store). 20k clustered points (fig9's
// covering-rich regime: key locality is what gap coding monetizes), loaded
// through the bulk path so the tiered side lands cold. The timed loop only
// measures the footprint audit itself; the counters are the metric:
// bytes_per_sub feeds the compression-floor gate in bench_compare.py
// (resident / tiered must stay >= 3x).
void BM_MemoryFootprint(benchmark::State& state) {
  const universe u = width_universe(state.range(0));
  const bool tiered = state.range(1) != 0;
  dominance_options opts;  // default array = skiplist, the production backend
  if (tiered) {
    opts.tier_hot_capacity = 1024;
    opts.tier_block_entries = 64;
  }
  dominance_index idx(u, opts);
  rng gen(23);
  constexpr std::size_t kSubs = 20'000;
  std::vector<std::pair<point, std::uint64_t>> pts;
  pts.reserve(kSubs);
  point center(u.dims());
  for (std::size_t i = 0; i < kSubs; ++i) {
    if (i % 100 == 0)
      for (int d = 0; d < u.dims(); ++d)
        center[d] = static_cast<std::uint32_t>(gen.uniform(0, u.coord_max()));
    point p(u.dims());
    for (int d = 0; d < u.dims(); ++d) {
      const std::uint64_t c = center[d] + gen.uniform(0, 15);
      p[d] = static_cast<std::uint32_t>(std::min<std::uint64_t>(c, u.coord_max()));
    }
    pts.emplace_back(p, i);
  }
  idx.insert_batch(pts);
  for (auto _ : state) benchmark::DoNotOptimize(idx.memory_footprint());
  state.counters["bytes_per_sub"] =
      static_cast<double>(idx.memory_footprint()) / static_cast<double>(kSubs);
  state.counters["bytes_total"] = static_cast<double>(idx.memory_footprint());
}
BENCHMARK(BM_MemoryFootprint)
    ->ArgPair(48, 0)
    ->ArgPair(48, 1)
    ->ArgPair(96, 0)
    ->ArgPair(96, 1)
    ->ArgPair(256, 0)
    ->ArgPair(256, 1);

// The batched probe primitive in isolation: one probe_frontier sweep over a
// 64-range sorted frontier vs 64 independent first_in probes, on both
// backends (arg0: 0 = skiplist, 1 = sorted_vector; arg1: 0 = single-range
// reference, 1 = batched sweep). 100k u64 entries; the frontier spans a
// random window of the key space, so most ranges resume a short distance
// from the previous one — the regime the query plan produces.
void BM_ProbeFrontier(benchmark::State& state) {
  const auto kind =
      state.range(0) == 0 ? sfc_array_kind::skiplist : sfc_array_kind::sorted_vector;
  const bool batched = state.range(1) != 0;
  const auto array = make_basic_sfc_array<std::uint64_t>(kind);
  rng gen(41);
  for (std::uint64_t i = 0; i < 100'000; ++i) array->insert(gen.next(), i);

  struct counting_sink final : basic_sfc_array<std::uint64_t>::frontier_sink {
    using entry = basic_sfc_array<std::uint64_t>::entry;
    std::uint64_t hits = 0;
    bool on_probe(std::size_t, const entry* hit) override {
      hits += hit != nullptr ? 1 : 0;
      return true;
    }
  };

  constexpr std::size_t kRanges = 64;
  std::vector<basic_key_range<std::uint64_t>> frontier;
  frontier.reserve(kRanges);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    frontier.clear();
    // A sorted frontier inside a random ~2^57-key window: 64 disjoint
    // ranges whose gaps mirror a merged query-plan level.
    std::uint64_t lo = gen.next() >> 7;
    for (std::size_t i = 0; i < kRanges; ++i) {
      const std::uint64_t extent = gen.next() >> 14;
      const std::uint64_t gap = gen.next() >> 14;
      frontier.push_back({lo, lo + extent});
      lo += extent + gap + 1;
    }
    state.ResumeTiming();
    if (batched) {
      counting_sink sink;
      array->probe_frontier(std::span<const basic_key_range<std::uint64_t>>(frontier), sink);
      hits += sink.hits;
    } else {
      for (const auto& r : frontier) hits += array->first_in(r).has_value() ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kRanges));
  state.counters["hits"] =
      benchmark::Counter(static_cast<double>(hits), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ProbeFrontier)
    ->ArgPair(0, 0)
    ->ArgPair(0, 1)
    ->ArgPair(1, 0)
    ->ArgPair(1, 1);

// Broker-network covering-check throughput under the sharded parallel
// engine: the fig10 workload (15-broker balanced tree, clustered uniform
// subscriptions, SFC covering indexes) driven through network::subscribe,
// at a sweep of worker counts. Arg: workers (0 = the deterministic
// sequential FIFO engine — the baseline the parallel sweep is judged
// against). The per-iteration time covers one whole subscription workload;
// items processed = covering checks performed, so the rate column is the
// headline checks/sec number. Network construction and workload generation
// are excluded via pause/resume.
void BM_NetworkThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const schema s = workload::make_uniform_schema(2, 8);
  constexpr int kSubs = 300;
  std::uint64_t checks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    network_options o;
    o.use_covering = true;
    o.epsilon = 0.05;
    o.workers = workers;
    o.factory = [](const schema& sc) {
      sfc_covering_options so;
      so.max_cubes = 8192;
      return std::make_unique<sfc_covering_index>(sc, so);
    };
    // std::optional so teardown (joining the pool, destroying every
    // per-link covering index) happens under PauseTiming too — otherwise
    // higher worker counts would be charged for joining more threads.
    std::optional<network> net;
    net.emplace(topology::balanced_tree(2, 3), s, o);
    workload::subscription_gen_options wo;
    wo.kind = workload::workload_kind::uniform;
    wo.mean_width = 0.45;
    wo.wildcard_prob = 0.02;
    workload::subscription_gen sgen(s, wo, 909);
    rng pick(911);
    std::vector<std::pair<int, subscription>> subs;
    subs.reserve(kSubs);
    for (int i = 0; i < kSubs; ++i)
      subs.emplace_back(static_cast<int>(pick.index(15)), sgen.next());
    state.ResumeTiming();
    for (const auto& [at, body] : subs) (void)net->subscribe(at, body);
    state.PauseTiming();
    checks += net->metrics().covering_checks;
    net.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(checks));
  state.counters["checks"] =
      benchmark::Counter(static_cast<double>(checks), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NetworkThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SkiplistInsert(benchmark::State& state) {
  skiplist_array sl;
  rng gen(3);
  std::uint64_t id = 0;
  for (auto _ : state) sl.insert(u512(gen.next()) << 64, id++);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SkiplistInsert);

void BM_SkiplistProbe(benchmark::State& state) {
  skiplist_array sl;
  rng gen(3);
  for (int i = 0; i < 100'000; ++i)
    sl.insert(u512(gen.next()), static_cast<std::uint64_t>(i));
  for (auto _ : state) {
    const u512 lo = gen.next();
    benchmark::DoNotOptimize(sl.first_in({lo, lo + (u512(1) << 50)}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SkiplistProbe);

sfc_covering_index& shared_index() {
  static sfc_covering_index* idx = [] {
    const schema s = workload::make_uniform_schema(2, 10);
    auto* index = new sfc_covering_index(s);
    workload::subscription_gen_options wo;
    wo.kind = workload::workload_kind::clustered;
    wo.wildcard_prob = 0.0;
    workload::subscription_gen gen(s, wo, 55);
    for (sub_id id = 0; id < 20'000; ++id) index->insert(id, gen.next());
    return index;
  }();
  return *idx;
}

void BM_CoveringCheckApprox(benchmark::State& state) {
  auto& idx = shared_index();
  const schema s = workload::make_uniform_schema(2, 10);
  workload::subscription_gen_options wo;
  wo.kind = workload::workload_kind::clustered;
  wo.wildcard_prob = 0.0;
  workload::subscription_gen gen(s, wo, 77);
  const double eps = static_cast<double>(state.range(0)) / 100.0;
  covering_check_stats st;
  std::uint64_t probes = 0;
  std::uint64_t cubes = 0;
  std::uint64_t runs = 0;
  std::uint64_t restarts = 0;
  std::uint64_t resumed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.find_covering(gen.next(), eps, &st));
    probes += st.dominance.runs_probed;
    cubes += st.dominance.cubes_enumerated;
    runs += st.dominance.runs_in_plan;
    restarts += st.dominance.probes_restarted;
    resumed += st.dominance.probes_resumed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["probes"] =
      benchmark::Counter(static_cast<double>(probes), benchmark::Counter::kAvgIterations);
  state.counters["cubes"] =
      benchmark::Counter(static_cast<double>(cubes), benchmark::Counter::kAvgIterations);
  state.counters["runs"] =
      benchmark::Counter(static_cast<double>(runs), benchmark::Counter::kAvgIterations);
  state.counters["restarts"] =
      benchmark::Counter(static_cast<double>(restarts), benchmark::Counter::kAvgIterations);
  state.counters["resumed"] =
      benchmark::Counter(static_cast<double>(resumed), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CoveringCheckApprox)->Arg(5)->Arg(20)->Arg(50);

void BM_CoveringInsertErase(benchmark::State& state) {
  const schema s = workload::make_uniform_schema(2, 10);
  sfc_covering_index idx(s);
  workload::subscription_gen gen(s, {}, 88);
  sub_id id = 1'000'000;
  for (auto _ : state) {
    const auto sub = gen.next();
    idx.insert(++id, sub);
    idx.erase(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoveringInsertErase);

// ---- BM_Churn: sustained mixed-op churn against the covering stack's
// deferred maintenance machinery.
//
// ArgPair: (live subscriptions, mode). Mode 0 = the naive-erase baseline
// (compact_live_fraction 1.0: every erase compacts its region eagerly —
// O(region) memmove / block rewrite per op); mode 1 = deferred tombstones
// (0.5: erases mark, compaction amortizes). Detection state is identical in
// both modes; only erase cost moves — the /1-vs-/0 items_per_second ratio
// of BM_ChurnErase at 1M is the >= 10x churn floor scripts/bench_compare.py
// gates.
//
// The index is the production tiered configuration (skiplist hot tier so
// both modes share identical in-place hot costs and the ratio isolates the
// cold store's erase path, compressed cold store) populated through the
// bulk path, then driven by a seeded churn_gen stream (clustered interests,
// uniform victims — at 1M live subscriptions virtually every withdrawal
// lands in the cold tier, the worst case for eager block rewrites — and
// flash crowds) with a maintenance epoch every 512 ops. Per-op latency is
// sampled with a monotonic clock; p50_ns / p99_ns are reported as counters
// so the ops/sec headline can be gated "at equal p99".
void BM_Churn(benchmark::State& state) {
  const auto n_subs = static_cast<std::size_t>(state.range(0));
  const bool tombstone = state.range(1) != 0;
  const schema s = workload::make_uniform_schema(2, 10);
  sfc_covering_options so;
  so.array = sfc_array_kind::skiplist;
  so.tier_hot_capacity = 4096;
  so.tier_block_entries = 64;
  so.compact_live_fraction = tombstone ? 0.5 : 1.0;
  so.max_cubes = 4096;
  so.settle_on_budget = true;
  sfc_covering_index idx(s, so);

  workload::churn_gen_options co;
  co.subscriptions.kind = workload::workload_kind::clustered;
  co.subscriptions.wildcard_prob = 0.0;
  co.publish_weight = 0.0;  // index-level harness: subscribe/unsubscribe only
  co.victim_skew = 0.0;
  co.flash_prob = 0.002;
  co.flash_len = 64;
  co.warmup_subscriptions = n_subs;
  workload::churn_gen gen(s, co, 4242);

  std::vector<std::pair<sub_id, subscription>> seed;
  seed.reserve(n_subs);
  for (std::size_t i = 0; i < n_subs; ++i) {
    const auto op = gen.next();
    seed.emplace_back(op.id, op.sub);
  }
  idx.insert_batch(seed);
  seed.clear();
  seed.shrink_to_fit();

  constexpr std::size_t kOpsPerIter = 2048;
  constexpr std::size_t kEpoch = 512;
  std::vector<std::uint64_t> latencies;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kOpsPerIter; ++i) {
      const auto op = gen.next();
      const stopwatch timer;
      if (op.kind == workload::churn_op::op_kind::subscribe) {
        idx.insert(op.id, op.sub);
      } else {
        idx.erase(op.id);
      }
      latencies.push_back(timer.elapsed_ns());
      if (++ops % kEpoch == 0) idx.maintain();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  const auto percentile = [&](double p) {
    const auto k = static_cast<std::ptrdiff_t>(p * static_cast<double>(latencies.size() - 1));
    std::nth_element(latencies.begin(), latencies.begin() + k, latencies.end());
    return static_cast<double>(latencies[static_cast<std::size_t>(k)]);
  };
  if (!latencies.empty()) {
    state.counters["p50_ns"] = percentile(0.50);
    state.counters["p99_ns"] = percentile(0.99);
  }
  const maintenance_counters maint = idx.index().maintenance();
  state.counters["tombstones"] = static_cast<double>(maint.tombstones_added);
  state.counters["purged"] = static_cast<double>(maint.tombstones_purged);
  state.counters["compactions"] = static_cast<double>(maint.compactions);
  state.counters["live"] = static_cast<double>(idx.size());
}
BENCHMARK(BM_Churn)
    ->ArgPair(100'000, 0)
    ->ArgPair(100'000, 1)
    ->ArgPair(1'000'000, 0)
    ->ArgPair(1'000'000, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The erase path in isolation: one bulk withdrawal (erase_batch — the
// broker's handle_unsubscribe_batch backend) of a random uniform cohort,
// re-inserted untimed so every iteration withdraws from a full index. Same
// ArgPair as BM_Churn. items/sec = erases/sec; the /1-vs-/0 ratio at 1M is
// the headline amortized-O(1)-vs-naive-O(region) number (>= 10x), free of
// the mixed stream's shared subscribe/flush costs.
void BM_ChurnErase(benchmark::State& state) {
  const auto n_subs = static_cast<std::size_t>(state.range(0));
  const bool tombstone = state.range(1) != 0;
  const schema s = workload::make_uniform_schema(2, 10);
  sfc_covering_options so;
  so.array = sfc_array_kind::skiplist;
  so.tier_hot_capacity = 4096;
  so.tier_block_entries = 64;
  so.compact_live_fraction = tombstone ? 0.5 : 1.0;
  so.max_cubes = 4096;
  so.settle_on_budget = true;
  sfc_covering_index idx(s, so);

  workload::subscription_gen_options wo;
  wo.kind = workload::workload_kind::clustered;
  wo.wildcard_prob = 0.0;
  workload::subscription_gen sgen(s, wo, 7171);
  std::vector<std::pair<sub_id, subscription>> subs;
  subs.reserve(n_subs);
  for (sub_id id = 0; id < n_subs; ++id) subs.emplace_back(id, sgen.next());
  idx.insert_batch(subs);

  constexpr std::size_t kCohort = 2048;
  rng pick(7272);
  std::vector<sub_id> cohort;
  std::vector<std::pair<sub_id, subscription>> bodies;
  std::uint64_t erased = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cohort.clear();
    bodies.clear();
    std::set<sub_id> chosen;
    while (chosen.size() < kCohort) chosen.insert(pick.index(n_subs));
    for (const sub_id id : chosen) {
      cohort.push_back(id);
      bodies.emplace_back(id, subs[id].second);
    }
    state.ResumeTiming();
    erased += idx.erase_batch(cohort);
    state.PauseTiming();
    idx.insert_batch(bodies);  // restore, so iterations are comparable
    idx.maintain();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(erased));
  const maintenance_counters maint = idx.index().maintenance();
  state.counters["tombstones"] = static_cast<double>(maint.tombstones_added);
  state.counters["purged"] = static_cast<double>(maint.tombstones_purged);
  state.counters["compactions"] = static_cast<double>(maint.compactions);
}
BENCHMARK(BM_ChurnErase)
    ->ArgPair(100'000, 0)
    ->ArgPair(100'000, 1)
    ->ArgPair(1'000'000, 0)
    ->ArgPair(1'000'000, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- BM_ChurnQuery: covering checks interleaved with sustained churn —
// the workload a production broker's index faces, which neither BM_Churn
// (publish_weight 0, no queries) nor BM_CoveringCheckApprox (static index,
// no churn) reproduces.
//
// Arg: live subscriptions. items/sec counts covering checks, and
// query_p50_ns / query_p99_ns time find_covering alone. Index config
// matches BM_Churn's production tombstone mode (skiplist hot tier,
// compressed cold store, deferred compaction), so tombstone-laden
// frontiers — the state maintenance leaves behind between epochs — are
// what the queries probe.
void BM_ChurnQuery(benchmark::State& state) {
  const auto n_subs = static_cast<std::size_t>(state.range(0));
  const schema s = workload::make_uniform_schema(2, 10);
  sfc_covering_options so;
  so.array = sfc_array_kind::skiplist;
  so.tier_hot_capacity = 4096;
  so.tier_block_entries = 64;
  so.compact_live_fraction = 0.5;
  so.max_cubes = 4096;
  so.settle_on_budget = true;
  sfc_covering_index idx(s, so);

  workload::churn_gen_options co;
  co.subscriptions.kind = workload::workload_kind::clustered;
  co.subscriptions.wildcard_prob = 0.0;
  co.publish_weight = 0.0;
  co.victim_skew = 0.0;
  co.flash_prob = 0.002;
  co.flash_len = 64;
  co.warmup_subscriptions = n_subs;
  workload::churn_gen gen(s, co, 4242);

  std::vector<std::pair<sub_id, subscription>> seed;
  seed.reserve(n_subs);
  for (std::size_t i = 0; i < n_subs; ++i) {
    const auto op = gen.next();
    seed.emplace_back(op.id, op.sub);
  }
  idx.insert_batch(seed);
  seed.clear();
  seed.shrink_to_fit();

  workload::subscription_gen_options qo;
  qo.kind = workload::workload_kind::clustered;
  qo.wildcard_prob = 0.0;
  workload::subscription_gen qgen(s, qo, 9191);

  constexpr std::size_t kOpsPerIter = 512;
  constexpr std::size_t kEpoch = 512;      // BM_Churn's maintenance cadence
  constexpr std::size_t kQueryEvery = 4;   // churn ops per covering check
  constexpr double kEps = 0.05;
  std::vector<std::uint64_t> latencies;
  covering_check_stats st;
  std::uint64_t ops = 0;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t probes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t resumed = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kOpsPerIter; ++i) {
      const auto op = gen.next();
      if (op.kind == workload::churn_op::op_kind::subscribe) {
        idx.insert(op.id, op.sub);
      } else {
        idx.erase(op.id);
      }
      if (++ops % kEpoch == 0) idx.maintain();
      if (ops % kQueryEvery == 0) {
        const auto probe_sub = qgen.next();
        const stopwatch timer;
        const auto hit = idx.find_covering(probe_sub, kEps, &st);
        latencies.push_back(timer.elapsed_ns());
        ++queries;
        if (hit) ++hits;
        probes += st.dominance.runs_probed;
        restarts += st.dominance.probes_restarted;
        resumed += st.dominance.probes_resumed;
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queries));
  const auto percentile = [&](double p) {
    const auto k = static_cast<std::ptrdiff_t>(p * static_cast<double>(latencies.size() - 1));
    std::nth_element(latencies.begin(), latencies.begin() + k, latencies.end());
    return static_cast<double>(latencies[static_cast<std::size_t>(k)]);
  };
  if (!latencies.empty()) {
    state.counters["query_p50_ns"] = percentile(0.50);
    state.counters["query_p99_ns"] = percentile(0.99);
  }
  const auto per_query = [&](std::uint64_t v) {
    return queries == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(queries);
  };
  state.counters["hit_rate"] = per_query(hits);
  state.counters["probes"] = per_query(probes);
  state.counters["restarts"] = per_query(restarts);
  state.counters["resumed"] = per_query(resumed);
}
BENCHMARK(BM_ChurnQuery)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The broker set-up the recorded history and its replay share.
struct recovery_setup {
  schema s = workload::make_uniform_schema(2, 8);
  std::vector<int> links = {1, 2, 3};
  covering_index_factory factory = [](const schema& sc) {
    sfc_covering_options so;
    so.max_cubes = 2048;
    return std::make_unique<sfc_covering_index>(sc, so);
  };
  broker_options bo = [] {
    broker_options o;
    o.use_covering = true;
    o.epsilon = 0.1;
    return o;
  }();
};

// Records a subscribe-heavy churn of n_records from mixed links, logged the
// way the fault engine logs it. The covering checks make this far slower
// than the replay it feeds, so each size is recorded once per process.
const broker_wal& recorded_history(const recovery_setup& setup, int n_records) {
  static std::map<int, std::unique_ptr<broker_wal>> cache;
  auto& slot = cache[n_records];
  if (slot != nullptr) return *slot;
  slot = std::make_unique<broker_wal>();
  broker_wal& wal = *slot;
  const schema& s = setup.s;
  const std::vector<int>& links = setup.links;
  broker writer(0, s, links, setup.factory, setup.bo);
  network_metrics m;
  workload::subscription_gen_options wo;
  wo.kind = workload::workload_kind::clustered;
  workload::subscription_gen sgen(s, wo, 1234);
  rng gen(1235);
  std::vector<std::pair<sub_id, int>> active;
  for (int i = 0; i < n_records; ++i) {
    const auto from_pick = gen.index(links.size() + 1);
    const int from = from_pick == links.size() ? kLocalLink : links[from_pick];
    wal_record r;
    r.op = static_cast<std::uint64_t>(i) + 1;
    r.from = from;
    r.seq = r.op;
    if (gen.uniform(0, 9) < 7 || active.size() < 4) {
      const sub_id id = static_cast<sub_id>(i) + 1;
      const auto body = sgen.next();
      const auto action = writer.handle_subscribe(from, id, body, m);
      r.k = wal_record::kind::subscribe;
      r.id = id;
      r.body = body;
      r.forwarded_links = action.forward_links;
      active.emplace_back(id, from);
    } else {
      const auto pick = gen.index(active.size());
      const auto [id, link] = active[pick];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      const auto action = writer.handle_unsubscribe(link, id, m);
      r.k = wal_record::kind::unsubscribe;
      r.from = link;
      r.id = id;
      r.withdrawn_links = action.forward_links;
      r.reforwards = action.reforwards;
    }
    wal.append(r);
  }
  return wal;
}

// WAL replay throughput: rebuild a broker from a recorded churn history
// (decode every framed record + apply_replay each disposition — no covering
// checks re-run, the records carry the decisions). Arg: log length in
// records. items/sec = records replayed per second, the recovery-time
// headline the checkpoint policy (fault_options::checkpoint_every) bounds.
void BM_RecoveryReplay(benchmark::State& state) {
  const auto n_records = static_cast<int>(state.range(0));
  static const recovery_setup setup;
  const broker_wal& wal = recorded_history(setup, n_records);
  for (auto _ : state) {
    const auto rec = wal.recover();
    benchmark::DoNotOptimize(rec.records.size());
    const broker rebuilt =
        broker::recover(0, setup.s, setup.links, setup.factory, setup.bo, rec);
    benchmark::DoNotOptimize(rebuilt.routing_entries());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n_records);
  state.counters["wal_bytes"] = benchmark::Counter(static_cast<double>(wal.bytes_appended()));
}
BENCHMARK(BM_RecoveryReplay)->Arg(1024)->Arg(8192)->UseRealTime();

}  // namespace
}  // namespace subcover

// Custom main: unless the caller passes --benchmark_out, also write the
// results as JSON to BENCH_micro.json so perf tracking has a
// machine-readable record of every run (per-op ns plus the probes / cubes /
// runs counters).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--benchmark_out") == 0 ||
        std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
      has_out = true;
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
