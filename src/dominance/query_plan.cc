#include "dominance/query_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

#include "dominance/dominance_index.h"
#include "sfc/extremal_decomposition.h"
#include "sfcarray/tiered_sfc_array.h"
#include "util/timer.h"

namespace subcover {

namespace {

// Stack-allocated receiver for one batched level sweep: records each probed
// range's answer under its replay rank and stops the sweep as soon as no
// remaining range can outrank the best hit found so far.
template <class K>
struct sweep_sink final : basic_sfc_array<K>::frontier_sink {
  using entry = typename basic_sfc_array<K>::entry;

  const std::uint32_t* rank;        // sweep position -> replay rank
  const std::uint32_t* suffix_min;  // min rank among sweep positions i..end
  std::size_t n;                    // sweep length
  std::uint8_t* found;              // rank-indexed answers
  std::uint64_t* ids;
  std::uint32_t best_rank;          // smallest rank that hit; "none" = cap
  std::uint64_t visited = 0;

  bool on_probe(std::size_t i, const entry* hit) override {
    ++visited;
    const std::uint32_t rk = rank[i];
    if (hit != nullptr) {
      found[rk] = 1;
      ids[rk] = hit->id;
      if (rk < best_rank) best_rank = rk;
    }
    // Continue while some unprobed range still ranks above (earlier in the
    // replay than) the best hit; once none does, the replay can never reach
    // an unprobed range.
    return i + 1 < n && suffix_min[i + 1] < best_rank;
  }
};

// The probe order within a level: larger runs first, ties by ascending key.
// This single definition is what "byte-identical" means for the batched and
// single-range paths — the AoS sort (reference path), the rank sort over
// the extent/lo columns and the head scan must all agree on it. Extents are
// compared via hi - lo: identical ordering to cell_count() without the +1's
// wrap at the full range.
template <class K>
bool probes_before(const basic_key_range<K>& a, const basic_key_range<K>& b) {
  const K ca = a.hi - a.lo;
  const K cb = b.hi - b.lo;
  if (ca != cb) return cb < ca;
  return a.lo < b.lo;
}

// --- frontier primitives ----------------------------------------------------
// One plain loop per primitive over the SoA columns, at every key width.

// Coalesces sorted, distinct, cube-aligned lows (cube span `cube_cells`)
// into maximal runs; equal-size aligned cubes chain exactly when
// lo[i] - lo[i-1] == cube_cells. Byte-identical to merge_ranges_inplace on
// the same cubes. Requires n > 0.
template <class K>
std::size_t coalesce_cubes(const K* lo, std::size_t n, const K& cube_cells, K* run_lo,
                           K* run_hi) {
  const K ext = cube_cells - key_traits<K>::one();
  std::size_t out = 0;
  run_lo[0] = lo[0];
  run_hi[0] = lo[0] | ext;
  for (std::size_t i = 1; i < n; ++i) {
    if (lo[i] - lo[i - 1] == cube_cells) {
      run_hi[out] = lo[i] | ext;
    } else {
      ++out;
      run_lo[out] = lo[i];
      run_hi[out] = lo[i] | ext;
    }
  }
  return out + 1;
}

// Argbest under probes_before over the extent/lo columns: largest extent,
// ties by smallest lo, further ties by first index. Requires n > 0.
template <class K>
std::size_t head_scan(const K* ext, const K* lo, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t p = 1; p < n; ++p) {
    const bool wins = ext[p] != ext[best] ? ext[best] < ext[p] : lo[p] < lo[best];
    if (wins) best = p;
  }
  return best;
}

}  // namespace

query_plan::query_plan(const dominance_index& index) : index_(&index) {
  // Bind the width-typed scratch to the index's engine.
  std::visit(
      [this](const auto& e) {
        using K = typename std::decay_t<decltype(*e.curve)>::key_type;
        typed_state<K> ts;
        ts.curve = e.curve.get();
        ts.array = e.array.get();
        // Tiered engines (tier_hot_capacity > 0) additionally expose the
        // tiering API; a plain backend leaves `tiered` null and the plan
        // skips all tier bookkeeping.
        ts.tiered = dynamic_cast<basic_tiered_sfc_array<K>*>(e.array.get());
        state_.emplace<typed_state<K>>(std::move(ts));
      },
      index.engine_);
}

std::optional<std::uint64_t> query_plan::run(const point& x, double epsilon,
                                             query_stats* stats) {
  return std::visit([&](auto& ts) { return run_impl(ts, x, epsilon, stats); }, state_);
}

template <class K>
std::optional<std::uint64_t> query_plan::run_impl(typed_state<K>& ts, const point& x,
                                                  double epsilon, query_stats* stats) {
  const dominance_index& idx = *index_;
  const universe& u = idx.space();
  const dominance_options& opts = idx.options();
  if (epsilon < 0 || epsilon >= 1)
    throw std::invalid_argument("dominance_index::query: epsilon must be in [0, 1)");
  if (!x.inside(u))
    throw std::invalid_argument("dominance_index::query: point outside universe");
  const stopwatch timer;

  const extremal_rect full = extremal_rect::query_region(u, x);
  const long double vol_full = full.volume_ld();
  const int m = idx.truncation_m(epsilon);
  const extremal_rect target = epsilon > 0 ? full.truncated(u, m) : full;

  query_stats local;
  query_stats& st = stats != nullptr ? *stats : local;
  st = query_stats{};
  st.truncation_m = m;
  st.volume_fraction_planned = target.volume_ld() / vol_full;

  // Tiered engine: the array's tier counters are cumulative; snapshot them
  // here and report this query's delta at the end. The maintenance ledger
  // (tombstones/compactions, any backend) is snapshotted the same way — the
  // end-of-query maintain() pass below is what moves it during a query.
  tier_counters tier_before;
  if (ts.tiered != nullptr) tier_before = ts.tiered->counters();
  const maintenance_counters maint_before = ts.array->maintenance();

  // The Section 5 search: probe standard cubes of the (truncated) region in
  // descending volume order, tracking the searched-volume ratio, and stop on
  // a hit or once the ratio reaches 1 - epsilon.
  //
  // The exact per-level cube counts N_i (Lemma 3.5, closed form — no
  // enumeration) tell us in advance how many levels the search can possibly
  // need: levels are consumed largest-first, so the search never descends
  // past the first level at which the cumulative volume reaches the
  // coverage target. Cubes below that cutoff are never enumerated, which is
  // what makes typical queries cheap even when the full decomposition is
  // astronomical (regions with extreme aspect ratios, Theorem 4.1).
  extremal_level_counts_into(u, target, level_counts_);
  const long double coverage_target =
      epsilon > 0 ? (1.0L - static_cast<long double>(epsilon)) * vol_full
                  : target.volume_ld();

  std::uint64_t budget = opts.max_cubes;
  long double searched = 0;
  long double planned_cum = 0;  // volume of levels enumerated so far
  std::optional<std::uint64_t> result;
  bool done = false;
  // One lo-column sink for the whole query: the emitter's per-level prefix /
  // state caches are reusable across levels (each fresh walk forces a full
  // recomputation via its watermark), so its construction cost is paid once
  // per query rather than once per occupied level. Only the cube's low key
  // is stored — every cube of level i spans the same extent, derived in
  // bulk after enumeration.
  std::uint64_t needed = 0;
  std::uint64_t taken = 0;
  auto sink = [&](const K& lo) {
    ts.lo_col.push_back(lo);
    return ++taken < needed;
  };
  detail::lo_emitter<K, decltype(sink)> ranges(*ts.curve, 0, sink);
  for (int i = u.bits(); i >= 0 && !done; --i) {
    const u512& count = level_counts_[static_cast<std::size_t>(i)];
    if (count.is_zero()) continue;
    const long double cube_volume = std::ldexp(1.0L, i * u.dims());
    const long double level_volume = count.to_long_double() * cube_volume;
    // Cubes needed from this level: all of it, unless the coverage target
    // falls inside this level (only possible for epsilon > 0; exhaustive
    // queries always take whole levels so no floating-point boundary math
    // can drop cubes).
    if (epsilon > 0 && planned_cum + level_volume >= coverage_target) {
      needed = static_cast<std::uint64_t>(
                   std::ceil((coverage_target - planned_cum) / cube_volume)) +
               1;  // +1 absorbs long-double rounding at the boundary
      done = true;  // no level below this one can be required
    } else if (count.bit_width() > 63) {
      needed = ~std::uint64_t{0};
    } else {
      needed = count.low64();
    }
    if (needed > budget) {
      if (!opts.settle_on_budget)
        throw std::length_error("dominance_index::query: cube budget exceeded");
      st.budget_exhausted = true;
      needed = budget;
      done = true;
    }
    if (needed == 0) break;

    // Stream exactly `needed` cube lows of the level into the frontier
    // column (all cubes of a level have equal volume, so any subset of the
    // right size reaches the same coverage). The corner-free enumerator
    // emits each cube directly as its Equation-1 low key at the plan's
    // width — no standard_cube, no coordinate arrays, no wide cube_prefix
    // math. The sink's bool return stops enumeration cleanly — no exception
    // control flow, no over-enumeration. count > 0 already implies the
    // level is occupied, so the walk runs unconditionally.
    ts.lo_col.clear();
    taken = 0;
    ranges.set_level(i);
    detail::level_walk<decltype(ranges)>(u, target, i, ranges, needed).run();
    const std::size_t cube_count = ts.lo_col.size();
    st.cubes_enumerated += cube_count;
    budget -= cube_count;
    planned_cum += level_volume;
    if (cube_count == 0) continue;
    const K level_mask = ranges.level_mask();  // hi == lo | level_mask at this level

    // Coalesce on the key column: sort the lows, then chain cubes that sit
    // exactly one cube span apart — byte-identical to merge_ranges_inplace
    // on the materialized ranges (equal-size aligned cubes can never
    // overlap or be closer than one span).
    std::sort(ts.lo_col.begin(), ts.lo_col.end());
    ts.run_lo.resize(cube_count);
    ts.run_hi.resize(cube_count);
    std::size_t run_count;
    if (cube_count == 1) {
      // Also the only case where the cube span could wrap the key width
      // (the whole-universe cube at d*k bits).
      ts.run_lo[0] = ts.lo_col[0];
      ts.run_hi[0] = ts.lo_col[0] | level_mask;
      run_count = 1;
    } else {
      run_count = coalesce_cubes<K>(ts.lo_col.data(), cube_count,
                                    level_mask + key_traits<K>::one(), ts.run_lo.data(),
                                    ts.run_hi.data());
    }
    st.runs_in_plan += run_count;

    // Volume of one run, exactly range.cell_count_ld().
    const auto run_cells_ld = [&ts](std::size_t p) {
      return key_traits<K>::to_long_double(ts.run_ext[p]) + 1.0L;
    };
    const auto run_at = [&ts](std::size_t p) {
      basic_key_range<K> r;
      r.lo = ts.run_lo[p];
      r.hi = ts.run_hi[p];
      return r;
    };

    if (opts.batched_probe && run_count <= std::numeric_limits<std::uint32_t>::max()) {
      // --- head probe + batched frontier sweep (see query_plan.h) ----------
      // The single-range path probes rank 0 — the first run in probe order
      // (probes_before) — before anything else, and on hit-dense workloads
      // that one probe usually decides the level. So rank 0 is found with
      // one O(run_count) scan (cheaper than a full sort) and probed alone;
      // only a miss sorts at all.
      // Extent lanes: the volume key of every ordering and accumulation
      // below.
      ts.run_ext.resize(run_count);
      for (std::size_t p = 0; p < run_count; ++p) ts.run_ext[p] = ts.run_hi[p] - ts.run_lo[p];
      const std::size_t head = head_scan<K>(ts.run_ext.data(), ts.run_lo.data(), run_count);
      ++st.runs_probed;
      ++st.probes_restarted;
      const auto head_hit = ts.array->first_in(run_at(head), &ts.hint);
      searched += run_cells_ld(head);
      // Probing of this level ended (hit or coverage reached). Distinct
      // from `done`, which the planning step above also sets when the
      // coverage target falls inside this level — such a level must still
      // be probed.
      bool level_stop = false;
      if (head_hit.has_value()) {
        result = head_hit->id;
        st.found = true;
        done = true;
        level_stop = true;
      } else if (epsilon > 0 && searched >= coverage_target) {
        done = true;
        level_stop = true;
      }
      if (!level_stop && run_count > 1) {
        // The probe order of the single-range path (probes_before) as a
        // rank -> position map over the merged frontier, sorted on the
        // extent/lo columns. probes_before's lo tie-break is well-defined
        // here: merged ranges have distinct lows.
        replay_order_.resize(run_count);
        std::iota(replay_order_.begin(), replay_order_.end(), 0U);
        std::sort(replay_order_.begin(), replay_order_.end(),
                  [&ext = ts.run_ext, &lo = ts.run_lo](std::uint32_t a, std::uint32_t b) {
                    if (ext[a] != ext[b]) return ext[b] < ext[a];
                    return lo[a] < lo[b];
                  });
        // With epsilon > 0 the coverage stop point depends only on run
        // volumes: rerun the accumulation (same long-double order the probe
        // loop would use, continuing after the head's contribution) to find
        // how many ranks the replay can possibly visit, and never probe
        // past them.
        std::size_t probe_count = run_count;
        if (epsilon > 0) {
          long double cum = searched;
          for (std::size_t j = 1; j < run_count; ++j) {
            cum += run_cells_ld(replay_order_[j]);
            if (cum >= coverage_target) {
              probe_count = j + 1;
              break;
            }
          }
        }
        // Sweep list: the rank < probe_count subset in key-ascending order,
        // each element carrying its rank. With no coverage cut (the common
        // case, and always for epsilon == 0) that is the whole frontier —
        // materialized straight off the run columns (re-answering the
        // already-probed head is harmless and cheaper than compacting it
        // away); only a genuine cut compacts, dropping the head with the
        // rest.
        pos_rank_.resize(run_count);
        for (std::size_t j = 0; j < run_count; ++j)
          pos_rank_[replay_order_[j]] = static_cast<std::uint32_t>(j);
        const std::uint32_t* sweep_rank = pos_rank_.data();
        std::size_t pn = run_count;
        if (probe_count < run_count) {
          ts.probe_ranges.clear();
          probe_rank_.clear();
          for (std::size_t pos = 0; pos < run_count; ++pos) {
            if (pos_rank_[pos] >= 1 && pos_rank_[pos] < probe_count) {
              ts.probe_ranges.push_back(run_at(pos));
              probe_rank_.push_back(pos_rank_[pos]);
            }
          }
          sweep_rank = probe_rank_.data();
          pn = ts.probe_ranges.size();
        } else {
          ts.probe_ranges.resize(run_count);
          for (std::size_t pos = 0; pos < run_count; ++pos) ts.probe_ranges[pos] = run_at(pos);
        }
        // Suffix-min-rank table: the sink's oracle for stopping the sweep
        // once no unprobed range can outrank the best hit. The head rank is
        // already answered (it missed), so it must not hold the sweep open;
        // it counts as the weakest rank.
        suffix_min_rank_.resize(pn);
        std::uint32_t min_rank = ~std::uint32_t{0};
        for (std::size_t j = pn; j-- > 0;) {
          if (sweep_rank[j] != 0) min_rank = std::min(min_rank, sweep_rank[j]);
          suffix_min_rank_[j] = min_rank;
        }
        hit_found_.assign(probe_count, 0);
        hit_id_.resize(probe_count);

        sweep_sink<K> sink;
        sink.rank = sweep_rank;
        sink.suffix_min = suffix_min_rank_.data();
        sink.n = pn;
        sink.found = hit_found_.data();
        sink.ids = hit_id_.data();
        sink.best_rank = static_cast<std::uint32_t>(probe_count);
        ts.array->probe_frontier(
            std::span<const basic_key_range<K>>(ts.probe_ranges.data(), pn), sink);
        ++st.frontier_batches;
        if (sink.visited > 0) {
          ++st.probes_restarted;
          st.probes_resumed += sink.visited - 1;
        }

        // Volume-order replay of the recorded answers, continuing after the
        // head: reproduces the single-range path's result, stop point and
        // stats byte for byte — every rank below the first hit was swept
        // (the early stop only fires once no unprobed range outranks the
        // best hit) and recorded as a miss.
        for (std::size_t j = 1; j < probe_count; ++j) {
          ++st.runs_probed;
          searched += run_cells_ld(replay_order_[j]);
          if (hit_found_[j] != 0) {
            result = hit_id_[j];
            st.found = true;
            done = true;
            break;
          }
          if (epsilon > 0 && searched >= coverage_target) {
            done = true;
            break;
          }
        }
      }
    } else {
      // --- single-range reference path -------------------------------------
      // One independent first_in per run (with the probe-locality cursor),
      // in probes_before order (larger merged runs first, ties by ascending
      // key); the ground truth the batched sweep is pinned against in tests.
      ts.probe_ranges.resize(run_count);
      for (std::size_t p = 0; p < run_count; ++p) ts.probe_ranges[p] = run_at(p);
      std::sort(ts.probe_ranges.begin(), ts.probe_ranges.end(), probes_before<K>);
      for (const basic_key_range<K>& run : ts.probe_ranges) {
        ++st.runs_probed;
        ++st.probes_restarted;
        const auto hit = ts.array->first_in(run, &ts.hint);
        searched += run.cell_count_ld();
        if (hit.has_value()) {
          result = hit->id;
          st.found = true;
          done = true;
          break;
        }
        if (epsilon > 0 && searched >= coverage_target) {
          done = true;
          break;
        }
      }
    }
  }
  st.volume_fraction_searched = searched / vol_full;
  if (ts.tiered != nullptr) {
    const tier_counters& now = ts.tiered->counters();
    st.tier_cold_probes = now.cold_probes - tier_before.cold_probes;
    st.tier_summary_answers = now.summary_answers - tier_before.summary_answers;
    st.tier_blocks_decoded = now.blocks_decoded - tier_before.blocks_decoded;
    st.tier_cold_hits = now.cold_hits - tier_before.cold_hits;
    // End-of-query maintenance: promote the cold entries this query hit
    // (and flush the hot tier if an insert burst overfilled it), so the
    // recently-hit working set is resident for the next query.
    ts.tiered->maintain();
  }
  {
    const maintenance_counters maint_now = ts.array->maintenance();
    st.maint_tombstones_added = maint_now.tombstones_added - maint_before.tombstones_added;
    st.maint_tombstones_purged = maint_now.tombstones_purged - maint_before.tombstones_purged;
    st.maint_compactions = maint_now.compactions - maint_before.compactions;
  }
  st.elapsed_ns = timer.elapsed_ns();
  return result;
}

}  // namespace subcover
