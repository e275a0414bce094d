// query_plan — the reusable, allocation-free engine behind
// dominance_index::query (paper Section 5).
//
// Architecture (plan -> probe, corner-free): a query is executed level by
// level, largest standard cubes first. For each occupied level of the
// (possibly truncated, Lemma 3.2) extremal query region, the plan streams
// exactly the cubes the coverage target can still need (the closed-form
// level counts of Lemma 3.5 bound the frontier in advance) straight out of
// the Equation-1 enumerator (extremal_decomposition.h) — the level
// enumeration constructs no standard_cube and touches no corner coordinate
// arrays; the curve's child_rank/descend_state API turns bit-plane toggles
// into prefix updates directly. The plan then coalesces the cubes into
// runs, orders the runs by volume, and probes them against the SFC array,
// tracking the searched-volume fraction and the max_cubes budget. The
// search stops at the first hit, at 1 - epsilon coverage, or when the plan
// is exhausted — identical semantics (results and stats) to the original
// monolithic query.
//
// Struct-of-arrays level frontier (the data-parallel layout): the frontier
// of the current level lives in plan-owned columns, not an array of range
// structs. Enumeration appends each cube's LOW key to `lo_col` (every cube
// of level i has the same extent — hi is lo | mask(d*i), never stored per
// cube); coalescing sorts that one key column and emits maximal runs into
// the `run_lo` / `run_hi` columns; `run_ext` (hi - lo lanes) feeds the
// volume ordering and the searched-volume accumulation. Each per-level
// primitive on those columns — cube coalescing, extent subtraction, the
// head-probe argbest scan, the sweep's suffix-min-rank table — is one plain
// loop templated on the key type, the same code at every width. The query
// cost is the cube enumeration and the array probes, not these O(cubes +
// runs) lane loops.
// Results, stop decisions and all query_stats are identical at every key
// width; only speed moves.
//
// Batched frontier probing (the default, dominance_options::batched_probe):
// instead of one independent first_in per run — each a fresh O(log n)
// descent of the SFC array — the plan hands the whole merged, key-ascending
// level frontier to basic_sfc_array::probe_frontier, which answers it in
// one resumed sweep (galloping cursor on the sorted vector, per-level
// fingers on the skip list). Volume-descending semantics are preserved
// exactly by separating the *sweep order* (key-ascending, what the array
// wants) from the *replay order* (volume-descending, what the search
// semantics demand): the plan records each range's probe answer during the
// sweep, then replays the answers in volume order, reproducing the
// single-range path's result, stop point and every pre-existing
// query_stats field byte for byte. Rank 0 — the run the single-range path
// probes first, which on hit-dense workloads usually decides the level —
// is found with one O(m) scan and probed alone before any ordering work;
// only a miss engages the sort + sweep machinery for the remaining ranks.
// Two prunings keep the sweep from touching runs the replay can never
// reach: (a) with epsilon > 0 the coverage stop point depends only on run
// volumes, so the sweep is cut to the exact volume-order prefix the replay
// can visit before probing anything; (b) once a sweep finds a hit, it
// stops as soon as every remaining range ranks below (smaller volume than)
// the best hit so far — a min-rank-of-suffix table makes that check O(1)
// per probe. The physical probe work is reported in the frontier_batches /
// probes_restarted / probes_resumed stats; runs_probed stays the paper's
// logical cost measure.
//
// Key width: the plan binds to the index's internal width at construction
// (util/key_traits.h) and keeps its level enumeration, run frontier, probe
// cursor and range arithmetic at that width end to end — on a d*k <= 64
// universe every endpoint the hot loop derives, sorts, merges and compares
// is one machine word. The Lemma 3.5 level counts stay u512 (they count
// cells, up to 2^(d*k), and are touched only once per level). Results are
// identical at every width.
//
// Scratch-buffer contract: a plan owns every buffer the search needs (the
// per-level cube counts, the frontier columns of the current level, the
// batched sweep's order/rank/answer buffers, and the array probe cursor).
// Buffers are reused across run() calls, so after the first query of a
// given shape the hot path performs zero heap allocations: no
// std::function dispatch (template visitors), no materialization of the
// full decomposition (per-level streaming with early stop), no
// exception-based control flow, and column-resident run coalescing. This
// is enforced by tests/dominance/query_plan_test.cc (WarmPlanPerformsZero-
// HeapAllocations), which counts operator new calls on a warm plan.
//
// Thread-safety contract: a query_plan is mutable scratch and is NOT
// thread-safe; use one plan per thread. dominance_index::query() routes
// through an index-internal plan, so concurrent query() calls on one index
// are not safe either — concurrent readers must each construct their own
// query_plan over the shared index.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "dominance/query_stats.h"
#include "geometry/point.h"
#include "sfc/curve.h"
#include "sfc/key_range.h"
#include "sfcarray/sfc_array.h"
#include "util/key_traits.h"
#include "util/wideint.h"

namespace subcover {

class dominance_index;
template <class K>
class basic_tiered_sfc_array;

class query_plan {
 public:
  // Binds to an index (and its key width); the plan must not outlive it.
  // Cheap: buffers are grown lazily by the first run().
  explicit query_plan(const dominance_index& index);

  // Executes one query; identical observable behavior (result and stats) to
  // dominance_index::query(x, epsilon, stats).
  std::optional<std::uint64_t> run(const point& x, double epsilon,
                                   query_stats* stats = nullptr);

  [[nodiscard]] const dominance_index& index() const { return *index_; }

 private:
  // The width-typed scratch: the bound curve/array and the struct-of-arrays
  // frontier of the current level, all at key type K.
  template <class K>
  struct typed_state {
    // No default member initializers: GCC rejects them in a nested class
    // template when std::variant's defaulted constructor is checked while
    // the enclosing class is still incomplete.
    typed_state() : curve(nullptr), array(nullptr), tiered(nullptr) {}

    const basic_curve<K>* curve;
    const basic_sfc_array<K>* array;
    // Non-null iff the index's array is hot/cold tiered
    // (dominance_options::tier_hot_capacity > 0). The plan snapshots its
    // tier counters around each query (diffed into query_stats) and runs
    // its maintenance step — promotion of cold hits, capacity flush — at
    // the end of run(). Non-const for exactly that maintenance call; the
    // probe path stays read-only.
    basic_tiered_sfc_array<K>* tiered;
    // Frontier columns of the current level. lo_col: cube lows in
    // enumeration order (the extent of every cube at level i is the
    // constant mask(d*i), so only lows are stored); run_lo/run_hi/run_ext:
    // the coalesced run frontier, key-ascending, one lane per run.
    std::vector<K> lo_col;
    std::vector<K> run_lo;
    std::vector<K> run_hi;
    std::vector<K> run_ext;
    // Materialized AoS sweep list handed to probe_frontier (the array API
    // speaks ranges, the frontier loops speak columns).
    std::vector<basic_key_range<K>> probe_ranges;
    typename basic_sfc_array<K>::probe_hint hint;  // probe-locality cursor
  };

  template <class K>
  std::optional<std::uint64_t> run_impl(typed_state<K>& ts, const point& x, double epsilon,
                                        query_stats* stats);

  const dominance_index* index_;
  std::vector<u512> level_counts_;  // Lemma 3.5 counts, reused per query
  // Batched-probe scratch (key-type independent, reused across queries):
  // replay_order_ maps volume-descending rank -> position in the run
  // columns; pos_rank_ is its inverse; probe_rank_ holds the rank of each
  // sweep-list element; suffix_min_rank_[i] = min rank among sweep elements
  // i..end (the sweep's early-stop oracle); hit_found_/hit_id_ record each
  // rank's probe answer for the replay.
  std::vector<std::uint32_t> replay_order_;
  std::vector<std::uint32_t> pos_rank_;
  std::vector<std::uint32_t> probe_rank_;
  std::vector<std::uint32_t> suffix_min_rank_;
  std::vector<std::uint8_t> hit_found_;
  std::vector<std::uint64_t> hit_id_;
  std::variant<typed_state<std::uint64_t>, typed_state<u128>, typed_state<u512>> state_;
};

}  // namespace subcover
