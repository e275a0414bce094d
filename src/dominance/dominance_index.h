// Point dominance index — the core engine of the paper.
//
// Problem 1 (exhaustive): given query point x, report any indexed point in
// the extremal region ([x_1, max], ..., [x_d, max]).
// Problem 2 (epsilon-approximate): search a sub-region of volume at least
// (1 - epsilon) * vol and report a point if one is found there.
//
// Algorithm (Section 5): points are kept in SFC order in an SFC array. A
// query streams the minimal standard-cube partition of its (possibly
// truncated, Lemma 3.2) extremal region directly as Equation-1 key
// intervals (the corner-free enumerator of extremal_decomposition.h — no
// cube coordinates are ever materialized), coalesces adjacent intervals
// into runs, and probes runs in descending volume order, tracking the
// searched fraction of the full region. It stops at the first hit, or once
// the searched fraction reaches 1 - epsilon, or when the plan is exhausted.
//
// The approximate search has one-sided error: a returned id always lies in
// the query region (true dominance); only misses are possible.
//
// Key-width selection: at construction the index picks the narrowest key
// type that holds the universe's d*k key bits — std::uint64_t (d*k <= 64),
// u128 (<= 128), or u512 — and instantiates the whole curve -> SFC array ->
// query pipeline at that width (util/key_traits.h). The paper's evaluation
// universes and most realistic schemas fit 128 bits, so probes, compares
// and shifts run on one or two machine words instead of eight. The choice
// is observable via width() and overridable with dominance_options::width
// (used by equivalence tests and benches); every width computes identical
// results.
//
// Query execution is split into a reusable query_plan (query_plan.h): the
// plan owns all scratch the search needs, so a warm plan performs zero heap
// allocations per query. query() routes through an index-internal plan —
// convenient, but it makes concurrent query() calls on one index unsafe
// even though query() is const. Concurrent readers (e.g. brokers sharing an
// index across threads) must construct one query_plan per thread instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "dominance/query_stats.h"
#include "geometry/extremal.h"
#include "geometry/point.h"
#include "geometry/universe.h"
#include "sfc/curve.h"
#include "sfcarray/sfc_array.h"
#include "util/key_traits.h"

namespace subcover {

struct dominance_options {
  curve_kind curve = curve_kind::z_order;
  sfc_array_kind array = sfc_array_kind::skiplist;
  // Key width of the internal pipeline. `automatic` (the default) selects
  // the narrowest type that fits the universe; forcing a wider type is
  // valid (tests force u512 to cross-check the narrow paths), forcing a
  // narrower one than the universe needs throws at construction.
  key_width width = key_width::automatic;
  // Probe each level's run frontier with one batched probe_frontier sweep
  // over the SFC array (resumed searches, sfcarray/sfc_array.h) instead of
  // one independent first_in per run. Results and every pre-existing
  // query_stats field are byte-identical either way; only the physical
  // probe-work counters (frontier_batches / probes_restarted /
  // probes_resumed) differ. Disable to force the single-range reference
  // path, the equivalence oracle in tests.
  bool batched_probe = true;
  // Safety valve: queries whose decomposition exceeds this many cubes either
  // throw std::length_error (settle_on_budget == false) or stop enumerating
  // and probe the partial plan collected so far (settle_on_budget == true).
  // Exhaustive queries on large regions grow as l^(d-1) (Theorem 4.1), and
  // query regions with unit-thickness dimensions (wildcard or open-ended
  // subscription constraints after the EO82 transform — the paper's "M x 1"
  // degenerate case) decompose into per-cell runs, so an unbounded search is
  // not viable in production. Settling keeps the one-sided error guarantee:
  // the partial plan holds the largest cubes, so coverage degrades
  // gracefully and hits are still always true.
  std::uint64_t max_cubes = std::uint64_t{1} << 24;
  bool settle_on_budget = false;
  // Hot/cold tiering (sfcarray/tiered_sfc_array.h). 0 (the default) keeps
  // the classic single-tier backend — every existing path is untouched.
  // > 0 stores the index in a tiered array: `array` becomes the hot-tier
  // backend holding at most this many recently inserted / recently hit
  // entries, everything else lives delta/varint-compressed in a
  // compressed_run_store and is decoded on demand. Results and all logical
  // query_stats are byte-identical either way; the physical tier_* stats
  // report the extra cold-tier work.
  std::size_t tier_hot_capacity = 0;
  // Entries per compressed cold-tier block (only meaningful when tiering
  // is enabled).
  std::size_t tier_block_entries = 64;
  // Compaction threshold for deferred erase (tombstones): a region (the
  // sorted vector, or one cold-tier block) is compacted when its live
  // fraction drops below this. 1.0 = eager per-erase compaction (the naive
  // baseline BM_Churn measures against), 0.0 = never compact. Backends
  // without tombstones (skip list) ignore it. Results and all logical
  // query_stats are identical for every setting; only the physical maint_*
  // counters and the erase cost move.
  double compact_live_fraction = 0.5;
};

class query_plan;

class dominance_index {
 public:
  explicit dominance_index(const universe& u, dominance_options options = {});
  ~dominance_index();

  // Multiset semantics; (p, id) pairs should be unique for erase to be
  // meaningful. Throws std::invalid_argument if p is outside the universe.
  void insert(const point& p, std::uint64_t id);
  bool erase(const point& p, std::uint64_t id);

  // Bulk insertion, equivalent to insert() per element; lets the SFC array
  // amortize (one sort + merge for the sorted-vector backend). Throws
  // std::invalid_argument (without modifying the index) if any point is
  // outside the universe.
  void insert_batch(const std::vector<std::pair<point, std::uint64_t>>& items);

  // Bulk erase mirroring insert_batch: equivalent to erase() per element
  // (order-insensitive), returns how many were actually removed, and lets
  // the SFC array pay its tombstone/compaction machinery once per batch —
  // the broker's bulk-withdrawal path. Throws std::invalid_argument
  // (without modifying the index) if any point is outside the universe.
  std::size_t erase_batch(const std::vector<std::pair<point, std::uint64_t>>& items);

  // Applies the backend's deferred maintenance (tombstone compaction, tier
  // flushes/promotions); also run automatically at the end of each query on
  // tiered backends. Churn drivers call it between epochs.
  void maintain();
  // Cumulative tombstone/compaction ledger of the underlying array.
  [[nodiscard]] maintenance_counters maintenance() const;

  // epsilon == 0 requests an exhaustive search; 0 < epsilon < 1 requests an
  // epsilon-approximate search (Problem 2). Values outside [0, 1) throw.
  // Routes through an internal scratch plan: NOT safe to call concurrently
  // on one index (see header comment).
  [[nodiscard]] std::optional<std::uint64_t> query(const point& x, double epsilon,
                                                   query_stats* stats = nullptr) const;

  // Runs one query per point through a single warm plan; results[i] matches
  // query(xs[i], epsilon). When `stats` is non-null it is resized to match
  // and receives the per-query stats. Cheaper than repeated query() calls
  // only in that it shares the same scratch — provided as the natural entry
  // point for callers that already batch (broker bootstrap, benches).
  [[nodiscard]] std::vector<std::optional<std::uint64_t>> query_batch(
      const std::vector<point>& xs, double epsilon,
      std::vector<query_stats>* stats = nullptr) const;

  [[nodiscard]] std::size_t size() const;
  // Bytes owned by the underlying SFC array (hot + cold tiers when tiering
  // is enabled), structural overhead included — see
  // basic_sfc_array::memory_footprint.
  [[nodiscard]] std::size_t memory_footprint() const;
  [[nodiscard]] const universe& space() const { return universe_; }
  // The key width the pipeline was instantiated at.
  [[nodiscard]] key_width width() const { return width_; }
  [[nodiscard]] const dominance_options& options() const { return options_; }

  // The truncation parameter the query will use for this epsilon:
  // m = ceil(log2(2d/epsilon)), clamped to the universe's side width
  // (Lemma 3.2 makes the truncated region cover >= 1 - epsilon of the
  // volume with this m).
  [[nodiscard]] int truncation_m(double epsilon) const;

 private:
  friend class query_plan;

  // The width-typed half of the index: the curve and the SFC array, both
  // instantiated at key type K.
  template <class K>
  struct engine {
    std::unique_ptr<basic_curve<K>> curve;
    std::unique_ptr<basic_sfc_array<K>> array;
  };

  universe universe_;
  dominance_options options_;
  key_width width_;
  std::variant<engine<std::uint64_t>, engine<u128>, engine<u512>> engine_;
  // Scratch plan behind query(); mutable because query() is logically const.
  // This is what makes query() non-reentrant (see header comment).
  mutable std::unique_ptr<query_plan> plan_;
};

}  // namespace subcover
