// Sorted-vector implementation of the SFC array: contiguous storage with
// binary-search probes. O(n) insert, amortized O(log n) erase (tombstone +
// periodic compaction, below), O(log n) first_in — the right trade-off for
// mostly-static subscription tables and the reference oracle for the skip
// list in tests.
//
// Erase marks a tombstone instead of splicing the vector: a parallel dead
// bitmap (lazily allocated — insert/query-only workloads pay nothing) keeps
// the entry column contiguous for the binary-search probes, and probes
// skip dead slots after the bound. When the live fraction drops below the
// compaction threshold (set_compaction_policy, default 0.5), the next erase
// or maintain() compacts the vector in one stable pass — so sustained churn
// costs amortized O(log n) per erase plus O(n) once per n/2 erases, instead
// of an O(n) memmove per erase. Tombstones are invisible to every read path
// (first_in, probe_frontier, count_in, for_each, size); only
// memory_footprint and the maintenance_counters ledger see them.
//
// This backend exploits both bulk-population hooks: bulk_load sorts the
// batch once and merges it with the existing entries (O((n + m) + m log m)
// instead of m inserts of O(n) each), and the probe_hint overload of
// first_in gallops from the previous probe position, so a sequence of
// probes at nearby keys costs O(log distance) instead of O(log n) each.
//
// probe_frontier answers a sorted level frontier with a single merged
// galloping sweep: the lower-bound position of each range resumes from the
// previous range's answer (lows are monotone, so the bound can only move
// right — no restart from index 0), making M probes one left-to-right pass
// whose total cost is O(M + log n + log of the total distance swept).
//
// Probe-side lower bounds are key-only: query probes carry id 0, so the
// (key, id) order degenerates to the key order, and the bound is one
// std::lower_bound over the entry window at every key width.
#pragma once

#include <vector>

#include "sfcarray/sfc_array.h"

namespace subcover {

template <class K>
class basic_sorted_vector_array final : public basic_sfc_array<K> {
 public:
  using base = basic_sfc_array<K>;
  using entry = typename base::entry;
  using range_type = typename base::range_type;
  using probe_hint = typename base::probe_hint;
  using frontier_sink = typename base::frontier_sink;

  basic_sorted_vector_array() = default;

  using base::first_in;

  void insert(const K& key, std::uint64_t id) override;
  bool erase(const K& key, std::uint64_t id) override;
  std::size_t erase_batch(const std::vector<entry>& entries) override;
  void reserve(std::size_t n) override;
  void bulk_load(std::vector<entry> entries) override;
  [[nodiscard]] std::optional<entry> first_in(const range_type& r) const override;
  [[nodiscard]] std::optional<entry> first_in(const range_type& r,
                                              probe_hint* hint) const override;
  void probe_frontier(std::span<const range_type> frontier, frontier_sink& sink) const override;
  [[nodiscard]] std::uint64_t count_in(const range_type& r) const override;
  [[nodiscard]] std::size_t size() const override;
  void for_each(const std::function<void(const entry&)>& fn) const override;
  [[nodiscard]] std::size_t memory_footprint() const override;
  void maintain() override;
  [[nodiscard]] maintenance_counters maintenance() const override { return maint_; }
  void set_compaction_policy(double min_live_fraction) override;

  // Outstanding tombstones (dead slots not yet compacted). Test hook.
  [[nodiscard]] std::size_t tombstones() const { return tombstones_; }

 private:
  // True when slot i holds a tombstone. dead_ is lazily allocated: empty
  // means "no tombstones anywhere" (the invariant is dead_.empty() ||
  // dead_.size() == entries_.size()).
  [[nodiscard]] bool is_dead(std::size_t i) const { return !dead_.empty() && dead_[i] != 0; }
  // First live slot at or after i (entries_.size() if none).
  [[nodiscard]] std::size_t skip_dead(std::size_t i) const;
  // Marks one live (key, id) occurrence dead; false if absent.
  bool mark_dead(const K& key, std::uint64_t id);
  // Compacts iff the live fraction is below the policy threshold.
  void maybe_compact();
  // Stable-removes every dead slot and drops the bitmap.
  void compact();

  std::vector<entry> entries_;       // sorted by (key, id), dead slots included
  std::vector<std::uint8_t> dead_;   // parallel tombstone bitmap (lazy)
  std::size_t tombstones_ = 0;       // set bits in dead_
  double min_live_fraction_ = 0.5;   // compaction threshold
  maintenance_counters maint_;
};

using sorted_vector_array = basic_sorted_vector_array<u512>;

extern template class basic_sorted_vector_array<std::uint64_t>;
extern template class basic_sorted_vector_array<u128>;
extern template class basic_sorted_vector_array<u512>;

}  // namespace subcover
