#include "sfcarray/sorted_vector_array.h"

#include <algorithm>
#include <cstddef>

namespace subcover {

namespace {
template <class Entry>
bool entry_less(const Entry& a, const Entry& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.id < b.id;
}
template <class Entry>
struct entry_cmp {
  bool operator()(const Entry& a, const Entry& b) const { return entry_less(a, b); }
};

// Key-only lower bound over the entry window [first, last), in pair indices.
// Every probe the query path issues carries id 0, so entry_less(e, probe)
// reduces to e.key < key and the bound is a pure key-column partition point.
template <class K, class Entry>
std::size_t key_lower_bound(const std::vector<Entry>& entries, std::size_t first,
                            std::size_t last, const K& key) {
  const Entry probe{key, 0};
  const auto begin = entries.begin();
  return static_cast<std::size_t>(std::lower_bound(begin + static_cast<std::ptrdiff_t>(first),
                                                   begin + static_cast<std::ptrdiff_t>(last),
                                                   probe, entry_cmp<Entry>{}) -
                                  begin);
}
}  // namespace

template <class K>
std::size_t basic_sorted_vector_array<K>::skip_dead(std::size_t i) const {
  if (dead_.empty()) return i;
  while (i < entries_.size() && dead_[i] != 0) ++i;
  return i;
}

template <class K>
void basic_sorted_vector_array<K>::insert(const K& key, std::uint64_t id) {
  const entry e{key, id};
  const auto ub = std::upper_bound(entries_.begin(), entries_.end(), e, entry_cmp<entry>{});
  if (!dead_.empty()) {
    // A dead exact duplicate can be resurrected in place: multiset-equal to
    // inserting a fresh copy, and O(log n) instead of an O(n) splice — the
    // erase-then-reinsert churn pattern never moves a byte.
    for (auto it = ub; it != entries_.begin() && *(it - 1) == e;) {
      --it;
      const std::size_t i = static_cast<std::size_t>(it - entries_.begin());
      if (dead_[i] != 0) {
        dead_[i] = 0;
        --tombstones_;
        return;
      }
    }
  }
  const std::size_t pos = static_cast<std::size_t>(ub - entries_.begin());
  entries_.insert(ub, e);
  if (!dead_.empty()) dead_.insert(dead_.begin() + static_cast<std::ptrdiff_t>(pos), 0);
}

template <class K>
bool basic_sorted_vector_array<K>::mark_dead(const K& key, std::uint64_t id) {
  const entry e{key, id};
  auto it = std::lower_bound(entries_.begin(), entries_.end(), e, entry_cmp<entry>{});
  // Exact duplicates may be partially dead already; kill the first live one.
  while (it != entries_.end() && *it == e &&
         is_dead(static_cast<std::size_t>(it - entries_.begin()))) {
    ++it;
  }
  if (it == entries_.end() || it->key != key || it->id != id) return false;
  if (dead_.empty()) dead_.assign(entries_.size(), 0);
  dead_[static_cast<std::size_t>(it - entries_.begin())] = 1;
  ++tombstones_;
  ++maint_.tombstones_added;
  return true;
}

template <class K>
bool basic_sorted_vector_array<K>::erase(const K& key, std::uint64_t id) {
  if (!mark_dead(key, id)) return false;
  maybe_compact();
  return true;
}

template <class K>
std::size_t basic_sorted_vector_array<K>::erase_batch(const std::vector<entry>& entries) {
  // One compaction decision for the whole batch: bulk withdrawals mark all
  // their tombstones first, then pay at most one O(n) pass.
  std::size_t erased = 0;
  for (const entry& e : entries) {
    if (mark_dead(e.key, e.id)) ++erased;
  }
  maybe_compact();
  return erased;
}

template <class K>
void basic_sorted_vector_array<K>::maybe_compact() {
  if (tombstones_ == 0) return;
  const std::size_t live = entries_.size() - tombstones_;
  if (static_cast<double>(live) < min_live_fraction_ * static_cast<double>(entries_.size())) {
    compact();
  }
}

template <class K>
void basic_sorted_vector_array<K>::compact() {
  if (tombstones_ == 0) return;
  std::size_t w = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (dead_[i] == 0) entries_[w++] = entries_[i];
  }
  entries_.resize(w);
  maint_.tombstones_purged += tombstones_;
  ++maint_.compactions;
  tombstones_ = 0;
  // Release the bitmap allocation, not just the elements: compaction is the
  // reclamation point, and the footprint must never exceed the tombstone-free
  // high-water mark after it (pinned by the memory_footprint audits). The
  // next erase re-allocates lazily.
  dead_ = std::vector<std::uint8_t>{};
}

template <class K>
void basic_sorted_vector_array<K>::maintain() {
  maybe_compact();
}

template <class K>
void basic_sorted_vector_array<K>::set_compaction_policy(double min_live_fraction) {
  min_live_fraction_ = std::clamp(min_live_fraction, 0.0, 1.0);
}

template <class K>
void basic_sorted_vector_array<K>::reserve(std::size_t n) {
  entries_.reserve(n);
}

template <class K>
void basic_sorted_vector_array<K>::bulk_load(std::vector<entry> entries) {
  // The merge below cannot carry the parallel bitmap through
  // std::inplace_merge; purge tombstones first so the bitmap is empty.
  compact();
  std::sort(entries.begin(), entries.end(), entry_cmp<entry>{});
  if (entries_.empty()) {
    entries_ = std::move(entries);
    return;
  }
  const std::size_t old_size = entries_.size();
  entries_.insert(entries_.end(), entries.begin(), entries.end());
  std::inplace_merge(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(old_size), entries_.end(),
                     entry_cmp<entry>{});
}

template <class K>
auto basic_sorted_vector_array<K>::first_in(const range_type& r) const -> std::optional<entry> {
  const std::size_t it = skip_dead(key_lower_bound(entries_, 0, entries_.size(), r.lo));
  if (it == entries_.size() || entries_[it].key > r.hi) return std::nullopt;
  return entries_[it];
}

template <class K>
auto basic_sorted_vector_array<K>::first_in(const range_type& r, probe_hint* hint) const
    -> std::optional<entry> {
  if (hint == nullptr) return first_in(r);
  const entry probe{r.lo, 0};
  // Gallop from the cursor: double the step until a window bracketing the
  // lower bound of r.lo is found, then binary-search inside it. Nearby
  // probes cost O(log distance); a stale or far cursor degrades gracefully
  // to O(log n).
  std::size_t lo = 0;
  std::size_t hi = entries_.size();
  std::size_t pos = hint->pos < entries_.size() ? hint->pos : entries_.size();
  if (pos < entries_.size() && entry_less(entries_[pos], probe)) {
    // Cursor is left of the answer: gallop right.
    std::size_t step = 1;
    lo = pos + 1;
    while (lo + step < entries_.size() && entry_less(entries_[lo + step - 1], probe)) {
      lo += step;
      step <<= 1;
    }
    hi = std::min(lo + step, entries_.size());
  } else {
    // Cursor is at or right of the answer: gallop left.
    std::size_t step = 1;
    hi = pos;
    while (step <= hi && !entry_less(entries_[hi - step], probe)) {
      hi -= step;
      step <<= 1;
    }
    lo = step <= hi ? hi - step : 0;
  }
  const std::size_t it = skip_dead(key_lower_bound(entries_, lo, hi, r.lo));
  hint->pos = it;
  if (it == entries_.size() || entries_[it].key > r.hi) return std::nullopt;
  return entries_[it];
}

template <class K>
void basic_sorted_vector_array<K>::probe_frontier(std::span<const range_type> frontier,
                                                  frontier_sink& sink) const {
  // One merged galloping sweep. `pos` is the first *live* entry at or after
  // the previous range's lo; every entry left of it is below every earlier
  // lo or dead, and frontier lows are non-decreasing, so the next lower
  // bound can only be at or right of `pos` — each search resumes instead of
  // restarting, and a run of tombstones is skipped once per sweep, not once
  // per range.
  std::size_t pos = 0;
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const range_type& r = frontier[i];
    const entry probe{r.lo, 0};
    std::size_t it;
    if (i == 0) {
      // First probe: a plain binary search — exactly first_in's cost (a
      // gallop from index 0 would double the comparisons).
      it = key_lower_bound(entries_, 0, entries_.size(), r.lo);
    } else if (pos >= entries_.size() || !entry_less(entries_[pos], probe)) {
      // The resumed cursor is already at (or past) the bound.
      it = pos;
    } else {
      // Gallop right from the cursor: double the step until a window
      // bracketing the lower bound is found, then binary-search inside it.
      // A probe `dist` entries ahead costs O(log dist) instead of O(log n).
      std::size_t lo = pos + 1;
      std::size_t step = 1;
      while (lo + step < entries_.size() && entry_less(entries_[lo + step - 1], probe)) {
        lo += step;
        step <<= 1;
      }
      const std::size_t hi = std::min(lo + step, entries_.size());
      it = key_lower_bound(entries_, lo, hi, r.lo);
    }
    it = skip_dead(it);
    pos = it;
    const entry* hit =
        (it < entries_.size() && entries_[it].key <= r.hi) ? &entries_[it] : nullptr;
    if (!sink.on_probe(i, hit)) return;
  }
}

template <class K>
std::uint64_t basic_sorted_vector_array<K>::count_in(const range_type& r) const {
  std::size_t it = key_lower_bound(entries_, 0, entries_.size(), r.lo);
  std::uint64_t count = 0;
  while (it < entries_.size() && entries_[it].key <= r.hi) {
    if (!is_dead(it)) ++count;
    ++it;
  }
  return count;
}

template <class K>
std::size_t basic_sorted_vector_array<K>::size() const {
  return entries_.size() - tombstones_;
}

template <class K>
void basic_sorted_vector_array<K>::for_each(const std::function<void(const entry&)>& fn) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!is_dead(i)) fn(entries_[i]);
  }
}

template <class K>
std::size_t basic_sorted_vector_array<K>::memory_footprint() const {
  // Capacity, not size: reserve slack (and the tombstone bitmap) is owned
  // memory too.
  return sizeof(*this) + entries_.capacity() * sizeof(entry) + dead_.capacity();
}

template class basic_sorted_vector_array<std::uint64_t>;
template class basic_sorted_vector_array<u128>;
template class basic_sorted_vector_array<u512>;

}  // namespace subcover
