#include "sfcarray/compressed_run_store.h"

#include <algorithm>
#include <stdexcept>
#include <utility>


namespace subcover {

namespace {

template <class E>
bool entry_less(const E& a, const E& b) {
  if (a.key != b.key) return a.key < b.key;
  return a.id < b.id;
}

}  // namespace

template <class K>
compressed_run_store<K>::compressed_run_store(std::size_t block_entries)
    : block_entries_(block_entries == 0 ? 1 : block_entries) {}

template <class K>
void compressed_run_store<K>::encode_chunked(const std::vector<entry>& items, std::size_t from,
                                             std::size_t to, std::vector<block>* blocks,
                                             std::vector<summary>* summaries) const {
  std::size_t b = from;
  while (b < to) {
    std::size_t e = std::min(b + block_entries_, to);
    // Never split a run of equal keys across blocks: extend until the next
    // entry starts a new key.
    while (e < to && items[e].key == items[e - 1].key) ++e;

    block blk;
    summary s;
    s.lo = items[b].key;
    s.hi = items[e - 1].key;
    s.first_id = items[b].id;
    s.count = static_cast<std::uint32_t>(e - b);
    detail::put_varint(blk.bytes, items[b].key);
    detail::put_varint(blk.bytes, items[b].id);
    for (std::size_t i = b + 1; i < e; ++i) {
      detail::put_varint(blk.bytes, static_cast<K>(items[i].key - items[i - 1].key));
      detail::put_varint(blk.bytes, items[i].id);
    }
    blk.bytes.shrink_to_fit();
    blocks->push_back(std::move(blk));
    summaries->push_back(s);
    b = e;
  }
}

template <class K>
void compressed_run_store<K>::rebuild_envelopes() {
  const std::size_t n = summaries_.size();
  env_lo_.resize(n);
  env_hi_.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    env_lo_[b] = summaries_[b].lo;
    env_hi_[b] = summaries_[b].hi;
  }
}

template <class K>
std::size_t compressed_run_store<K>::block_geq(const K& key) const {
  // Envelope his are strictly increasing, so block assignment is a plain
  // partition point over the hi column: a column-local (cache-dense)
  // binary search.
  const auto it = std::lower_bound(env_hi_.begin(), env_hi_.end(), key);
  return static_cast<std::size_t>(it - env_hi_.begin());
}

template <class K>
const std::vector<typename compressed_run_store<K>::entry>& compressed_run_store<K>::decode(
    std::size_t b, tier_counters* c) const {
  if (cached_block_ == b) return cache_;
  if (c != nullptr) ++c->blocks_decoded;
  const summary& s = summaries_[b];
  cache_.clear();
  cache_.reserve(s.count);
  const std::uint8_t* p = blocks_[b].bytes.data();
  entry e;
  e.key = detail::get_varint<K>(p);
  e.id = detail::get_varint<std::uint64_t>(p);
  cache_.push_back(e);
  for (std::uint32_t i = 1; i < s.count; ++i) {
    e.key = static_cast<K>(e.key + detail::get_varint<K>(p));
    e.id = detail::get_varint<std::uint64_t>(p);
    cache_.push_back(e);
  }
  cached_block_ = b;
  return cache_;
}

template <class K>
void compressed_run_store<K>::merge_in(std::vector<entry> items) {
  if (items.empty()) return;
  std::sort(items.begin(), items.end(), entry_less<entry>);
  const std::size_t n = items.size();

  if (blocks_.empty()) {
    encode_chunked(items, 0, n, &blocks_, &summaries_);
    size_ += n;
    rebuild_envelopes();
    return;
  }

  std::vector<block> nb;
  std::vector<summary> ns;
  nb.reserve(blocks_.size() + n / block_entries_ + 1);
  ns.reserve(nb.capacity());
  std::vector<entry> merged;  // scratch for blocks the batch touches
  std::vector<entry> live;    // scratch: touched blocks minus their tombstones

  std::size_t i = 0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    // Batch entries strictly below this block's envelope become fresh
    // blocks of their own (their keys fall in the gap between envelopes).
    const std::size_t gap_from = i;
    while (i < n && items[i].key < summaries_[b].lo) ++i;
    if (i > gap_from) encode_chunked(items, gap_from, i, &nb, &ns);

    if (i < n && items[i].key <= summaries_[b].hi) {
      // The batch lands inside this block: decode, merge, re-encode. A
      // rewrite is a compaction for free — the block's tombstones (if any)
      // are dropped from both the payload and the graveyard on the way.
      std::size_t j = i;
      while (j < n && items[j].key <= summaries_[b].hi) ++j;
      const std::vector<entry>& old = decode(b, nullptr);
      merged.clear();
      merged.reserve(old.size() + (j - i));
      if (summaries_[b].dead != 0) {
        const auto d_lo = std::lower_bound(dead_.begin(), dead_.end(),
                                           entry{summaries_[b].lo, 0}, entry_less<entry>);
        const auto d_hi =
            std::upper_bound(d_lo, dead_.end(), summaries_[b].hi,
                             [](const K& k, const entry& e) { return k < e.key; });
        live.clear();
        live.reserve(old.size() - static_cast<std::size_t>(d_hi - d_lo));
        std::set_difference(old.begin(), old.end(), d_lo, d_hi, std::back_inserter(live),
                            entry_less<entry>);
        maint_.tombstones_purged += static_cast<std::uint64_t>(d_hi - d_lo);
        dead_.erase(d_lo, d_hi);
        std::merge(live.begin(), live.end(), items.begin() + static_cast<std::ptrdiff_t>(i),
                   items.begin() + static_cast<std::ptrdiff_t>(j), std::back_inserter(merged),
                   entry_less<entry>);
      } else {
        std::merge(old.begin(), old.end(), items.begin() + static_cast<std::ptrdiff_t>(i),
                   items.begin() + static_cast<std::ptrdiff_t>(j), std::back_inserter(merged),
                   entry_less<entry>);
      }
      encode_chunked(merged, 0, merged.size(), &nb, &ns);
      i = j;
    } else {
      // Untouched: move the encoded bytes verbatim.
      nb.push_back(std::move(blocks_[b]));
      ns.push_back(summaries_[b]);
    }
  }
  if (i < n) encode_chunked(items, i, n, &nb, &ns);

  blocks_ = std::move(nb);
  summaries_ = std::move(ns);
  size_ += n;
  invalidate_cache();
  rebuild_envelopes();
}

template <class K>
void compressed_run_store<K>::set_min_live_fraction(double f) {
  min_live_fraction_ = std::clamp(f, 0.0, 1.0);
}

template <class K>
bool compressed_run_store<K>::erase(const K& key, std::uint64_t id) {
  const std::size_t b = block_geq(key);
  if (b >= blocks_.size() || summaries_[b].lo > key) return false;
  // Presence check needs the one target block decoded (served from the
  // cache when erases arrive in key order) — but no re-encode and no block
  // splice: the occurrence is tombstoned in the graveyard instead.
  const std::vector<entry>& es = decode(b, nullptr);
  const entry target{key, id};
  const auto [e_lo, e_hi] = std::equal_range(es.begin(), es.end(), target, entry_less<entry>);
  if (e_lo == e_hi) return false;
  const auto [d_lo, d_hi] =
      std::equal_range(dead_.begin(), dead_.end(), target, entry_less<entry>);
  if (e_hi - e_lo <= d_hi - d_lo) return false;  // every copy already dead
  dead_.insert(d_hi, target);
  ++summaries_[b].dead;
  --size_;
  ++maint_.tombstones_added;
  maybe_compact_block(b);
  return true;
}

template <class K>
void compressed_run_store<K>::maybe_compact_block(std::size_t b) {
  const summary& s = summaries_[b];
  if (s.dead == 0) return;
  const std::uint32_t live = s.count - s.dead;
  if (static_cast<double>(live) < min_live_fraction_ * static_cast<double>(s.count)) {
    compact_block(b);
  }
}

template <class K>
void compressed_run_store<K>::compact_block(std::size_t b) {
  const summary s = summaries_[b];
  if (s.dead == 0) return;
  // The graveyard span of block b: equal keys never span blocks, so it is
  // exactly the dead entries with key in [s.lo, s.hi].
  const auto d_lo =
      std::lower_bound(dead_.begin(), dead_.end(), entry{s.lo, 0}, entry_less<entry>);
  const auto d_hi = std::upper_bound(
      d_lo, dead_.end(), s.hi, [](const K& k, const entry& e) { return k < e.key; });
  std::vector<entry> rest;
  rest.reserve(s.count - s.dead);
  {
    // Multiset difference: each graveyard element cancels one encoded copy.
    const std::vector<entry>& old = decode(b, nullptr);
    std::set_difference(old.begin(), old.end(), d_lo, d_hi, std::back_inserter(rest),
                        entry_less<entry>);
  }
  dead_.erase(d_lo, d_hi);
  maint_.tombstones_purged += s.dead;
  ++maint_.compactions;
  invalidate_cache();
  blocks_.erase(blocks_.begin() + static_cast<std::ptrdiff_t>(b));
  summaries_.erase(summaries_.begin() + static_cast<std::ptrdiff_t>(b));
  if (!rest.empty()) {
    std::vector<block> nb;
    std::vector<summary> ns;
    encode_chunked(rest, 0, rest.size(), &nb, &ns);
    blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(b),
                   std::make_move_iterator(nb.begin()), std::make_move_iterator(nb.end()));
    summaries_.insert(summaries_.begin() + static_cast<std::ptrdiff_t>(b), ns.begin(), ns.end());
  }
  rebuild_envelopes();
}

template <class K>
std::optional<typename compressed_run_store<K>::entry> compressed_run_store<K>::first_in(
    const range_type& r, std::size_t* block_hint, tier_counters* c) const {
  if (blocks_.empty() || r.lo > r.hi) return std::nullopt;

  std::size_t b;
  if (block_hint != nullptr && *block_hint != npos) {
    // Resumed sweep: lows are non-decreasing across calls, so the first
    // block with hi >= r.lo can only be at or after the previous answer.
    // The forward scan runs over the contiguous hi column.
    b = *block_hint;
    while (b < env_hi_.size() && env_hi_[b] < r.lo) ++b;
  } else {
    b = block_geq(r.lo);
  }
  if (block_hint != nullptr) *block_hint = b;

  if (b >= summaries_.size() || summaries_[b].lo > r.hi) {
    // The range falls past the last envelope or inside an envelope gap:
    // answered negative from the summaries alone.
    if (c != nullptr) ++c->summary_answers;
    return std::nullopt;
  }
  // Walk the intersecting blocks until a live answer or the range is
  // exhausted. Without tombstones this visits exactly one block (the old
  // single-block fast path, byte-identical counters included); a block
  // whose range-portion is fully tombstoned spills into its successor.
  bool first_block = true;
  for (; b < summaries_.size() && summaries_[b].lo <= r.hi; ++b, first_block = false) {
    const summary& s = summaries_[b];
    if (s.dead == 0 && r.lo <= s.lo) {
      // The range covers the lower endpoint of an all-live block, so the
      // block's first entry — already spelled out in the summary — is the
      // answer. Only counted as a summary answer when nothing was decoded.
      if (c != nullptr && first_block) ++c->summary_answers;
      return entry{s.lo, s.first_id};
    }
    // r.lo lands strictly inside the block (first block only — later
    // blocks start past r.lo) or the block carries tombstones; decode and
    // binary search, cancelling dead occurrences multiset-style against
    // the block's graveyard span.
    const std::vector<entry>& es = decode(b, c);
    auto it = std::lower_bound(es.begin(), es.end(), entry{r.lo, 0}, entry_less<entry>);
    auto dit = s.dead == 0
                   ? dead_.end()
                   : (it == es.end()
                          ? dead_.end()
                          : std::lower_bound(dead_.begin(), dead_.end(), *it,
                                             entry_less<entry>));
    while (it != es.end()) {
      if (it->key > r.hi) return std::nullopt;
      while (dit != dead_.end() && entry_less(*dit, *it)) ++dit;
      if (dit != dead_.end() && *dit == *it) {
        // This graveyard element cancels this occurrence.
        ++dit;
        ++it;
        continue;
      }
      return *it;
    }
    // Every candidate in this block was dead; fall through to the next
    // intersecting block.
  }
  return std::nullopt;
}

template <class K>
std::uint64_t compressed_run_store<K>::count_in(const range_type& r) const {
  if (blocks_.empty() || r.lo > r.hi) return 0;
  // Intersecting blocks form the contiguous window [b0, b1): b0 is the
  // first block whose envelope reaches r.lo, b1 the first whose low is past
  // r.hi. Only partially-overlapped blocks decode.
  const std::size_t b0 = block_geq(r.lo);
  const std::size_t b1 = static_cast<std::size_t>(
      std::upper_bound(env_lo_.begin(), env_lo_.end(), r.hi) - env_lo_.begin());
  if (b0 >= b1) return 0;

  std::uint64_t total = 0;
  for (std::size_t b = b0; b < b1; ++b) {
    if (r.lo <= env_lo_[b] && env_hi_[b] <= r.hi) {
      total += summaries_[b].count;  // fully contained: the summary already knows
      continue;
    }
    const std::vector<entry>& es = decode(b, nullptr);
    auto lo = std::lower_bound(es.begin(), es.end(), entry{r.lo, 0}, entry_less<entry>);
    auto hi = std::upper_bound(lo, es.end(), r.hi,
                               [](const K& k, const entry& e) { return k < e.key; });
    total += static_cast<std::uint64_t>(hi - lo);
  }
  if (!dead_.empty()) {
    // The raw walk counted encoded entries, tombstones included (summary
    // counts and block payloads both carry them). Every dead occurrence
    // with a key in range was counted exactly once, so one graveyard range
    // count corrects the total — the regression the soak test pins.
    const auto d_lo =
        std::lower_bound(dead_.begin(), dead_.end(), entry{r.lo, 0}, entry_less<entry>);
    const auto d_hi = std::upper_bound(
        d_lo, dead_.end(), r.hi, [](const K& k, const entry& e) { return k < e.key; });
    total -= static_cast<std::uint64_t>(d_hi - d_lo);
  }
  return total;
}

template <class K>
void compressed_run_store<K>::decode_all(std::vector<entry>* out) const {
  out->reserve(out->size() + size_);
  auto dit = dead_.begin();
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const std::vector<entry>& es = decode(b, nullptr);
    if (summaries_[b].dead == 0) {
      out->insert(out->end(), es.begin(), es.end());
      continue;
    }
    // Multiset-cancel the block's graveyard span: blocks and graveyard are
    // both globally sorted, so one monotone cursor covers the whole walk.
    for (const entry& e : es) {
      if (dit != dead_.end() && *dit == e) {
        ++dit;
      } else {
        out->push_back(e);
      }
    }
  }
}

template <class K>
std::size_t compressed_run_store<K>::encoded_bytes() const {
  std::size_t total = 0;
  for (const block& b : blocks_) total += b.bytes.size();
  return total;
}

template <class K>
std::size_t compressed_run_store<K>::memory_footprint() const {
  std::size_t total = sizeof(*this);
  total += blocks_.capacity() * sizeof(block);
  for (const block& b : blocks_) total += b.bytes.capacity();
  total += summaries_.capacity() * sizeof(summary);
  total += env_lo_.capacity() * sizeof(K);
  total += env_hi_.capacity() * sizeof(K);
  total += cache_.capacity() * sizeof(entry);
  total += dead_.capacity() * sizeof(entry);
  return total;
}

template <class K>
void compressed_run_store<K>::check_invariants() const {
  if (blocks_.size() != summaries_.size()) {
    throw std::logic_error("compressed_run_store: blocks/summaries size mismatch");
  }
  if (env_lo_.size() != summaries_.size() || env_hi_.size() != summaries_.size()) {
    throw std::logic_error("compressed_run_store: envelope columns out of sync");
  }
  std::size_t total = 0;
  std::size_t total_dead = 0;
  bool have_prev = false;
  entry prev{};
  auto dit = dead_.begin();
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const summary& s = summaries_[b];
    if (s.count == 0) throw std::logic_error("compressed_run_store: empty block");
    if (s.dead > s.count) {
      throw std::logic_error("compressed_run_store: more tombstones than entries");
    }
    if (env_lo_[b] != s.lo || env_hi_[b] != s.hi) {
      throw std::logic_error("compressed_run_store: envelope column/summary mismatch");
    }
    if (have_prev && !(prev.key < s.lo)) {
      throw std::logic_error("compressed_run_store: envelopes not disjoint/ordered");
    }
    const std::vector<entry>& es = decode(b, nullptr);
    if (es.size() != s.count) throw std::logic_error("compressed_run_store: count mismatch");
    if (es.front().key != s.lo || es.back().key != s.hi || es.front().id != s.first_id) {
      throw std::logic_error("compressed_run_store: summary/payload mismatch");
    }
    std::uint32_t block_dead = 0;
    for (const entry& e : es) {
      if (have_prev && entry_less(e, prev)) {
        throw std::logic_error("compressed_run_store: entries out of order");
      }
      prev = e;
      have_prev = true;
      // The graveyard walks in lockstep with the payload: every dead
      // element must cancel an encoded occurrence of its own block.
      if (dit != dead_.end()) {
        if (entry_less(*dit, e)) {
          throw std::logic_error("compressed_run_store: graveyard entry without payload");
        }
        if (*dit == e) {
          ++dit;
          ++block_dead;
        }
      }
    }
    if (block_dead != s.dead) {
      throw std::logic_error("compressed_run_store: summary dead-count/graveyard mismatch");
    }
    total += es.size();
    total_dead += block_dead;
  }
  if (dit != dead_.end()) {
    throw std::logic_error("compressed_run_store: graveyard entry past last block");
  }
  if (!std::is_sorted(dead_.begin(), dead_.end(), entry_less<entry>)) {
    throw std::logic_error("compressed_run_store: graveyard out of order");
  }
  if (total != size_ + total_dead) throw std::logic_error("compressed_run_store: size mismatch");
}

template class compressed_run_store<std::uint64_t>;
template class compressed_run_store<u128>;
template class compressed_run_store<u512>;

}  // namespace subcover
