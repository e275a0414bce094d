// compressed_run_store — the cold tier of the hot/cold SFC-array tiering
// (Succinct Coverage Oracles direction, PAPERS.md arXiv:0912.2404).
//
// At production scale a broker holds one covering index per outgoing link,
// and memory — not CPU — becomes the wall: a probe-ready backend spends a
// full key (up to 64 bytes at u512 width) plus structural overhead (skip
// list node headers and link arrays, or sorted-vector slack) on every
// subscription. But the entries are *sorted* curve keys, and sorted keys on
// a space filling curve cluster (that is the whole point of the curve), so
// the gap between consecutive keys is tiny compared to the keys themselves.
// This store keeps the entries delta-encoded: blocks of ~block_entries
// entries, each block storing its first (key, id) as varints and every
// subsequent entry as varint(key gap) + varint(id). A per-block summary —
// the bounding run envelope [lo, hi], the entry count, and the first id —
// lives decoded above the blocks, so a probe can answer "definitely no
// entry in [r.lo, r.hi]" (and even "the answer is the block's first
// entry") from the summaries alone, without decoding a byte.
//
// The envelope endpoints are additionally mirrored into two contiguous key
// columns (env_lo_/env_hi_), so the summary filtering runs as cache-dense
// column scans: block assignment is a partition point over the hi column,
// a resumed frontier sweep rejects non-intersecting blocks with a forward
// scan of that column, and count_in answers fully-contained blocks from
// both columns without decoding. The same loops run at every key width.
//
// Invariants:
//   * Entries are globally sorted by (key, id); blocks partition them.
//   * A block closes only at a key boundary (a run of equal keys never
//     spans two blocks), so block envelopes are strictly disjoint and
//     key-ordered: summaries_[i].hi < summaries_[i+1].lo. This is what
//     makes summary binary search and key-only block assignment correct.
//   * Probes are answered exactly as a resident basic_sfc_array holding the
//     same entries would answer them (first_in: the smallest-(key, id)
//     entry in range) — the tiered array's byte-identity contract rests on
//     this.
//   * Erase is deferred: a tombstoned occurrence stays encoded in its block
//     but is listed in a sorted graveyard and counted in the block's
//     summary (summary.dead). Every probe is graveyard-blind-correct — the
//     summary fast paths only fire on blocks with dead == 0, and decode
//     paths cancel dead occurrences multiset-style — and a block is
//     rewritten (compacted) only when its live fraction drops below the
//     set_min_live_fraction threshold.
//
// Mutability/concurrency: probes are logically const but maintain a decode
// cache (one block's entries, reused — allocation-free once the cache has
// grown to the largest block) and bump the caller's tier_counters. Like
// query_plan scratch, a store is single-threaded by contract.
//
// The codec is templated on the key type via key_traits<K> (u64/u128/u512
// specializations all compile to the same 7-bit LEB128 loop over their
// word ops); detail::put_varint/get_varint are exposed for the roundtrip
// property tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sfcarray/sfc_array.h"
#include "util/key_traits.h"

namespace subcover {

// Physical cold-tier probe work, the "how was it answered" ledger the
// tiered array keeps cumulatively and query_plan diffs per query into
// query_stats (tier_* fields) — and from there covering_check_stats and
// network_metrics aggregate it per covering check / per network.
struct tier_counters {
  // Probes that had to consult the cold tier at all (cold tier non-empty).
  std::uint64_t cold_probes = 0;
  // Cold consults answered from the block summaries alone — either "no
  // block envelope intersects the range" or "the range covers the block's
  // lower endpoint, so the summary's (lo, first_id) is the answer". No
  // bytes were decoded.
  std::uint64_t summary_answers = 0;
  // Blocks varint-decoded into the scratch cache.
  std::uint64_t blocks_decoded = 0;
  // Probes whose final (merged) answer came from the cold tier.
  std::uint64_t cold_hits = 0;
  // Entries moved cold -> hot (recently-hit working set) and hot -> cold
  // (capacity flushes) by the tiering policy.
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
};

namespace detail {

// LEB128: 7 value bits per byte, low bits first, high bit = continuation.
// Works for any key type with key_traits (and plain uint64_t ids).
template <class K>
inline void put_varint(std::vector<std::uint8_t>& out, K v) {
  using T = key_traits<K>;
  while (T::bit_width(v) > 7) {
    out.push_back(static_cast<std::uint8_t>((T::low64(v) & 0x7fU) | 0x80U));
    v = v >> 7;
  }
  out.push_back(static_cast<std::uint8_t>(T::low64(v) & 0x7fU));
}

template <class K>
inline K get_varint(const std::uint8_t*& p) {
  using T = key_traits<K>;
  K v = T::zero();
  int shift = 0;
  while (true) {
    const std::uint8_t b = *p++;
    v = v | (K{static_cast<std::uint64_t>(b & 0x7fU)} << shift);
    if ((b & 0x80U) == 0) return v;
    shift += 7;
  }
}

}  // namespace detail

template <class K>
class compressed_run_store {
 public:
  using entry = typename basic_sfc_array<K>::entry;
  using range_type = basic_key_range<K>;

  // `block_entries` is the target block size; blocks only close at key
  // boundaries, so a long run of duplicate keys can exceed it.
  explicit compressed_run_store(std::size_t block_entries = 64);

  // Merges a batch of entries (any order; sorted internally) into the
  // store. Blocks the batch does not touch are kept verbatim; touched
  // blocks are decoded, merged and re-encoded (dropping any tombstones they
  // carried — a rewrite is a compaction for free).
  void merge_in(std::vector<entry> items);
  // Removes one (key, id) occurrence; false if absent. Deferred: the
  // occurrence is recorded in a sorted graveyard and the block's summary
  // dead-count is bumped — no re-encode, no block splice, and no decode
  // beyond the one target block (served from the cache when the caller
  // erases in key order). A block is rewritten only when its live fraction
  // drops below the compaction threshold (set_min_live_fraction, default
  // 0.5), so sustained cold-tier churn costs O(log blocks) per erase plus
  // one single-block rewrite per block_entries/2 erases.
  bool erase(const K& key, std::uint64_t id);

  // The smallest-(key, id) entry with key in [r.lo, r.hi] — exactly what a
  // resident array holding these entries would return from first_in.
  // `block_hint` (optional) resumes an ascending sweep: pass a size_t
  // initialized to npos for the first probe of a sweep, keep passing the
  // same variable for the following probes (their lows must be
  // non-decreasing, the frontier contract). Counters are bumped on `c`
  // when non-null.
  [[nodiscard]] std::optional<entry> first_in(const range_type& r, std::size_t* block_hint,
                                              tier_counters* c) const;
  [[nodiscard]] std::uint64_t count_in(const range_type& r) const;

  // Appends every entry in (key, id) order to `out`.
  void decode_all(std::vector<entry>* out) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  // Encoded payload bytes (the compression headline).
  [[nodiscard]] std::size_t encoded_bytes() const;
  // Total owned bytes: payload + summaries + container overhead + the
  // decode cache. This is the number memory_footprint() audits sum.
  [[nodiscard]] std::size_t memory_footprint() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  // Compaction threshold for deferred erase (clamped to [0, 1]): a block is
  // rewritten once live/count drops below it. 1.0 = eager per-erase rewrite
  // (the naive baseline), 0.0 = never rewrite.
  void set_min_live_fraction(double f);
  // Cumulative tombstone/compaction ledger (tombstones_added, block
  // rewrites as compactions, tombstones_purged).
  [[nodiscard]] const maintenance_counters& maint() const { return maint_; }
  // Outstanding tombstones (graveyard entries not yet compacted away).
  [[nodiscard]] std::size_t tombstones() const { return dead_.size(); }

  // Verifies the block invariants (global (key, id) order, key-boundary
  // block closure, summary/payload agreement, graveyard/summary dead-count
  // agreement); throws std::logic_error on violation. Test hook.
  void check_invariants() const;

 private:
  struct summary {
    K lo{};                      // first key in the block (envelope low)
    K hi{};                      // last key in the block (envelope high)
    std::uint64_t first_id = 0;  // id of the first entry
    std::uint32_t count = 0;     // entries encoded in the block (incl. dead)
    std::uint32_t dead = 0;      // of those, tombstoned (graveyard) entries
  };
  struct block {
    std::vector<std::uint8_t> bytes;
  };

  // First block whose envelope high is >= key (i.e. the only block that
  // could contain `key`); blocks_.size() if none.
  [[nodiscard]] std::size_t block_geq(const K& key) const;
  // Rebuilds the env_lo_/env_hi_ columns from summaries_ after any block
  // mutation.
  void rebuild_envelopes();
  // Decodes block b into the scratch cache (no-op when already cached).
  const std::vector<entry>& decode(std::size_t b, tier_counters* c) const;
  // Encodes `items[from, to)` (sorted) as blocks appended to
  // `blocks`/`summaries`, closing blocks only at key boundaries.
  void encode_chunked(const std::vector<entry>& items, std::size_t from, std::size_t to,
                      std::vector<block>* blocks, std::vector<summary>* summaries) const;
  void invalidate_cache() { cached_block_ = npos; }
  // Rewrites block b without its tombstones (drops the block when nothing
  // is live) and removes them from the graveyard.
  void compact_block(std::size_t b);
  // compact_block iff block b's live fraction is below the threshold.
  void maybe_compact_block(std::size_t b);

  std::size_t block_entries_;
  std::size_t size_ = 0;  // live entries (encoded minus graveyard)
  std::vector<block> blocks_;
  std::vector<summary> summaries_;
  // Tombstoned occurrences, sorted by (key, id) — a multiset: each element
  // cancels exactly one equal encoded entry. Equal keys never span blocks,
  // so a block's dead entries form one contiguous graveyard span.
  std::vector<entry> dead_;
  double min_live_fraction_ = 0.5;
  maintenance_counters maint_;
  // Envelope key columns mirroring summaries_ (env_lo_[b] == summaries_[b].lo,
  // env_hi_[b] == summaries_[b].hi): the contiguous lanes the summary
  // scans walk. Kept in sync by rebuild_envelopes().
  std::vector<K> env_lo_;
  std::vector<K> env_hi_;
  // Decode scratch: one block's entries, reused across probes.
  mutable std::vector<entry> cache_;
  mutable std::size_t cached_block_ = npos;
};

extern template class compressed_run_store<std::uint64_t>;
extern template class compressed_run_store<u128>;
extern template class compressed_run_store<u512>;

}  // namespace subcover
