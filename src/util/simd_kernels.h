// simd_kernels — runtime-dispatched batch primitives over contiguous lane
// arrays, the data-parallel layer under query_plan's struct-of-arrays level
// frontier and the sfcarray probe cursors.
//
// Layout contract: every kernel operates on plain contiguous columns —
// u64 key lanes (`lo[]`, `hi[]`, extents), u32 rank lanes, or u128 range
// endpoints (two u64 lanes each, little-endian as the type is in memory).
// There is no AoS view anywhere in the kernel layer; consumers that need
// `basic_key_range<K>` materialize it after the kernels have done the
// ordering/selection work on the columns.
//
// Dispatch: three complete backends — `scalar` (portable reference),
// `sse42`, `avx2` — with the top-level functions selecting once via the
// cached CPUID probe (util/cpu_features.h; SUBCOVER_FORCE_SCALAR pins the
// process to `scalar`). The backends are public on purpose: the property
// tests (tests/util/simd_kernels_test.cc) pin sse42/avx2 byte-identical to
// scalar on adversarial inputs, and the BM_SimdKernels benches measure each
// tier against the same data. On non-x86 builds the sse42/avx2 backends
// forward to scalar, so callers and tests compile everywhere.
//
// Exactness contract: every kernel is bit-exact, not approximately equal —
// same answer, same index, same tie-break as its scalar reference on every
// input (including empty, single-lane, odd-length tails and duplicate
// lanes). That is what lets query_plan keep its byte-identity guarantees
// whichever backend the process dispatches to.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/cpu_features.h"
#include "util/wideint.h"

namespace subcover::simd {

// Each backend implements the full kernel set with identical signatures and
// identical answers. See the scalar definitions in simd_kernels.cc for the
// reference semantics of each primitive.
#define SUBCOVER_SIMD_KERNEL_SET                                                             \
  /* Reductions over u64 lanes. Empty input: min -> UINT64_MAX, max -> 0,                    \
     sum -> 0. sum wraps mod 2^64 exactly like the scalar loop. */                           \
  [[nodiscard]] std::uint64_t min_u64(const std::uint64_t* v, std::size_t n);                \
  [[nodiscard]] std::uint64_t max_u64(const std::uint64_t* v, std::size_t n);                \
  [[nodiscard]] std::uint64_t sum_u64(const std::uint64_t* v, std::size_t n);                \
  /* Inclusive prefix sum (out[i] = in[0] + ... + in[i], mod 2^64).                          \
     in == out is allowed. */                                                                \
  void prefix_sum_u64(const std::uint64_t* in, std::uint64_t* out, std::size_t n);           \
  /* out[i] = a[i] - b[i] (mod 2^64); any aliasing of out with a/b is fine. */               \
  void sub_u64(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,           \
               std::size_t n);                                                               \
  /* Right-to-left running minimum over u32 ranks with a floor mask:                         \
     lanes with rank[i] < floor are treated as UINT32_MAX (already-answered                  \
     head ranks must not hold a sweep open), and                                             \
     out[i] = min over j >= i of masked rank[j]. rank == out is allowed. */                  \
  void suffix_min_masked_u32(const std::uint32_t* rank, std::size_t n, std::uint32_t floor,  \
                             std::uint32_t* out);                                            \
  /* Partition point over a sorted (non-decreasing) u64 column: the first                    \
     index with keys[i] >= key; n if none. */                                                \
  [[nodiscard]] std::size_t lower_bound_u64(const std::uint64_t* keys, std::size_t n,        \
                                            std::uint64_t key);                              \
  /* Same partition point over interleaved {key, payload} u64 pairs (the                     \
     sorted-vector array's 16-byte entries): keys live at words[2*i], the                    \
     search window is pair indices [first, last), and the returned index is                  \
     a pair index. Pairs are sorted by (key, payload); a key-only bound is                   \
     exactly std::lower_bound against probe {key, 0}. */                                     \
  [[nodiscard]] std::size_t lower_bound_kv_u64(const std::uint64_t* words, std::size_t first,\
                                               std::size_t last, std::uint64_t key);         \
  /* Forward linear scan (resumed cursors over short windows): the first                     \
     index i >= begin with v[i] >= key; n if none. No sortedness assumed. */                 \
  [[nodiscard]] std::size_t first_geq_u64(const std::uint64_t* v, std::size_t begin,         \
                                          std::size_t n, std::uint64_t key);                 \
  /* Same scan over u128 lanes (two u64 words per lane, pairwise compare). */                \
  [[nodiscard]] std::size_t first_geq_u128(const u128* v, std::size_t begin, std::size_t n,  \
                                           u128 key);                                        \
  /* Batched interval containment: out[i] = (qlo <= lo[i] && hi[i] <= qhi)                   \
     ? 1 : 0 — "is envelope i fully inside the query range". */                              \
  void contained_mask_u64(const std::uint64_t* lo, const std::uint64_t* hi, std::size_t n,   \
                          std::uint64_t qlo, std::uint64_t qhi, std::uint8_t* out);          \
  /* Argbest under the plan's probe order (probes_before): the index of the                  \
     lane with the largest extent, ties broken by the smallest lo, further                   \
     ties by the smallest index. Requires n > 0. */                                          \
  [[nodiscard]] std::size_t head_rank_scan_u64(const std::uint64_t* extent,                  \
                                               const std::uint64_t* lo, std::size_t n);      \
  /* Coalesces n sorted, distinct, cube-aligned level-frontier lows (each                    \
     cube spanning `cube_cells` keys) into maximal runs:                                     \
     run_lo/run_hi receive the merged [lo, hi] endpoints (inclusive), and                    \
     the run count is returned. Requires n > 0 and cube_cells >= 1; two                      \
     cubes chain exactly when lo[i] - lo[i-1] == cube_cells (equal-size                      \
     aligned cubes can never be closer). Byte-identical to                                   \
     merge_ranges_inplace on the same cubes. */                                              \
  [[nodiscard]] std::size_t coalesce_cubes_u64(const std::uint64_t* lo, std::size_t n,       \
                                               std::uint64_t cube_cells,                     \
                                               std::uint64_t* run_lo, std::uint64_t* run_hi);

namespace scalar {
SUBCOVER_SIMD_KERNEL_SET
}
namespace sse42 {
SUBCOVER_SIMD_KERNEL_SET
}
namespace avx2 {
SUBCOVER_SIMD_KERNEL_SET
}

#undef SUBCOVER_SIMD_KERNEL_SET

// ---- dispatched entry points ------------------------------------------------
// One cached level read, then a perfectly predicted two-way branch. These are
// what production call sites use; tests and benches may call the backends
// directly.

#define SUBCOVER_SIMD_DISPATCH(call)                       \
  switch (cpu_features().simd) {                           \
    case simd_level::avx2:                                 \
      return avx2::call;                                   \
    case simd_level::sse42:                                \
      return sse42::call;                                  \
    case simd_level::scalar:                               \
      break;                                               \
  }                                                        \
  return scalar::call

[[nodiscard]] inline std::uint64_t min_u64(const std::uint64_t* v, std::size_t n) {
  SUBCOVER_SIMD_DISPATCH(min_u64(v, n));
}
[[nodiscard]] inline std::uint64_t max_u64(const std::uint64_t* v, std::size_t n) {
  SUBCOVER_SIMD_DISPATCH(max_u64(v, n));
}
[[nodiscard]] inline std::uint64_t sum_u64(const std::uint64_t* v, std::size_t n) {
  SUBCOVER_SIMD_DISPATCH(sum_u64(v, n));
}
inline void prefix_sum_u64(const std::uint64_t* in, std::uint64_t* out, std::size_t n) {
  SUBCOVER_SIMD_DISPATCH(prefix_sum_u64(in, out, n));
}
inline void sub_u64(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                    std::size_t n) {
  SUBCOVER_SIMD_DISPATCH(sub_u64(a, b, out, n));
}
inline void suffix_min_masked_u32(const std::uint32_t* rank, std::size_t n, std::uint32_t floor,
                                  std::uint32_t* out) {
  SUBCOVER_SIMD_DISPATCH(suffix_min_masked_u32(rank, n, floor, out));
}
[[nodiscard]] inline std::size_t lower_bound_u64(const std::uint64_t* keys, std::size_t n,
                                                 std::uint64_t key) {
  SUBCOVER_SIMD_DISPATCH(lower_bound_u64(keys, n, key));
}
[[nodiscard]] inline std::size_t lower_bound_kv_u64(const std::uint64_t* words,
                                                    std::size_t first, std::size_t last,
                                                    std::uint64_t key) {
  SUBCOVER_SIMD_DISPATCH(lower_bound_kv_u64(words, first, last, key));
}
[[nodiscard]] inline std::size_t first_geq_u64(const std::uint64_t* v, std::size_t begin,
                                               std::size_t n, std::uint64_t key) {
  SUBCOVER_SIMD_DISPATCH(first_geq_u64(v, begin, n, key));
}
[[nodiscard]] inline std::size_t first_geq_u128(const u128* v, std::size_t begin, std::size_t n,
                                                u128 key) {
  SUBCOVER_SIMD_DISPATCH(first_geq_u128(v, begin, n, key));
}
inline void contained_mask_u64(const std::uint64_t* lo, const std::uint64_t* hi, std::size_t n,
                               std::uint64_t qlo, std::uint64_t qhi, std::uint8_t* out) {
  SUBCOVER_SIMD_DISPATCH(contained_mask_u64(lo, hi, n, qlo, qhi, out));
}
[[nodiscard]] inline std::size_t head_rank_scan_u64(const std::uint64_t* extent,
                                                    const std::uint64_t* lo, std::size_t n) {
  SUBCOVER_SIMD_DISPATCH(head_rank_scan_u64(extent, lo, n));
}
[[nodiscard]] inline std::size_t coalesce_cubes_u64(const std::uint64_t* lo, std::size_t n,
                                                    std::uint64_t cube_cells,
                                                    std::uint64_t* run_lo,
                                                    std::uint64_t* run_hi) {
  SUBCOVER_SIMD_DISPATCH(coalesce_cubes_u64(lo, n, cube_cells, run_lo, run_hi));
}

#undef SUBCOVER_SIMD_DISPATCH

}  // namespace subcover::simd
