// Bit interleaving between d k-bit coordinates and a d*k-bit key.
//
// Convention (matches the paper's Section 5 example: cell (3,5) = (011,101)
// has Z key (011011)_2 = 27): bit levels are emitted most-significant first,
// and within each level dimension 0 contributes the more significant bit.
//
// Templated on the key type. With a builtin key the kernels are plain
// shift-or loops over machine words; u512 keeps the word-addressed set_bit
// path. For std::uint64_t keys on x86-64 the loops are replaced by one
// pdep/pext per dimension (BMI2): dimension x owns the stride-d bit mask
// offset by d-1-x, so depositing the coordinate's low `bits` bits into that
// mask is exactly the interleave and extracting is the deinterleave. Wide
// keys (u128, u512) use the word-sliced ladder of the same idea: each
// 64-bit word of the key holds a contiguous level range of every
// dimension's stride pattern, so word w of the key is d deposits —
// pdep(coord >> first_level(w), in-word stride mask) — one _pdep_u64 per
// word per dimension instead of one set_bit per key bit. The intrinsic
// paths are selected by a cached runtime CPUID check with the portable
// loop as fallback (SUBCOVER_FORCE_SCALAR forces the fallback);
// interleave_bits_loop/deinterleave_bits_loop are the
// reference kernels the equivalence tests pin every path against
// (tests/sfc/interleave_test.cc).
#pragma once

#include <cstdint>
#include <type_traits>

#include "util/cpu_features.h"
#include "util/key_traits.h"
#include "util/wideint.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SUBCOVER_BMI2_DISPATCH 1
#include <immintrin.h>
#else
#define SUBCOVER_BMI2_DISPATCH 0
#endif

namespace subcover::detail {

// Portable reference kernel: interleaves the low `bits` bits of each of
// `dims` coordinates into a (dims*bits)-bit key, one bit at a time.
template <class K>
inline K interleave_bits_loop(const std::uint32_t* coords, int dims, int bits) {
  K key = key_traits<K>::zero();
  int pos = dims * bits;  // next bit position to fill is pos-1
  for (int level = bits - 1; level >= 0; --level) {
    for (int dim = 0; dim < dims; ++dim) {
      --pos;
      if ((coords[dim] >> level) & 1U) key_traits<K>::set_bit(key, pos);
    }
  }
  return key;
}

// Inverse of interleave_bits_loop.
template <class K>
inline void deinterleave_bits_loop(const K& key, std::uint32_t* coords, int dims, int bits) {
  for (int dim = 0; dim < dims; ++dim) coords[dim] = 0;
  int pos = dims * bits;
  for (int level = bits - 1; level >= 0; --level) {
    for (int dim = 0; dim < dims; ++dim) {
      --pos;
      if (key_traits<K>::test_bit(key, pos)) coords[dim] |= std::uint32_t{1} << level;
    }
  }
}

#if SUBCOVER_BMI2_DISPATCH

// The shared cached probe (util/cpu_features.h): one CPUID query per
// process, and the SUBCOVER_FORCE_SCALAR escape hatch that pins this
// dispatch to the portable loop. The branch is perfectly predicted after
// the first call.
inline bool cpu_has_bmi2() { return cpu_features().bmi2; }

// Mask of dimension 0's key bits: positions {0, d, 2d, ..., (bits-1)*d},
// built by doubling in O(log bits). Dimension x's mask is this shifted left
// by d-1-x (dimension 0 owns the most significant bit of each level).
inline std::uint64_t stride_mask(int dims, int bits) {
  std::uint64_t m = 1;
  int levels = 1;
  while (levels < bits) {
    m |= m << (dims * levels);
    levels *= 2;
  }
  const int key_bits = dims * bits;
  return key_bits < 64 ? m & ((std::uint64_t{1} << key_bits) - 1) : m;
}

__attribute__((target("bmi2"))) inline std::uint64_t interleave_bits_bmi2(
    const std::uint32_t* coords, int dims, int bits) {
  if (bits == 0) return 0;
  const std::uint64_t mask0 = stride_mask(dims, bits);
  std::uint64_t key = 0;
  for (int dim = 0; dim < dims; ++dim)
    key |= _pdep_u64(coords[dim], mask0 << (dims - 1 - dim));
  return key;
}

__attribute__((target("bmi2"))) inline void deinterleave_bits_bmi2(std::uint64_t key,
                                                                   std::uint32_t* coords,
                                                                   int dims, int bits) {
  if (bits == 0) {
    for (int dim = 0; dim < dims; ++dim) coords[dim] = 0;
    return;
  }
  const std::uint64_t mask0 = stride_mask(dims, bits);
  for (int dim = 0; dim < dims; ++dim)
    coords[dim] = static_cast<std::uint32_t>(_pext_u64(key, mask0 << (dims - 1 - dim)));
}

// --- word-sliced ladder for wide keys (u128 / u512) -------------------------
//
// A wide key is 64-bit words; within word w, dimension `dim`'s bits are the
// positions p with 64w + p ≡ dims-1-dim (mod dims) — a stride-d mask shifted
// to the word's phase — and the coordinate bits that land there are the
// contiguous level range starting at l0 = ceil((64w - (dims-1-dim)) / dims).
// So each (word, dimension) pair is ONE deposit: pdep(coord >> l0, mask).
// That is the whole ladder: ceil(d*k/64) words x d dimensions deposits,
// instead of the d*k single-bit set_bit calls of the portable loop.

// Mask of bits {phase, phase + dims, phase + 2*dims, ...} below `limit`
// (the in-word slice of one dimension's stride pattern). Built by doubling,
// like stride_mask.
inline std::uint64_t stride_mask_window(int dims, int phase, int limit) {
  if (phase >= limit) return 0;
  std::uint64_t m = 1;
  int levels = 1;
  while (levels * dims < 64) {
    m |= m << (dims * levels);
    levels *= 2;
  }
  m <<= phase;
  return limit < 64 ? m & ((std::uint64_t{1} << limit) - 1) : m;
}

// Word `w` (64-bit little-endian slice) of the interleaved key.
__attribute__((target("bmi2"))) inline std::uint64_t interleave_word_bmi2(
    const std::uint32_t* coords, int dims, int bits, int w) {
  const int base = w * 64;
  const int limit = dims * bits - base < 64 ? dims * bits - base : 64;
  std::uint64_t word = 0;
  for (int dim = 0; dim < dims; ++dim) {
    const int r = dims - 1 - dim;  // this dimension's phase mod dims
    const int l0 = base > r ? (base - r + dims - 1) / dims : 0;
    const int phase = l0 * dims + r - base;
    if (phase >= limit) continue;
    const std::uint64_t mask = stride_mask_window(dims, phase, limit);
    word |= _pdep_u64(static_cast<std::uint64_t>(coords[dim]) >> l0, mask);
  }
  return word;
}

// Scatters word `w` of a key back into the coordinates (additive: callers
// zero the coordinates first and OR every word's contribution in).
__attribute__((target("bmi2"))) inline void deinterleave_word_bmi2(std::uint64_t word,
                                                                   std::uint32_t* coords,
                                                                   int dims, int bits, int w) {
  const int base = w * 64;
  const int limit = dims * bits - base < 64 ? dims * bits - base : 64;
  for (int dim = 0; dim < dims; ++dim) {
    const int r = dims - 1 - dim;
    const int l0 = base > r ? (base - r + dims - 1) / dims : 0;
    const int phase = l0 * dims + r - base;
    if (phase >= limit) continue;
    const std::uint64_t mask = stride_mask_window(dims, phase, limit);
    coords[dim] |= static_cast<std::uint32_t>(_pext_u64(word, mask) << l0);
  }
}

__attribute__((target("bmi2"))) inline u128 interleave_bits_bmi2_u128(
    const std::uint32_t* coords, int dims, int bits) {
  if (bits == 0) return 0;
  u128 key = interleave_word_bmi2(coords, dims, bits, 0);
  if (dims * bits > 64)
    key |= u128(interleave_word_bmi2(coords, dims, bits, 1)) << 64;
  return key;
}

__attribute__((target("bmi2"))) inline void deinterleave_bits_bmi2_u128(
    const u128& key, std::uint32_t* coords, int dims, int bits) {
  for (int dim = 0; dim < dims; ++dim) coords[dim] = 0;
  if (bits == 0) return;
  deinterleave_word_bmi2(static_cast<std::uint64_t>(key), coords, dims, bits, 0);
  if (dims * bits > 64)
    deinterleave_word_bmi2(static_cast<std::uint64_t>(key >> 64), coords, dims, bits, 1);
}

__attribute__((target("bmi2"))) inline u512 interleave_bits_bmi2_u512(
    const std::uint32_t* coords, int dims, int bits) {
  u512 key;
  if (bits == 0) return key;
  const int words = (dims * bits + 63) / 64;
  for (int w = words - 1; w > 0; --w) {
    key |= interleave_word_bmi2(coords, dims, bits, w);
    key <<= 64;
  }
  key |= interleave_word_bmi2(coords, dims, bits, 0);
  return key;
}

__attribute__((target("bmi2"))) inline void deinterleave_bits_bmi2_u512(
    const u512& key, std::uint32_t* coords, int dims, int bits) {
  for (int dim = 0; dim < dims; ++dim) coords[dim] = 0;
  if (bits == 0) return;
  const int words = (dims * bits + 63) / 64;
  for (int w = 0; w < words; ++w)
    deinterleave_word_bmi2(key.word(w), coords, dims, bits, w);
}

#endif  // SUBCOVER_BMI2_DISPATCH

// Interleaves the low `bits` bits of each of `dims` coordinates into a
// (dims*bits)-bit key. The loop body is written out here (not delegated to
// interleave_bits_loop) so the wide-key instantiations compile to exactly
// the pre-dispatch code: an extra call layer measurably hurts inlining of
// the u512 path into cube_prefix.
template <class K>
inline K interleave_bits(const std::uint32_t* coords, int dims, int bits) {
#if SUBCOVER_BMI2_DISPATCH
  if constexpr (std::is_same_v<K, std::uint64_t>) {
    if (cpu_has_bmi2()) return interleave_bits_bmi2(coords, dims, bits);
  }
  if constexpr (std::is_same_v<K, u128>) {
    if (cpu_has_bmi2()) return interleave_bits_bmi2_u128(coords, dims, bits);
  }
  if constexpr (std::is_same_v<K, u512>) {
    if (cpu_has_bmi2()) return interleave_bits_bmi2_u512(coords, dims, bits);
  }
#endif
  K key = key_traits<K>::zero();
  int pos = dims * bits;  // next bit position to fill is pos-1
  for (int level = bits - 1; level >= 0; --level) {
    for (int dim = 0; dim < dims; ++dim) {
      --pos;
      if ((coords[dim] >> level) & 1U) key_traits<K>::set_bit(key, pos);
    }
  }
  return key;
}

// Inverse of interleave_bits.
template <class K>
inline void deinterleave_bits(const K& key, std::uint32_t* coords, int dims, int bits) {
#if SUBCOVER_BMI2_DISPATCH
  if constexpr (std::is_same_v<K, std::uint64_t>) {
    if (cpu_has_bmi2()) {
      deinterleave_bits_bmi2(key, coords, dims, bits);
      return;
    }
  }
  if constexpr (std::is_same_v<K, u128>) {
    if (cpu_has_bmi2()) {
      deinterleave_bits_bmi2_u128(key, coords, dims, bits);
      return;
    }
  }
  if constexpr (std::is_same_v<K, u512>) {
    if (cpu_has_bmi2()) {
      deinterleave_bits_bmi2_u512(key, coords, dims, bits);
      return;
    }
  }
#endif
  for (int dim = 0; dim < dims; ++dim) coords[dim] = 0;
  int pos = dims * bits;
  for (int level = bits - 1; level >= 0; --level) {
    for (int dim = 0; dim < dims; ++dim) {
      --pos;
      if (key_traits<K>::test_bit(key, pos)) coords[dim] |= std::uint32_t{1} << level;
    }
  }
}

}  // namespace subcover::detail
