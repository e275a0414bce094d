// Fallback-vs-intrinsic equivalence for the bit-interleave kernels: the
// BMI2 (pdep/pext) specialization for std::uint64_t keys must agree with
// the portable per-bit loop on every (dims, bits) shape that fits 64 bits —
// exhaustively over all coordinates on small shapes, randomized on large
// ones — and the dispatching entry points must agree with the loop at every
// key width (on non-BMI2 hosts they *are* the loop, so the test still pins
// the dispatch contract). SUBCOVER_FORCE_SCALAR pins the process to the
// loop, so a second ctest pass with it set proves the portable path on BMI2
// hosts too.
#include "sfc/interleave.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "geometry/universe.h"
#include "util/cpu_features.h"
#include "util/random.h"
#include "util/wideint.h"

namespace subcover {
namespace {

using detail::deinterleave_bits;
using detail::deinterleave_bits_loop;
using detail::interleave_bits;
using detail::interleave_bits_loop;

// The escape hatch: the cached probe reports the environment it saw, and a
// forced process never takes the BMI2 kernels.
TEST(Interleave, ForceScalarHatchDowngradesBmi2) {
  const char* env = std::getenv("SUBCOVER_FORCE_SCALAR");
  const bool forced = env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  const cpu_features_t& f = cpu_features();
  EXPECT_EQ(f.force_scalar, forced);
  if (forced) {
    EXPECT_FALSE(f.bmi2);
    EXPECT_FALSE(detail::cpu_has_bmi2());
  }
}

// Every (dims, bits) shape with dims*bits <= 16: exhaustive over all keys.
TEST(Interleave, DispatchMatchesLoopExhaustive) {
  for (int dims = 1; dims <= 8; ++dims) {
    for (int bits = 1; dims * bits <= 16; ++bits) {
      const std::uint64_t keys = std::uint64_t{1} << (dims * bits);
      for (std::uint64_t key = 0; key < keys; ++key) {
        std::array<std::uint32_t, kMaxDims> coords{};
        deinterleave_bits_loop(key, coords.data(), dims, bits);
        // Loop round trip is the ground truth...
        ASSERT_EQ(interleave_bits_loop<std::uint64_t>(coords.data(), dims, bits), key);
        // ...and the dispatched kernels reproduce it bit for bit.
        ASSERT_EQ(interleave_bits<std::uint64_t>(coords.data(), dims, bits), key)
            << "dims=" << dims << " bits=" << bits;
        std::array<std::uint32_t, kMaxDims> via_dispatch{};
        deinterleave_bits(key, via_dispatch.data(), dims, bits);
        for (int d = 0; d < dims; ++d)
          ASSERT_EQ(via_dispatch[static_cast<std::size_t>(d)],
                    coords[static_cast<std::size_t>(d)])
              << "dims=" << dims << " bits=" << bits << " key=" << key;
      }
    }
  }
}

// Large shapes up to the full 64-bit key: randomized coordinates, all
// widths cross-checked against the u512 loop reference.
TEST(Interleave, DispatchMatchesLoopRandomizedAllWidths) {
  rng gen(1234);
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    const int max_bits = std::min(64 / dims, static_cast<int>(kMaxBitsPerDim));
    for (int bits = 1; bits <= max_bits; ++bits) {
      for (int trial = 0; trial < 50; ++trial) {
        std::array<std::uint32_t, kMaxDims> coords{};
        for (int d = 0; d < dims; ++d)
          coords[static_cast<std::size_t>(d)] =
              static_cast<std::uint32_t>(gen.next()) & ((std::uint32_t{1} << bits) - 1);
        const u512 wide = interleave_bits_loop<u512>(coords.data(), dims, bits);
        const std::uint64_t k64 = interleave_bits<std::uint64_t>(coords.data(), dims, bits);
        const u128 k128 = interleave_bits<u128>(coords.data(), dims, bits);
        ASSERT_EQ(u512(k64), wide) << "dims=" << dims << " bits=" << bits;
        ASSERT_EQ((u512(static_cast<std::uint64_t>(k128 >> 64)) << 64) |
                      u512(static_cast<std::uint64_t>(k128)),
                  wide);
        std::array<std::uint32_t, kMaxDims> back{};
        deinterleave_bits(k64, back.data(), dims, bits);
        for (int d = 0; d < dims; ++d)
          ASSERT_EQ(back[static_cast<std::size_t>(d)], coords[static_cast<std::size_t>(d)]);
      }
    }
  }
}

// Coordinates with garbage above the low `bits` bits interleave identically:
// both kernels must consume only the low bits (pdep does so by
// construction; the loop by its level bound).
TEST(Interleave, HighCoordinateBitsIgnored) {
  rng gen(99);
  for (int dims = 2; dims <= 6; ++dims) {
    const int bits = 64 / dims >= 10 ? 10 : 64 / dims;
    for (int trial = 0; trial < 30; ++trial) {
      std::array<std::uint32_t, kMaxDims> clean{};
      std::array<std::uint32_t, kMaxDims> dirty{};
      for (int d = 0; d < dims; ++d) {
        const auto c = static_cast<std::uint32_t>(gen.next());
        clean[static_cast<std::size_t>(d)] = c & ((std::uint32_t{1} << bits) - 1);
        dirty[static_cast<std::size_t>(d)] =
            clean[static_cast<std::size_t>(d)] | (c & ~((std::uint32_t{1} << bits) - 1));
      }
      ASSERT_EQ(interleave_bits<std::uint64_t>(dirty.data(), dims, bits),
                interleave_bits<std::uint64_t>(clean.data(), dims, bits));
      ASSERT_EQ(interleave_bits_loop<std::uint64_t>(dirty.data(), dims, bits),
                interleave_bits_loop<std::uint64_t>(clean.data(), dims, bits));
    }
  }
}

// Wide-key dispatch (u128 / u512 word-sliced BMI2 ladder, or the loop on
// non-BMI2 hosts) agrees with the u512 per-bit loop reference on every
// (dims, bits) shape — exhaustively over all keys on small shapes.
TEST(Interleave, WideDispatchMatchesLoopExhaustive) {
  for (int dims = 1; dims <= 8; ++dims) {
    for (int bits = 1; dims * bits <= 14; ++bits) {
      const std::uint64_t keys = std::uint64_t{1} << (dims * bits);
      for (std::uint64_t key = 0; key < keys; ++key) {
        std::array<std::uint32_t, kMaxDims> coords{};
        deinterleave_bits_loop(key, coords.data(), dims, bits);
        ASSERT_EQ(interleave_bits<u128>(coords.data(), dims, bits), u128(key))
            << "dims=" << dims << " bits=" << bits;
        ASSERT_EQ(interleave_bits<u512>(coords.data(), dims, bits), u512(key))
            << "dims=" << dims << " bits=" << bits;
        std::array<std::uint32_t, kMaxDims> via128{};
        std::array<std::uint32_t, kMaxDims> via512{};
        deinterleave_bits(u128(key), via128.data(), dims, bits);
        deinterleave_bits(u512(key), via512.data(), dims, bits);
        for (int d = 0; d < dims; ++d) {
          ASSERT_EQ(via128[static_cast<std::size_t>(d)], coords[static_cast<std::size_t>(d)])
              << "dims=" << dims << " bits=" << bits << " key=" << key;
          ASSERT_EQ(via512[static_cast<std::size_t>(d)], coords[static_cast<std::size_t>(d)])
              << "dims=" << dims << " bits=" << bits << " key=" << key;
        }
      }
    }
  }
}

// Wide shapes up to the full 512-bit key (the word-sliced ladder crosses
// every word boundary here): randomized coordinates against the u512 loop.
TEST(Interleave, WideDispatchMatchesLoopRandomizedAllShapes) {
  rng gen(3456);
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    const int max_bits = std::min(512 / dims, static_cast<int>(kMaxBitsPerDim));
    for (int bits = 1; bits <= max_bits; ++bits) {
      const int trials = dims * bits > 64 ? 20 : 5;
      for (int trial = 0; trial < trials; ++trial) {
        std::array<std::uint32_t, kMaxDims> coords{};
        for (int d = 0; d < dims; ++d)
          coords[static_cast<std::size_t>(d)] =
              static_cast<std::uint32_t>(gen.next()) &
              ((bits < 32 ? std::uint32_t{1} << bits : 0U) - 1);
        const u512 wide = interleave_bits_loop<u512>(coords.data(), dims, bits);
        ASSERT_EQ(interleave_bits<u512>(coords.data(), dims, bits), wide)
            << "dims=" << dims << " bits=" << bits;
        if (dims * bits <= 128) {
          const u128 k128 = interleave_bits<u128>(coords.data(), dims, bits);
          ASSERT_EQ((u512(static_cast<std::uint64_t>(k128 >> 64)) << 64) |
                        u512(static_cast<std::uint64_t>(k128)),
                    wide)
              << "dims=" << dims << " bits=" << bits;
          std::array<std::uint32_t, kMaxDims> back128{};
          deinterleave_bits(k128, back128.data(), dims, bits);
          for (int d = 0; d < dims; ++d)
            ASSERT_EQ(back128[static_cast<std::size_t>(d)],
                      coords[static_cast<std::size_t>(d)]);
        }
        std::array<std::uint32_t, kMaxDims> back{};
        deinterleave_bits(wide, back.data(), dims, bits);
        for (int d = 0; d < dims; ++d)
          ASSERT_EQ(back[static_cast<std::size_t>(d)], coords[static_cast<std::size_t>(d)])
              << "dims=" << dims << " bits=" << bits;
      }
    }
  }
}

#if SUBCOVER_BMI2_DISPATCH
// When the host has BMI2, pin the wide intrinsic kernels against the loop
// directly on every shape (the dispatch tests above would silently test
// loop-vs-loop on a pre-BMI2 machine).
TEST(Interleave, Bmi2WideKernelsMatchLoopWhenAvailable) {
  if (!detail::cpu_has_bmi2()) GTEST_SKIP() << "host CPU lacks BMI2";
  rng gen(6543);
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    const int max_bits = std::min(512 / dims, static_cast<int>(kMaxBitsPerDim));
    for (int bits = 0; bits <= max_bits; ++bits) {
      const std::uint32_t coord_mask =
          bits == 0 ? 0U : bits >= 32 ? ~0U : (std::uint32_t{1} << bits) - 1;
      for (int trial = 0; trial < 12; ++trial) {
        std::array<std::uint32_t, kMaxDims> coords{};
        for (int d = 0; d < dims; ++d)
          coords[static_cast<std::size_t>(d)] =
              static_cast<std::uint32_t>(gen.next()) & coord_mask;
        const u512 wide = interleave_bits_loop<u512>(coords.data(), dims, bits);
        ASSERT_EQ(detail::interleave_bits_bmi2_u512(coords.data(), dims, bits), wide)
            << "dims=" << dims << " bits=" << bits;
        std::array<std::uint32_t, kMaxDims> back{};
        detail::deinterleave_bits_bmi2_u512(wide, back.data(), dims, bits);
        for (int d = 0; d < dims; ++d)
          ASSERT_EQ(back[static_cast<std::size_t>(d)], coords[static_cast<std::size_t>(d)])
              << "dims=" << dims << " bits=" << bits;
        if (dims * bits <= 128) {
          const u128 loop128 = interleave_bits_loop<u128>(coords.data(), dims, bits);
          ASSERT_EQ(detail::interleave_bits_bmi2_u128(coords.data(), dims, bits), loop128)
              << "dims=" << dims << " bits=" << bits;
          std::array<std::uint32_t, kMaxDims> back128{};
          detail::deinterleave_bits_bmi2_u128(loop128, back128.data(), dims, bits);
          for (int d = 0; d < dims; ++d)
            ASSERT_EQ(back128[static_cast<std::size_t>(d)],
                      coords[static_cast<std::size_t>(d)]);
        }
      }
    }
  }
}
#endif

#if SUBCOVER_BMI2_DISPATCH
// When the host has BMI2, pin the intrinsic kernels against the loop
// directly (the dispatch tests above would silently test loop-vs-loop on a
// pre-BMI2 machine).
TEST(Interleave, Bmi2KernelMatchesLoopWhenAvailable) {
  if (!detail::cpu_has_bmi2()) GTEST_SKIP() << "host CPU lacks BMI2";
  rng gen(77);
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    const int max_bits = std::min(64 / dims, static_cast<int>(kMaxBitsPerDim));
    for (int bits = 0; bits <= max_bits; ++bits) {
      for (int trial = 0; trial < 40; ++trial) {
        std::array<std::uint32_t, kMaxDims> coords{};
        for (int d = 0; d < dims; ++d)
          coords[static_cast<std::size_t>(d)] = static_cast<std::uint32_t>(gen.next()) &
                                                ((bits > 0 ? std::uint32_t{1} << bits : 1U) - 1);
        const std::uint64_t expect = interleave_bits_loop<std::uint64_t>(coords.data(), dims, bits);
        ASSERT_EQ(detail::interleave_bits_bmi2(coords.data(), dims, bits), expect)
            << "dims=" << dims << " bits=" << bits;
        std::array<std::uint32_t, kMaxDims> a{};
        std::array<std::uint32_t, kMaxDims> b{};
        deinterleave_bits_loop(expect, a.data(), dims, bits);
        detail::deinterleave_bits_bmi2(expect, b.data(), dims, bits);
        for (int d = 0; d < dims; ++d)
          ASSERT_EQ(a[static_cast<std::size_t>(d)], b[static_cast<std::size_t>(d)]);
      }
    }
  }
}
#endif

}  // namespace
}  // namespace subcover
