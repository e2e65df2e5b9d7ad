#include "common/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace tcio {
namespace {

std::vector<std::byte> bytesOf(const char* s) {
  std::vector<std::byte> out(std::strlen(s));
  if (!out.empty()) std::memcpy(out.data(), s, out.size());
  return out;
}

/// Bit-at-a-time reference: the CRC-32 definition with no tables, so it
/// shares nothing with either kernel under test.
std::uint32_t oracle(std::span<const std::byte> data, std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::byte b : data) {
    c ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<std::byte> randomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.next() & 0xFFu);
  return out;
}

using Kernel = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);
using CopyKernel = std::uint32_t (*)(std::byte*, std::span<const std::byte>,
                                     std::uint32_t);

struct KernelCase {
  const char* name;
  Kernel fn;
  CopyKernel copy;
  bool (*available)();
};

void PrintTo(const KernelCase& k, std::ostream* os) { *os << k.name; }

class Crc32KernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (!GetParam().available()) {
      GTEST_SKIP() << GetParam().name << " kernel not supported on this CPU";
    }
  }
  std::uint32_t run(std::span<const std::byte> data, std::uint32_t seed = 0) {
    return GetParam().fn(data, seed);
  }
  std::uint32_t copy(std::byte* dst, std::span<const std::byte> src,
                     std::uint32_t seed = 0) {
    return GetParam().copy(dst, src, seed);
  }
};

TEST_P(Crc32KernelTest, EveryLengthAcrossFoldThresholdAndTails) {
  // Covers short spans, the 64-byte fold threshold and every 16-byte tail.
  const std::vector<std::byte> buf = randomBytes(1100, 11);
  const std::span<const std::byte> all(buf);
  for (std::size_t n = 0; n <= buf.size(); ++n) {
    ASSERT_EQ(run(all.first(n)), oracle(all.first(n))) << "length " << n;
  }
}

TEST_P(Crc32KernelTest, EveryStartMisalignment) {
  // alignas(16) pins the base so offset k is exactly k bytes past a 16-byte
  // boundary, exercising every head length before the aligned body.
  alignas(16) std::array<std::byte, 16 + 700> buf{};
  const std::vector<std::byte> src = randomBytes(buf.size(), 12);
  std::memcpy(buf.data(), src.data(), buf.size());
  for (std::size_t k = 0; k < 16; ++k) {
    for (const std::size_t n : {std::size_t{63}, std::size_t{64},
                                std::size_t{79}, std::size_t{80},
                                std::size_t{700}}) {
      const std::span<const std::byte> s(buf.data() + k, n);
      ASSERT_EQ(run(s), oracle(s)) << "offset " << k << " length " << n;
    }
  }
}

TEST_P(Crc32KernelTest, ChainedRandomSeedsMatchOneShot) {
  const std::vector<std::byte> buf = randomBytes(4096, 13);
  Rng rng(14);
  for (int trial = 0; trial < 200; ++trial) {
    const auto seed = static_cast<std::uint32_t>(rng.next());
    const std::size_t cut = rng.next() % buf.size();
    const std::span<const std::byte> all(buf);
    const std::uint32_t chained =
        run(all.subspan(cut), run(all.first(cut), seed));
    ASSERT_EQ(chained, oracle(all, seed)) << "trial " << trial;
  }
}

TEST_P(Crc32KernelTest, MegabyteBufferWithOddTail) {
  const std::vector<std::byte> buf = randomBytes((1u << 20) + 13, 15);
  EXPECT_EQ(run(buf), oracle(buf));
}

TEST_P(Crc32KernelTest, AgreesWithPortableAtEveryLengthAndOffset) {
  // Every length from 0 to 1,024 at every start offset from 0 to 63 of a
  // 64-byte-aligned buffer: every head, both fold thresholds (64 and 256
  // aligned bytes), every 512-bit register alignment and every tail.
  alignas(64) std::array<std::byte, 64 + 1024> buf{};
  const std::vector<std::byte> src = randomBytes(buf.size(), 21);
  std::memcpy(buf.data(), src.data(), buf.size());
  Rng rng(22);
  for (std::size_t k = 0; k < 64; ++k) {
    for (std::size_t n = 0; n <= 1024; ++n) {
      const std::span<const std::byte> s(buf.data() + k, n);
      const auto seed = static_cast<std::uint32_t>(rng.next());
      ASSERT_EQ(run(s, seed), detail::crc32Portable(s, seed))
          << "offset " << k << " length " << n;
    }
  }
}

TEST_P(Crc32KernelTest, LongSpansWithChainedSeeds) {
  // Spans past 64 KiB, each seeded with the CRC of those before it.
  const std::vector<std::byte> buf = randomBytes(3 * 70001 + 7, 23);
  const std::span<const std::byte> all(buf);
  std::uint32_t crc = 0x5EEDu;
  std::size_t at = 0;
  for (const std::size_t n : {std::size_t{65536 + 13}, std::size_t{70001},
                              std::size_t{65537}, std::size_t{9}}) {
    crc = run(all.subspan(at, n), crc);
    at += n;
  }
  EXPECT_EQ(crc, oracle(all.first(at), 0x5EEDu));
}

/// crc32Copy on the kernel under test: it must store exactly what memcpy
/// would and return what crc32 would, whatever the alignment of either side.
class Crc32CopyTest : public Crc32KernelTest {
 protected:
  static constexpr std::size_t kGuard = 64;
  static constexpr std::byte kGuardByte{0xA5};

  /// Copies `src` to `dst_offset` bytes past a 64-byte boundary of a
  /// guarded buffer and checks the bytes, the CRC and both guards.
  void expectCopy(std::span<const std::byte> src, std::size_t dst_offset,
                  std::uint32_t seed) {
    std::vector<std::byte> buf(kGuard + 64 + src.size() + kGuard, kGuardByte);
    std::byte* base = buf.data() + kGuard;
    base += (64 - reinterpret_cast<std::uintptr_t>(base) % 64) % 64;
    std::byte* dst = base + dst_offset;
    ASSERT_EQ(copy(dst, src, seed), oracle(src, seed))
        << "length " << src.size() << " dst offset " << dst_offset;
    ASSERT_TRUE(src.empty() ||
                std::memcmp(dst, src.data(), src.size()) == 0)
        << "length " << src.size() << " dst offset " << dst_offset;
    for (std::byte* g = buf.data(); g < dst; ++g) {
      ASSERT_EQ(*g, kGuardByte) << "byte " << (dst - g) << " before dst";
    }
    for (std::byte* g = dst + src.size(); g < buf.data() + buf.size(); ++g) {
      ASSERT_EQ(*g, kGuardByte) << "byte " << (g - dst) << " past dst";
    }
  }
};

TEST_P(Crc32CopyTest, EqualsMemcpyThenCrcAtEveryLength) {
  const std::vector<std::byte> buf = randomBytes(600, 31);
  const std::span<const std::byte> all(buf);
  for (std::size_t n = 0; n <= buf.size(); ++n) {
    expectCopy(all.first(n), 0, 0);
  }
}

TEST_P(Crc32CopyTest, MegabyteWithOddTail) {
  const std::vector<std::byte> buf = randomBytes((1u << 20) + 13, 32);
  expectCopy(buf, 0, 0);
  expectCopy(buf, 7, 0x1234u);
}

TEST_P(Crc32CopyTest, EverySourceAndDestinationMisalignment) {
  // Source offsets 0..63 of a 64-byte-aligned buffer cover every head before
  // the 16-byte fold body and every 512-bit load alignment; destination
  // offsets 0..63 cover every store alignment, each against each.
  alignas(64) std::array<std::byte, 64 + 700> src_buf{};
  const std::vector<std::byte> src = randomBytes(src_buf.size(), 33);
  std::memcpy(src_buf.data(), src.data(), src_buf.size());
  Rng rng(34);
  for (std::size_t s = 0; s < 64; ++s) {
    for (std::size_t d = 0; d < 64; ++d) {
      for (const std::size_t n :
           {std::size_t{15}, std::size_t{80}, std::size_t{300},
            std::size_t{700 - 64 + 63}}) {
        const std::size_t len = std::min(n, src_buf.size() - s);
        expectCopy({src_buf.data() + s, len}, d,
                   static_cast<std::uint32_t>(rng.next()));
      }
    }
  }
}

TEST_P(Crc32CopyTest, ChainedRandomSeedsMatchOneShot) {
  const std::vector<std::byte> buf = randomBytes(4096, 35);
  const std::span<const std::byte> all(buf);
  Rng rng(36);
  for (int trial = 0; trial < 200; ++trial) {
    const auto seed = static_cast<std::uint32_t>(rng.next());
    const std::size_t cut = rng.next() % buf.size();
    std::vector<std::byte> out(buf.size());
    const std::uint32_t chained =
        copy(out.data() + cut, all.subspan(cut),
             copy(out.data(), all.first(cut), seed));
    ASSERT_EQ(chained, oracle(all, seed)) << "trial " << trial;
    ASSERT_EQ(out, buf) << "trial " << trial;
  }
}

/// crc32Combine over pieces whose CRCs the kernel under test computed.
class Crc32CombineTest : public Crc32KernelTest {};

TEST_P(Crc32CombineTest, RandomSplitsMatchOneShot) {
  const std::vector<std::byte> buf = randomBytes(70000, 16);
  const std::span<const std::byte> all(buf);
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    // Up to eight cuts, repeats allowed, so some pieces are empty.
    std::vector<std::size_t> cuts{0, buf.size()};
    const std::size_t ncuts = rng.next() % 9;
    for (std::size_t i = 0; i < ncuts; ++i) {
      cuts.push_back(rng.next() % (buf.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    std::uint32_t combined = 0;  // the CRC of no bytes
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      const auto piece = all.subspan(cuts[i - 1], cuts[i] - cuts[i - 1]);
      combined = crc32Combine(combined, run(piece), piece.size());
    }
    ASSERT_EQ(combined, oracle(all)) << "trial " << trial;
  }
}

TEST_P(Crc32CombineTest, EmptyPiecesAreIdentities) {
  const std::vector<std::byte> buf = randomBytes(1000, 18);
  const std::uint32_t whole = run(buf);
  EXPECT_EQ(crc32Combine(whole, run({}), 0), whole);
  EXPECT_EQ(crc32Combine(run({}), whole, buf.size()), whole);
  EXPECT_EQ(crc32Combine(0, 0, 0), 0u);
}

TEST_P(Crc32CombineTest, LargeSecondPiece) {
  // A multi-megabyte B exercises the high squarings of the length.
  const std::vector<std::byte> buf = randomBytes((3u << 20) + 5, 19);
  const std::span<const std::byte> all(buf);
  for (const std::size_t cut : {std::size_t{1}, std::size_t{4093}}) {
    EXPECT_EQ(crc32Combine(run(all.first(cut)), run(all.subspan(cut)),
                           buf.size() - cut),
              oracle(all))
        << "cut " << cut;
  }
}

bool always() { return true; }

const auto kKernels = ::testing::Values(
    KernelCase{"portable", &detail::crc32Portable, &detail::crc32CopyPortable,
               &always},
    KernelCase{"hardware", &detail::crc32Hardware,
               &detail::crc32CopyHardware, &detail::crc32HardwareAvailable},
    KernelCase{"wide", &detail::crc32Wide, &detail::crc32CopyWide,
               &detail::crc32WideAvailable});

std::string kernelName(const ::testing::TestParamInfo<KernelCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32KernelTest, kKernels, kernelName);
INSTANTIATE_TEST_SUITE_P(Kernels, Crc32CopyTest, kKernels, kernelName);
INSTANTIATE_TEST_SUITE_P(Kernels, Crc32CombineTest, kKernels, kernelName);

TEST(Crc32Test, KnownVectors) {
  // Standard test vector: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32(bytesOf("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytesOf("")), 0u);
  EXPECT_EQ(crc32(bytesOf("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const auto all = bytesOf("hello, collective world");
  const std::uint32_t one_shot = crc32(all);
  const std::uint32_t part1 =
      crc32(std::span<const std::byte>(all.data(), 5));
  const std::uint32_t chained = crc32(
      std::span<const std::byte>(all.data() + 5, all.size() - 5), part1);
  EXPECT_EQ(chained, one_shot);
}

TEST(Crc32Test, CopyMatchesCrc32OnTheDispatchedKernel) {
  const std::vector<std::byte> src = randomBytes(5000, 37);
  std::vector<std::byte> dst(src.size());
  EXPECT_EQ(crc32Copy(dst.data(), src, 0xBEEFu), crc32(src, 0xBEEFu));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(crc32Copy(nullptr, {}), 0u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  auto data = bytesOf("checkpoint payload");
  const std::uint32_t before = crc32(data);
  data[7] ^= std::byte{0x01};
  EXPECT_NE(crc32(data), before);
}

}  // namespace
}  // namespace tcio
