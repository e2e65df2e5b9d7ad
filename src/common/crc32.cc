// CRC-32 kernels behind tcio::crc32 (crc32.h). Both compute the reflected
// IEEE 802.3 CRC; internally they work on the raw register, and only the
// entry points at the bottom of this file apply init and xorout:
//
//  - Portable: slicing-by-16. Sixteen 256-entry tables, built at compile
//    time, consume 16 input bytes per step with independent lookups, so the
//    loop is bound by load throughput instead of one table lookup per byte.
//  - Hardware (x86-64 with PCLMULQDQ): the 16-byte-aligned body of a span is
//    folded through four 128-bit accumulators with carry-less multiplies,
//    then reduced to 32 bits with one Barrett step (Gopal et al., "Fast CRC
//    Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//    Intel, 2009). The portable kernel takes the unaligned head and the
//    sub-16-byte tail.
//
// The fold and Barrett constants are derived from the polynomial at compile
// time rather than written out. crc32() probes the CPU once and then always
// takes the same kernel.
//
// crc32Combine needs no data: with init and xorout both ~0, their
// contributions cancel, and crc(A·B) = crc(A)·x^(8|B|) + crc(B) mod P.
#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace tcio {
namespace detail {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // 0x04C11DB7, bit-reflected

/// One step of "multiply by x mod P" on a reflected register.
constexpr std::uint32_t timesX(std::uint32_t c) {
  return (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
}

using SliceTables = std::array<std::array<std::uint32_t, 256>, 16>;

/// tables[k][b] is the register after byte b followed by k zero bytes.
constexpr SliceTables makeSliceTables() {
  SliceTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) c = timesX(c);
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr SliceTables kTables = makeSliceTables();

std::uint32_t load32le(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

/// Contribution of the four bytes of `w` when the last of them is followed
/// by `after` more bytes of the 16-byte block.
std::uint32_t sliceWord(std::uint32_t w, std::size_t after) {
  return kTables[after + 3][w & 0xFFu] ^ kTables[after + 2][(w >> 8) & 0xFFu] ^
         kTables[after + 1][(w >> 16) & 0xFFu] ^ kTables[after][w >> 24];
}

std::uint32_t sliceBy16(const unsigned char* p, std::size_t n,
                        std::uint32_t reg) {
  for (; n >= 16; p += 16, n -= 16) {
    reg = sliceWord(load32le(p) ^ reg, 12) ^ sliceWord(load32le(p + 4), 8) ^
          sliceWord(load32le(p + 8), 4) ^ sliceWord(load32le(p + 12), 0);
  }
  for (; n > 0; ++p, --n) reg = kTables[0][(reg ^ *p) & 0xFFu] ^ (reg >> 8);
  return reg;
}

const unsigned char* bytesOf(std::span<const std::byte> data) {
  return reinterpret_cast<const unsigned char*>(data.data());
}

#if defined(__x86_64__)

/// x^n mod P, reflected and shifted into the 33-bit form PCLMULQDQ folds
/// with.
constexpr std::uint64_t foldConstant(int n) {
  std::uint32_t c = 0x80000000u;  // x^0
  for (int i = 0; i < n; ++i) c = timesX(c);
  return std::uint64_t{c} << 1;
}

constexpr std::uint64_t reflect(std::uint64_t v, int bits) {
  std::uint64_t r = 0;
  for (int i = 0; i < bits; ++i) r |= ((v >> i) & 1u) << (bits - 1 - i);
  return r;
}

/// Barrett constants: P itself and floor(x^64 / P), both reflected over 33
/// bits.
constexpr std::uint64_t kBarrettPoly = (std::uint64_t{kPoly} << 1) | 1u;
constexpr std::uint64_t barrettQuotient() {
  const std::uint64_t p = reflect(kBarrettPoly, 33);  // x^32 + ...
  std::uint64_t rem = 0;                               // x^64 / P, long-hand
  std::uint64_t q = 0;
  for (int i = 64; i >= 0; --i) {
    rem = (rem << 1) | (i == 64 ? 1u : 0u);
    if (rem >> 32) {
      rem ^= p;
      q |= std::uint64_t{1} << i;
    }
  }
  return reflect(q, 33);
}

// Fold constant pairs: the low 64-bit half of an accumulator is multiplied by
// the first, the high half by the second. Four accumulators advance 512 bits
// per step; a single one advances 128 bits.
constexpr std::uint64_t kFold512Lo = foldConstant(4 * 128 + 32);
constexpr std::uint64_t kFold512Hi = foldConstant(4 * 128 - 32);
constexpr std::uint64_t kFold128Lo = foldConstant(128 + 32);
constexpr std::uint64_t kFold128Hi = foldConstant(128 - 32);
constexpr std::uint64_t kFold64 = foldConstant(64);
constexpr std::uint64_t kBarrettQuotient = barrettQuotient();

#define TCIO_CRC_TARGET __attribute__((target("pclmul,sse4.1")))

TCIO_CRC_TARGET inline __m128i pair(std::uint64_t lo, std::uint64_t hi) {
  return _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo));
}

/// acc.lo·k.lo ⊕ acc.hi·k.hi ⊕ next over GF(2): moves a 128-bit accumulator
/// forward over the distance `k` encodes and adds the next block.
TCIO_CRC_TARGET inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

TCIO_CRC_TARGET inline __m128i load128(const unsigned char* p) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
}

/// Requires `p` 16-byte aligned and `n` a multiple of 16, at least 64.
TCIO_CRC_TARGET std::uint32_t foldBlocks(const unsigned char* p,
                                         std::size_t n, std::uint32_t reg) {
  const __m128i by512 = pair(kFold512Lo, kFold512Hi);
  const __m128i by128 = pair(kFold128Lo, kFold128Hi);
  __m128i acc[4];
  for (int i = 0; i < 4; ++i) acc[i] = load128(p + 16 * i);
  acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(static_cast<int>(reg)));
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    for (int i = 0; i < 4; ++i) {
      acc[i] = fold(acc[i], by512, load128(p + 16 * i));
    }
  }
  __m128i x = fold(acc[0], by128, acc[1]);
  x = fold(x, by128, acc[2]);
  x = fold(x, by128, acc[3]);
  for (; n >= 16; p += 16, n -= 16) x = fold(x, by128, load128(p));

  // 128 -> 64 bits, then 64 -> 32 bits.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_clmulepi64_si128(x, by128, 0x10),
                    _mm_srli_si128(x, 8));
  x = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x, low32),
                                         pair(kFold64, 0), 0x00),
                    _mm_srli_si128(x, 4));

  // Barrett reduction to the 32-bit remainder.
  const __m128i barrett = pair(kBarrettPoly, kBarrettQuotient);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(
      _mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#undef TCIO_CRC_TARGET

#endif  // __x86_64__

/// a·b mod P on reflected registers (bit 31 is x^0): b is added once for
/// every term of a, multiplied up to that term's degree.
constexpr std::uint32_t mulModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t prod = 0;
  for (; a != 0; a <<= 1, b = timesX(b)) {
    if (a & 0x80000000u) prod ^= b;
  }
  return prod;
}

/// kPow2[k] = x^(2^k) mod P, enough squarings for any 64-bit bit count.
using Pow2Table = std::array<std::uint32_t, 67>;
constexpr Pow2Table makePow2Table() {
  Pow2Table t{};
  t[0] = 0x40000000u;  // x^1
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = mulModP(t[k - 1], t[k - 1]);
  return t;
}

constexpr Pow2Table kPow2 = makePow2Table();

}  // namespace

std::uint32_t crc32Portable(std::span<const std::byte> data,
                            std::uint32_t seed) {
  return ~sliceBy16(bytesOf(data), data.size(), ~seed);
}

#if defined(__x86_64__)

bool crc32HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

std::uint32_t crc32Hardware(std::span<const std::byte> data,
                            std::uint32_t seed) {
  const unsigned char* p = bytesOf(data);
  std::size_t n = data.size();
  std::uint32_t reg = ~seed;
  const std::size_t head = -reinterpret_cast<std::uintptr_t>(p) & 15u;
  if (n >= head + 64) {
    reg = sliceBy16(p, head, reg);
    p += head;
    n -= head;
    const std::size_t body = n & ~std::size_t{15};
    reg = foldBlocks(p, body, reg);
    p += body;
    n -= body;
  }
  return ~sliceBy16(p, n, reg);
}

#else

bool crc32HardwareAvailable() { return false; }

std::uint32_t crc32Hardware(std::span<const std::byte> data,
                            std::uint32_t seed) {
  return crc32Portable(data, seed);
}

#endif  // __x86_64__

}  // namespace detail

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  static const bool hardware = detail::crc32HardwareAvailable();
  return hardware ? detail::crc32Hardware(data, seed)
                  : detail::crc32Portable(data, seed);
}

std::uint32_t crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::size_t len_b) {
  // x^(8·len_b) from the squarings table: bit i of len_b is x^(2^(i+3)).
  std::uint32_t shift = 0x80000000u;  // x^0
  for (std::size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1u) shift = detail::mulModP(detail::kPow2[k], shift);
  }
  return detail::mulModP(shift, crc_a) ^ crc_b;
}

}  // namespace tcio
