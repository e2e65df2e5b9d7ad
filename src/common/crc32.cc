// CRC-32 kernels behind tcio::crc32 (crc32.h). All three compute the
// reflected IEEE 802.3 CRC; internally they work on the raw register, and
// only the entry points at the bottom of this file apply init and xorout:
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
//  - Wide (x86-64 with AVX-512 and VPCLMULQDQ): the same fold on 512-bit
//    registers. Four of them advance 256 bytes per step; they fold into one,
//    its four 128-bit lanes fold into one, and the hardware kernel's tail and
//    Barrett step finish. Spans with fewer than 256 aligned bytes take the
//    hardware kernel.
//
// The fold and Barrett constants are derived from the polynomial at compile
// time rather than written out. crc32() probes the CPU once and then always
// takes the same kernel: wide, else hardware, else portable.
//
// crc32Copy() runs the same kernels with a destination: every block the fold
// loads is also stored to the destination from the register it was loaded
// into, so the bytes are read from memory once for both the copy and the
// checksum. The blocks are aligned on the destination, whole cache lines,
// rather than on the source. Each kernel body is a template on kCopy, and the checksum-only
// instantiation compiles to the code it replaces.
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

/// With kCopy, also copies [p, p + n) to `d`; without it `d` is unused.
template <bool kCopy>
std::uint32_t sliceBy16(const unsigned char* p, std::size_t n,
                        std::uint32_t reg, unsigned char* d) {
  for (; n >= 16; p += 16, n -= 16) {
    if constexpr (kCopy) {
      std::memcpy(d, p, 16);
      d += 16;
    }
    reg = sliceWord(load32le(p) ^ reg, 12) ^ sliceWord(load32le(p + 4), 8) ^
          sliceWord(load32le(p + 8), 4) ^ sliceWord(load32le(p + 12), 0);
  }
  for (; n > 0; ++p, --n) {
    if constexpr (kCopy) *d++ = *p;
    reg = kTables[0][(reg ^ *p) & 0xFFu] ^ (reg >> 8);
  }
  return reg;
}

const unsigned char* bytesOf(std::span<const std::byte> data) {
  return reinterpret_cast<const unsigned char*>(data.data());
}

unsigned char* bytesOf(std::byte* dst) {
  return reinterpret_cast<unsigned char*>(dst);
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
// the first, the high half by the second, which moves it `bits` forward.
// Four 128-bit accumulators advance 512 bits per step, four 512-bit ones
// 2,048; a single 128-bit one advances 128 bits.
// consteval: the kernels call these inline, and the loop in foldConstant
// must not run per call.
consteval std::uint64_t foldLo(int bits) { return foldConstant(bits + 32); }
consteval std::uint64_t foldHi(int bits) { return foldConstant(bits - 32); }
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

// The block kernels index the source and the destination with one offset
// `at`; the destination is only touched with kCopy (it is null without).

/// Loads the block at p + at, which is aligned; with kCopy the block at
/// d + at is aligned instead, and the load is stored there.
template <bool kCopy>
TCIO_CRC_TARGET inline __attribute__((always_inline)) __m128i
load128(const unsigned char* p, unsigned char* d, std::size_t at) {
  if constexpr (kCopy) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + at));
    _mm_store_si128(reinterpret_cast<__m128i*>(d + at), v);
    return v;
  } else {
    return load128(p + at);
  }
}

/// Folds the 16-byte blocks of [p + at, p + n) into `x` (copying them with
/// kCopy), then reduces it to the 32-bit register. Requires `p` (with kCopy,
/// `d`) 16-byte aligned and `n - at` a multiple of 16. Always inlined, so
/// the wide kernel runs it VEX-encoded: legacy SSE code after 512-bit code
/// pays the AVX-SSE transition.
template <bool kCopy>
TCIO_CRC_TARGET inline __attribute__((always_inline)) std::uint32_t
finishBlocks(__m128i x, const unsigned char* p, unsigned char* d,
             std::size_t at, std::size_t n) {
  const __m128i by128 = pair(foldLo(128), foldHi(128));
  for (; at < n; at += 16) x = fold(x, by128, load128<kCopy>(p, d, at));

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

/// Requires `p` (with kCopy, `d`) 16-byte aligned and `n` a multiple of 16,
/// at least 64.
template <bool kCopy>
TCIO_CRC_TARGET std::uint32_t foldBlocks(const unsigned char* p,
                                         std::size_t n, std::uint32_t reg,
                                         unsigned char* d) {
  const __m128i by512 = pair(foldLo(512), foldHi(512));
  const __m128i by128 = pair(foldLo(128), foldHi(128));
  __m128i acc[4];
  for (int i = 0; i < 4; ++i) acc[i] = load128<kCopy>(p, d, 16 * i);
  acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(static_cast<int>(reg)));
  std::size_t at = 64;
  for (; n - at >= 64; at += 64) {
    for (int i = 0; i < 4; ++i) {
      acc[i] = fold(acc[i], by512, load128<kCopy>(p, d, at + 16 * i));
    }
  }
  __m128i x = fold(acc[0], by128, acc[1]);
  x = fold(x, by128, acc[2]);
  x = fold(x, by128, acc[3]);
  return finishBlocks<kCopy>(x, p, d, at, n);
}

// GCC 12 under -Werror: _mm512_broadcast_i32x4 and _mm512_extracti32x4_epi32
// pass an undefined operand and trip -Wuninitialized, so constants are built
// with _mm512_set_epi64 and lanes are taken with the zero-masked extract.
#define TCIO_CRC_WIDE_TARGET \
  __attribute__((target("avx512f,avx512vl,vpclmulqdq,pclmul,sse4.1")))

/// Lane i of the result moves forward by the distance of (lo[i], hi[i]).
TCIO_CRC_WIDE_TARGET inline __m512i lanePairs(
    std::uint64_t lo0, std::uint64_t hi0, std::uint64_t lo1, std::uint64_t hi1,
    std::uint64_t lo2, std::uint64_t hi2, std::uint64_t lo3,
    std::uint64_t hi3) {
  const auto ll = [](std::uint64_t v) { return static_cast<long long>(v); };
  return _mm512_set_epi64(ll(hi3), ll(lo3), ll(hi2), ll(lo2), ll(hi1), ll(lo1),
                          ll(hi0), ll(lo0));
}

TCIO_CRC_WIDE_TARGET inline __m512i everyLane(std::uint64_t lo,
                                              std::uint64_t hi) {
  return lanePairs(lo, hi, lo, hi, lo, hi, lo, hi);
}

/// fold() on each 128-bit lane: the two products and `next` are added in one
/// three-way XOR.
TCIO_CRC_WIDE_TARGET inline __m512i fold512(__m512i acc, __m512i k,
                                            __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   next, 0x96);
}

/// Loads the 64 bytes at p + at; with kCopy also stores them at d + at,
/// which is a whole cache line.
template <bool kCopy>
TCIO_CRC_WIDE_TARGET inline __attribute__((always_inline)) __m512i
load512(const unsigned char* p, unsigned char* d, std::size_t at) {
  const __m512i v = _mm512_loadu_si512(p + at);
  if constexpr (kCopy) _mm512_store_si512(d + at, v);
  return v;
}

/// Requires `p` 16-byte aligned (with kCopy, `d` 64-byte aligned) and `n` a
/// multiple of 16, at least 256.
template <bool kCopy>
TCIO_CRC_WIDE_TARGET std::uint32_t foldBlocksWide(const unsigned char* p,
                                                  std::size_t n,
                                                  std::uint32_t reg,
                                                  unsigned char* d) {
  const __m512i by2048 = everyLane(foldLo(2048), foldHi(2048));
  const __m512i by512 = everyLane(foldLo(512), foldHi(512));
  // Named accumulators, not an array: an array of __m512i is kept on the
  // stack.
  __m512i a0 = _mm512_xor_si512(load512<kCopy>(p, d, 0),
                                _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, reg));
  __m512i a1 = load512<kCopy>(p, d, 64);
  __m512i a2 = load512<kCopy>(p, d, 128);
  __m512i a3 = load512<kCopy>(p, d, 192);
  std::size_t at = 256;
  for (; n - at >= 256; at += 256) {
    a0 = fold512(a0, by2048, load512<kCopy>(p, d, at));
    a1 = fold512(a1, by2048, load512<kCopy>(p, d, at + 64));
    a2 = fold512(a2, by2048, load512<kCopy>(p, d, at + 128));
    a3 = fold512(a3, by2048, load512<kCopy>(p, d, at + 192));
  }
  __m512i x = fold512(a0, by512, a1);
  x = fold512(x, by512, a2);
  x = fold512(x, by512, a3);
  for (; n - at >= 64; at += 64) {
    x = fold512(x, by512, load512<kCopy>(p, d, at));
  }
  // Lanes 0..2 move forward to lane 3 (by 384, 256 and 128 bits), which
  // passes through unmultiplied; the XOR of the four lanes is the remainder.
  const __m512i to_last =
      lanePairs(foldLo(384), foldHi(384), foldLo(256), foldHi(256),
                foldLo(128), foldHi(128), 0, 0);
  const __m512i y = fold512(x, to_last, _mm512_maskz_mov_epi64(0xC0, x));
  const __m128i lanes01 =
      _mm_xor_si128(_mm512_maskz_extracti32x4_epi32(0xF, y, 0),
                    _mm512_maskz_extracti32x4_epi32(0xF, y, 1));
  const __m128i lanes23 =
      _mm_xor_si128(_mm512_maskz_extracti32x4_epi32(0xF, y, 2),
                    _mm512_maskz_extracti32x4_epi32(0xF, y, 3));
  return finishBlocks<kCopy>(_mm_xor_si128(lanes01, lanes23), p, d, at, n);
}

#undef TCIO_CRC_WIDE_TARGET
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
  return ~sliceBy16<false>(bytesOf(data), data.size(), ~seed, nullptr);
}

std::uint32_t crc32CopyPortable(std::byte* dst,
                                std::span<const std::byte> src,
                                std::uint32_t seed) {
  return ~sliceBy16<true>(bytesOf(src), src.size(), ~seed, bytesOf(dst));
}

#if defined(__x86_64__)

namespace {

/// Bytes before the block kernels' first aligned block. Without kCopy that
/// is the source's next 16-byte boundary. With kCopy it is the destination's
/// next cache line, so no block store splits a line; the loads are then
/// unaligned, which costs less than split stores into a cold destination.
template <bool kCopy>
std::size_t headOf(const unsigned char* p, const unsigned char* d) {
  if constexpr (kCopy) return -reinterpret_cast<std::uintptr_t>(d) & 63u;
  return -reinterpret_cast<std::uintptr_t>(p) & 15u;
}

/// The portable kernel takes the unaligned head and the sub-16-byte tail,
/// `fold_blocks` the aligned body between them, when that body holds at
/// least `min_body` bytes. With kCopy every byte also goes to `d`.
template <bool kCopy, typename FoldBlocks>
std::uint32_t foldSpan(std::span<const std::byte> data, std::uint32_t seed,
                       unsigned char* d, std::size_t min_body,
                       FoldBlocks fold_blocks) {
  const unsigned char* p = bytesOf(data);
  std::size_t n = data.size();
  std::uint32_t reg = ~seed;
  const std::size_t head = headOf<kCopy>(p, d);
  if (n >= head + min_body) {
    reg = sliceBy16<kCopy>(p, head, reg, d);
    const std::size_t body = (n - head) & ~std::size_t{15};
    if constexpr (kCopy) d += head;
    p += head;
    reg = fold_blocks(p, body, reg, d);
    if constexpr (kCopy) d += body;
    p += body;
    n -= head + body;
  }
  return ~sliceBy16<kCopy>(p, n, reg, d);
}

template <bool kCopy>
std::uint32_t hardwareSpan(std::span<const std::byte> data,
                           std::uint32_t seed, unsigned char* d) {
  return foldSpan<kCopy>(data, seed, d, 64, foldBlocks<kCopy>);
}

template <bool kCopy>
std::uint32_t wideSpan(std::span<const std::byte> data, std::uint32_t seed,
                       unsigned char* d) {
  if (data.size() < headOf<kCopy>(bytesOf(data), d) + 256) {
    return hardwareSpan<kCopy>(data, seed, d);
  }
  return foldSpan<kCopy>(data, seed, d, 256, foldBlocksWide<kCopy>);
}

}  // namespace

bool crc32HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

std::uint32_t crc32Hardware(std::span<const std::byte> data,
                            std::uint32_t seed) {
  return hardwareSpan<false>(data, seed, nullptr);
}

std::uint32_t crc32CopyHardware(std::byte* dst,
                                std::span<const std::byte> src,
                                std::uint32_t seed) {
  return hardwareSpan<true>(src, seed, bytesOf(dst));
}

bool crc32WideAvailable() {
  return crc32HardwareAvailable() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("vpclmulqdq");
}

std::uint32_t crc32Wide(std::span<const std::byte> data, std::uint32_t seed) {
  return wideSpan<false>(data, seed, nullptr);
}

std::uint32_t crc32CopyWide(std::byte* dst, std::span<const std::byte> src,
                            std::uint32_t seed) {
  return wideSpan<true>(src, seed, bytesOf(dst));
}

#else

bool crc32HardwareAvailable() { return false; }

std::uint32_t crc32Hardware(std::span<const std::byte> data,
                            std::uint32_t seed) {
  return crc32Portable(data, seed);
}

std::uint32_t crc32CopyHardware(std::byte* dst,
                                std::span<const std::byte> src,
                                std::uint32_t seed) {
  return crc32CopyPortable(dst, src, seed);
}

bool crc32WideAvailable() { return false; }

std::uint32_t crc32Wide(std::span<const std::byte> data, std::uint32_t seed) {
  return crc32Portable(data, seed);
}

std::uint32_t crc32CopyWide(std::byte* dst, std::span<const std::byte> src,
                            std::uint32_t seed) {
  return crc32CopyPortable(dst, src, seed);
}

#endif  // __x86_64__

}  // namespace detail

namespace {

/// The CPU is probed once; crc32() and crc32Copy() then always take the
/// same kernel: wide, else hardware, else portable.
struct Kernels {
  std::uint32_t (*crc)(std::span<const std::byte>, std::uint32_t);
  std::uint32_t (*copy)(std::byte*, std::span<const std::byte>,
                        std::uint32_t);
};

const Kernels& kernels() {
  static const Kernels k =
      detail::crc32WideAvailable()
          ? Kernels{&detail::crc32Wide, &detail::crc32CopyWide}
      : detail::crc32HardwareAvailable()
          ? Kernels{&detail::crc32Hardware, &detail::crc32CopyHardware}
          : Kernels{&detail::crc32Portable, &detail::crc32CopyPortable};
  return k;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  return kernels().crc(data, seed);
}

std::uint32_t crc32Copy(std::byte* dst, std::span<const std::byte> src,
                        std::uint32_t seed) {
  return kernels().copy(dst, src, seed);
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
