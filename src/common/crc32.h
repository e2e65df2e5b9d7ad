// CRC-32 (IEEE 802.3 polynomial, reflected) for checkpoint integrity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace tcio {

/// Incremental CRC-32: pass the previous return value as `seed` to chain.
/// Runs the widest carry-less-multiply kernel the CPU has (512-bit, then
/// 128-bit) and the portable kernel otherwise; all give bit-identical values.
std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed = 0);

/// Copies `src` to `dst` and returns crc32(src, seed), reading each byte
/// once: the kernel stores every block it loads for the fold. `dst` holds at
/// least src.size() bytes, any alignment, and does not overlap `src`. Same
/// kernel choice as crc32().
std::uint32_t crc32Copy(std::byte* dst, std::span<const std::byte> src,
                        std::uint32_t seed = 0);

/// CRC-32 of A followed by B, from crc32(A), crc32(B) and B's length alone:
/// crc_a is carried over len_b zero bytes by a multiply in GF(2)[x] mod the
/// polynomial, then crc_b is added. Costs O(log len_b), reads no data.
std::uint32_t crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::size_t len_b);

namespace detail {

/// Slicing-by-16 table kernel; same contract as crc32(), on every CPU.
std::uint32_t crc32Portable(std::span<const std::byte> data,
                            std::uint32_t seed = 0);

/// crc32Copy() on the slicing-by-16 kernel.
std::uint32_t crc32CopyPortable(std::byte* dst,
                                std::span<const std::byte> src,
                                std::uint32_t seed = 0);

/// True when this CPU can run crc32Hardware() (x86-64 with PCLMULQDQ and
/// SSE4.1).
bool crc32HardwareAvailable();

/// PCLMULQDQ folding kernel; same contract as crc32(). Spans too short to
/// fold, and the unaligned head and tail, go through the portable kernel.
/// Only call it when crc32HardwareAvailable() is true.
std::uint32_t crc32Hardware(std::span<const std::byte> data,
                            std::uint32_t seed = 0);

/// crc32Copy() on the PCLMULQDQ kernel; same precondition as crc32Hardware().
std::uint32_t crc32CopyHardware(std::byte* dst,
                                std::span<const std::byte> src,
                                std::uint32_t seed = 0);

/// True when this CPU can run crc32Wide() (crc32HardwareAvailable() plus
/// AVX-512F, AVX-512VL and VPCLMULQDQ).
bool crc32WideAvailable();

/// VPCLMULQDQ kernel folding 256 bytes per step on 512-bit registers; same
/// contract as crc32(). Spans with fewer than 256 aligned bytes go to
/// crc32Hardware(). Only call it when crc32WideAvailable() is true.
std::uint32_t crc32Wide(std::span<const std::byte> data,
                        std::uint32_t seed = 0);

/// crc32Copy() on the VPCLMULQDQ kernel; same precondition as crc32Wide().
std::uint32_t crc32CopyWide(std::byte* dst, std::span<const std::byte> src,
                            std::uint32_t seed = 0);

}  // namespace detail

}  // namespace tcio
