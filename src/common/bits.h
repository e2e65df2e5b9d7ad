// Bitmaps stored as 64-bit words: bit i lives in word i/64 at position i%64.
// The word layout is what the bitmaps reduce with kBitOr and carry on the
// wire, so every rank must derive the same word count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tcio {

/// Words a bitmap of `n` bits needs.
inline std::size_t bitWords(std::int64_t n) {
  return static_cast<std::size_t>((n + 63) / 64);
}

inline void setBit(std::vector<std::uint64_t>& words, std::int64_t i) {
  words[static_cast<std::size_t>(i >> 6)] |= std::uint64_t{1} << (i & 63);
}

inline bool testBit(const std::vector<std::uint64_t>& words, std::int64_t i) {
  return ((words[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1) != 0;
}

}  // namespace tcio
