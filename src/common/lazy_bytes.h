// A fixed-size byte buffer that reads as zero until written, and zeroes its
// host bytes lazily instead of up front.
//
// The simulator moves real bytes through every modelled hop, so a buffer
// that is zero-filled when created and then overwritten writes each byte
// twice. LazyBytes writes it once: the host bytes are allocated
// uninitialised by the first write or local access, and each kChunk-byte
// chunk holds content up to a watermark and reads as zero above it. A write
// zeroes only the gap between its chunk's watermark and its own first byte,
// so bytes written in ascending order are written once, a chunk one write
// covers is never zeroed, and a read copies the content and zero-fills the
// rest of its destination without touching the buffer. Once every chunk is
// full, each access costs one counter test beyond the copy.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/types.h"

namespace tcio {

class LazyBytes {
 public:
  static constexpr Bytes kChunk = 4096;

  LazyBytes() = default;
  /// `size` bytes that read as zero; nothing is allocated yet.
  explicit LazyBytes(Bytes size) : size_(size) {}

  Bytes size() const { return size_; }
  /// Host bytes held: `size()` once allocated, else 0.
  Bytes allocatedBytes() const { return bytes_ != nullptr ? size_ : 0; }

  /// [at, at + n), every byte holding content: the part that reads as zero
  /// is zeroed now. The pointer stays valid until resize or release.
  std::byte* range(Offset at, Bytes n) {
    if (unfilled_ == 0 && bytes_ != nullptr) return bytes_.get() + at;
    return rangeSlow(at, n);
  }
  /// [at, at + n) for a caller that writes every byte of it before anything
  /// reads them: only the gap below `at` in its chunk is zeroed.
  std::byte* overwrite(Offset at, Bytes n) {
    if (bytes_ != nullptr && n > 0) {
      if (unfilled_ == 0) return bytes_.get() + at;
      // Inside one chunk, starting at or below its content's end.
      const auto c = static_cast<std::size_t>(at / kChunk);
      const Offset begin = static_cast<Offset>(c) * kChunk;
      if (at <= begin + filled_[c] && at + n <= begin + kChunk) {
        fillTo(c, at + n);
        return bytes_.get() + at;
      }
    }
    return overwriteSlow(at, n);
  }
  /// Copies [at, at + n) to `dst`, reading zero past each chunk's content.
  void read(Offset at, void* dst, Bytes n) const {
    if (n > 0 && bytes_ != nullptr && (unfilled_ == 0 || held(at, n))) {
      std::memcpy(dst, bytes_.get() + at, static_cast<std::size_t>(n));
      return;
    }
    readSlow(at, dst, n);
  }

  /// Keeps the content of the first min(size(), n) bytes; growth reads zero.
  void resize(Bytes n);
  /// Gives the host bytes back: everything reads as zero again.
  void release();

  // Callers check bounds; none of the accessors above do.

 private:
  std::byte* rangeSlow(Offset at, Bytes n);
  std::byte* overwriteSlow(Offset at, Bytes n);
  void readSlow(Offset at, void* dst, Bytes n) const;
  void allocate();
  Bytes chunkEnd(std::size_t c) const {
    return std::min(size_, static_cast<Bytes>(c + 1) * kChunk);
  }
  /// True when [at, at + n) lies inside one chunk's content.
  bool held(Offset at, Bytes n) const {
    const auto c = static_cast<std::size_t>(at / kChunk);
    return at + n <= static_cast<Offset>(c) * kChunk + filled_[c];
  }
  /// Zeroes chunk c from its watermark up to `to` (absolute offset).
  void zeroTo(std::size_t c, Offset to);
  /// Raises chunk c's watermark to `to` (absolute offset).
  void fillTo(std::size_t c, Offset to) {
    const Offset begin = static_cast<Offset>(c) * kChunk;
    if (to - begin <= filled_[c]) return;
    filled_[c] = static_cast<std::uint32_t>(to - begin);
    if (to == chunkEnd(c)) --unfilled_;
  }

  Bytes size_ = 0;
  std::unique_ptr<std::byte[]> bytes_;  // null until allocated
  std::vector<std::uint32_t> filled_;   // per chunk, while allocated
  std::size_t unfilled_ = 0;            // chunks below their end (0: none)
};

}  // namespace tcio
