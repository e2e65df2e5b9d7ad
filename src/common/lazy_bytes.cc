#include "common/lazy_bytes.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace tcio {

void LazyBytes::allocate() {
  bytes_ =
      std::make_unique_for_overwrite<std::byte[]>(static_cast<std::size_t>(size_));
  const auto chunks = static_cast<std::size_t>((size_ + kChunk - 1) / kChunk);
  filled_.assign(chunks, 0);
  unfilled_ = chunks;
}

void LazyBytes::zeroTo(std::size_t c, Offset to) {
  const Offset from = static_cast<Offset>(c) * kChunk + filled_[c];
  if (to <= from) return;
  std::memset(bytes_.get() + from, 0, static_cast<std::size_t>(to - from));
  fillTo(c, to);
}

std::byte* LazyBytes::rangeSlow(Offset at, Bytes n) {
  if (bytes_ == nullptr) allocate();
  if (unfilled_ > 0 && n > 0) {
    const Offset end = at + n;
    const auto last = static_cast<std::size_t>((end - 1) / kChunk);
    for (auto c = static_cast<std::size_t>(at / kChunk); c <= last; ++c) {
      zeroTo(c, std::min(end, chunkEnd(c)));
    }
  }
  return bytes_.get() + at;
}

std::byte* LazyBytes::overwriteSlow(Offset at, Bytes n) {
  if (bytes_ == nullptr) allocate();
  if (unfilled_ > 0 && n > 0) {
    const Offset end = at + n;
    const auto first = static_cast<std::size_t>(at / kChunk);
    const auto last = static_cast<std::size_t>((end - 1) / kChunk);
    zeroTo(first, at);
    for (std::size_t c = first; c <= last; ++c) {
      fillTo(c, std::min(end, chunkEnd(c)));
    }
  }
  return bytes_.get() + at;
}

void LazyBytes::readSlow(Offset at, void* dst, Bytes n) const {
  auto* out = static_cast<std::byte*>(dst);
  if (n <= 0) return;
  if (bytes_ == nullptr) {
    std::memset(out, 0, static_cast<std::size_t>(n));
    return;
  }
  const Offset end = at + n;
  while (at < end) {
    const auto c = static_cast<std::size_t>(at / kChunk);
    const Offset stop = std::min(end, chunkEnd(c));
    const Offset content = std::clamp<Offset>(
        static_cast<Offset>(c) * kChunk + filled_[c], at, stop);
    std::memcpy(out, bytes_.get() + at, static_cast<std::size_t>(content - at));
    std::memset(out + (content - at), 0,
                static_cast<std::size_t>(stop - content));
    out += stop - at;
    at = stop;
  }
}

void LazyBytes::resize(Bytes n) {
  if (bytes_ == nullptr || n == 0) {
    release();
    size_ = n;
    return;
  }
  LazyBytes grown(n);
  grown.allocate();
  grown.unfilled_ = 0;
  for (std::size_t c = 0; c < grown.filled_.size(); ++c) {
    const Offset begin = static_cast<Offset>(c) * kChunk;
    if (c < filled_.size()) {
      grown.filled_[c] = static_cast<std::uint32_t>(
          std::min<Bytes>(filled_[c], grown.chunkEnd(c) - begin));
      std::memcpy(grown.bytes_.get() + begin, bytes_.get() + begin,
                  grown.filled_[c]);
    }
    if (begin + grown.filled_[c] < grown.chunkEnd(c)) ++grown.unfilled_;
  }
  *this = std::move(grown);
}

void LazyBytes::release() {
  bytes_.reset();
  std::vector<std::uint32_t>().swap(filled_);
  unfilled_ = 0;
}

}  // namespace tcio
