#include "fs/store.h"

#include <algorithm>

namespace tcio::fs {

void SparseStore::write(Offset off, std::span<const std::byte> data) {
  TCIO_CHECK(off >= 0);
  Offset cur = off;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::int64_t page = cur / kPageSize;
    const Offset in_page = cur % kPageSize;
    const std::size_t n = std::min<std::size_t>(
        data.size() - consumed, static_cast<std::size_t>(kPageSize - in_page));
    const auto it = pages_.try_emplace(page, kPageSize).first;
    std::memcpy(it->second.overwrite(in_page, static_cast<Bytes>(n)),
                data.data() + consumed, n);
    consumed += n;
    cur += static_cast<Offset>(n);
  }
  size_ = std::max(size_, off + static_cast<Bytes>(data.size()));
}

void SparseStore::read(Offset off, std::span<std::byte> out) const {
  TCIO_CHECK(off >= 0);
  Offset cur = off;
  std::size_t produced = 0;
  while (produced < out.size()) {
    const std::int64_t page = cur / kPageSize;
    const Offset in_page = cur % kPageSize;
    const std::size_t n = std::min<std::size_t>(
        out.size() - produced, static_cast<std::size_t>(kPageSize - in_page));
    const auto it = pages_.find(page);
    if (it == pages_.end()) {
      std::memset(out.data() + produced, 0, n);
    } else {
      it->second.read(in_page, out.data() + produced, static_cast<Bytes>(n));
    }
    produced += n;
    cur += static_cast<Offset>(n);
  }
}

}  // namespace tcio::fs
