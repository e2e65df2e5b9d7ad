// Sparse byte store backing simulated files.
//
// Stores real data so every layer above can be verified end-to-end. Pages
// are allocated lazily; holes read back as zero (POSIX semantics). A page
// is a LazyBytes: each of its 4 KiB chunks holds bytes up to its highest
// written one and reads as zero past it, so a fresh page is not zero-filled
// ahead of the appends that fill it (journal batches, drained segments
// smaller than a page), and a write past a chunk's held bytes zeroes only
// the gap before it in that chunk.
#pragma once

#include <cstring>
#include <map>
#include <span>

#include "common/error.h"
#include "common/lazy_bytes.h"
#include "common/types.h"

namespace tcio::fs {

/// Page-granular sparse storage for one file's contents.
class SparseStore {
 public:
  static constexpr Bytes kPageSize = 64_KiB;

  void write(Offset off, std::span<const std::byte> data);
  void read(Offset off, std::span<std::byte> out) const;

  /// Highest written offset + 1 (0 for an empty file).
  Bytes size() const { return size_; }

  /// Drops all contents (truncate to zero).
  void clear() {
    pages_.clear();
    size_ = 0;
  }

  /// Bytes of allocated pages, a whole page each however little of it is
  /// written (for memory accounting in tests).
  Bytes allocatedBytes() const {
    return static_cast<Bytes>(pages_.size()) * kPageSize;
  }

 private:
  std::map<std::int64_t, LazyBytes> pages_;  // page index -> its bytes
  Bytes size_ = 0;
};

}  // namespace tcio::fs
