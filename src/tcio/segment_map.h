// The paper's equations (1)-(3): round-robin mapping from file offsets to
// (owner rank, segment slot, in-segment displacement) in O(1).
//
//   ID_rank    = (offset / SIZE_segment) % NUM_processes          (1)
//   ID_segment = (offset / SIZE_segment) / NUM_processes          (2)
//   DISP_block = offset % SIZE_segment                            (3)
#pragma once

#include "common/error.h"
#include "common/types.h"

namespace tcio::core {

class SegmentMap {
 public:
  SegmentMap(Bytes segment_size, int num_ranks)
      : segment_size_(segment_size), num_ranks_(num_ranks) {
    TCIO_CHECK(segment_size_ > 0);
    TCIO_CHECK(num_ranks_ > 0);
  }

  int numRanks() const { return num_ranks_; }

  /// Global segment index of a file offset.
  SegmentId segmentOf(Offset off) const { return off / segment_size_; }

  /// Eq. (1): rank owning global segment `g`.
  Rank rankOf(SegmentId g) const {
    return static_cast<Rank>(g % num_ranks_);
  }

  /// Eq. (2): slot of `g` within its owner's level-2 buffer.
  std::int64_t slotOf(SegmentId g) const { return g / num_ranks_; }

  /// Eq. (3): displacement of `off` inside its segment.
  Offset dispOf(Offset off) const { return off % segment_size_; }

  /// File offset where global segment `g` starts.
  Offset baseOf(SegmentId g) const { return g * segment_size_; }

  /// Global segment index for (owner, slot) — inverse of (1)+(2).
  SegmentId segmentFor(Rank owner, std::int64_t slot) const {
    return slot * num_ranks_ + owner;
  }

 private:
  Bytes segment_size_;
  int num_ranks_;
};

}  // namespace tcio::core
