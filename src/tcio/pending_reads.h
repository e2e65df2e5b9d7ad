// The lazy-read record (paper §IV.A): every read_at between two fetches,
// kept as strided runs instead of one (offset, length, destination) entry
// per datum.
//
//   * ReadRun — `count` equal-length pieces whose file offset and destination
//     address each advance by a constant stride.
//   * PendingReads — records pieces, extending one of the last kLookback
//     runs when the piece continues its progression, and walks them back run
//     by run (forEach) or per owner (forEachByOwner, the one-sided gather's
//     order) without ever listing the pieces.
//
// The record keeps pieces, not read order: when two pending reads of one
// fetch land on the same destination byte, which one lands last is
// unspecified, as for two pending MPI receives into one buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "tcio/segment_map.h"

namespace tcio::core {

/// One recorded piece: `len` bytes of the file at `off` land at `dst`.
struct ReadPiece {
  Offset off = 0;
  Bytes len = 0;
  std::byte* dst = nullptr;

  bool operator==(const ReadPiece&) const = default;
};

/// `count` pieces of `len` bytes. Piece i reads file offset
/// off + i * off_stride into dst + i * dst_stride. The strides are 0 while
/// count == 1. Destinations are kept as integers: consecutive pieces may
/// land in different arrays, and subtracting pointers into different arrays
/// is undefined.
struct ReadRun {
  Offset off = 0;
  std::uintptr_t dst = 0;
  std::uint32_t len = 0;
  std::uint32_t count = 1;
  std::int32_t off_stride = 0;
  std::int32_t dst_stride = 0;

  Offset offOf(std::uint32_t i) const {
    return off + std::int64_t{i} * off_stride;
  }
  std::uintptr_t dstOf(std::uint32_t i) const {
    return dst + static_cast<std::uintptr_t>(std::int64_t{i} * dst_stride);
  }
  ReadPiece piece(std::uint32_t i) const {
    // The address a destination was recorded from, restored.
    // NOLINTNEXTLINE(performance-no-int-to-ptr)
    auto* const to = reinterpret_cast<std::byte*>(dstOf(i));
    return {offOf(i), len, to};
  }

  /// The extension rule: a piece of the run's length extends a one-piece run
  /// when its offset and destination differences fit the 32-bit stride
  /// fields (it fixes the strides), and a longer run when it is exactly the
  /// next term of both progressions. On a match the run grows and true is
  /// returned.
  bool extend(Offset o, std::uintptr_t d, Bytes n);

  /// The pieces [lo, hi) whose offsets lie in [begin, end): one contiguous
  /// index range, since offsets are monotone along the run.
  std::pair<std::uint32_t, std::uint32_t> within(Offset begin,
                                                 Offset end) const;
};
static_assert(sizeof(ReadRun) == 32, "a run must not cost more than 32 B");

/// Where a segment lives: the round-robin map of equations (1)-(3) (over the
/// communicator the file was opened on), overlaid with crash takeovers
/// (`moved`: segment -> new owner, sorted by segment).
struct Placement {
  const SegmentMap& map;
  std::span<const std::pair<SegmentId, Rank>> moved;

  Rank ownerOf(SegmentId g) const;
};

/// One run's pieces [lo, hi), all in one segment.
struct PieceRange {
  std::uint32_t run = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

/// Per owner, the runs that may have pieces in the owner's segments: every
/// run of at least P pieces, and each shorter run at the owners its pieces
/// land on. Visiting an owner then costs O(1) per (candidate run, segment).
class OwnerIndex {
 public:
  OwnerIndex(std::span<const ReadRun> runs, const Placement& where);

  /// Appends each candidate run's nonempty piece range in each segment
  /// `owner` holds, takeovers included.
  void appendRanges(Rank owner, std::vector<PieceRange>& out) const;

 private:
  void appendRunRanges(std::uint32_t r, Rank owner,
                       std::vector<PieceRange>& out) const;

  std::span<const ReadRun> runs_;
  const Placement& where_;
  std::vector<std::uint32_t> wide_;    // runs of >= P pieces: every owner's
  std::vector<std::uint32_t> start_;   // per owner: its first narrow_ entry
  std::vector<std::uint32_t> narrow_;  // shorter runs, bucketed by owner
};

class PendingReads {
 public:
  /// How many of the most recent runs a new piece may extend.
  static constexpr std::size_t kLookback = 4;

  /// Records the next piece (which must lie in one segment).
  void add(Offset off, std::byte* dst, Bytes len);

  bool empty() const { return runs_.empty(); }
  std::span<const ReadRun> runs() const { return runs_; }
  void clear() { runs_.clear(); }

  /// Calls fn(piece) for every piece, run by run.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const ReadRun& run : runs_) {
      for (std::uint32_t i = 0; i < run.count; ++i) fn(run.piece(i));
    }
  }

  /// For each owner 0..P-1 in ascending order (P from `where.map`), calls
  /// onPiece(piece) for every piece in the owner's segments, then
  /// onOwnerEnd(owner) if there was one.
  template <typename OnPiece, typename OnOwnerEnd>
  void forEachByOwner(const Placement& where, OnPiece&& onPiece,
                      OnOwnerEnd&& onOwnerEnd) const {
    if (runs_.empty()) return;
    const OwnerIndex index(runs_, where);
    std::vector<PieceRange> ranges;
    for (Rank owner = 0; owner < where.map.numRanks(); ++owner) {
      index.appendRanges(owner, ranges);
      if (ranges.empty()) continue;
      for (const PieceRange& r : ranges) {
        for (std::uint32_t i = r.lo; i < r.hi; ++i) {
          onPiece(runs_[r.run].piece(i));
        }
      }
      ranges.clear();
      onOwnerEnd(owner);
    }
  }

 private:
  std::vector<ReadRun> runs_;
};

}  // namespace tcio::core
