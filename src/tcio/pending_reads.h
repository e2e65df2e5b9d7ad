// The lazy-read record (paper §IV.A): every read_at between two fetches,
// kept as strided runs instead of one (offset, length, destination) entry
// per datum.
//
//   * ReadRun — `count` equal-length pieces whose file offset, destination
//     address and read-sequence position each advance by a constant stride.
//   * PendingReads — records pieces, extending one of the last kLookback
//     runs when the piece continues its progression, and walks them back in
//     read order (forEach) or per owner (forEachByOwner, the one-sided
//     gather's order) without ever listing the pieces.
//
// Every piece has its own sequence position (0, 1, 2, ... in recording
// order), so both walks reproduce the recorded order exactly, whatever the
// offsets and destinations are: descending, overlapping or far apart.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
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
/// off + i * off_stride into dst + i * dst_stride and has sequence position
/// seq + i * seq_stride. The strides are 0 while count == 1. Destinations are
/// kept as integers: consecutive pieces may land in different arrays, and
/// subtracting pointers into different arrays is undefined.
struct ReadRun {
  Offset off = 0;
  std::uintptr_t dst = 0;
  std::uint32_t len = 0;
  std::uint32_t count = 1;
  std::int32_t off_stride = 0;
  std::int32_t dst_stride = 0;
  std::uint32_t seq = 0;
  std::uint32_t seq_stride = 0;

  Offset offOf(std::uint32_t i) const {
    return off + std::int64_t{i} * off_stride;
  }
  std::uintptr_t dstOf(std::uint32_t i) const {
    return dst + static_cast<std::uintptr_t>(std::int64_t{i} * dst_stride);
  }
  std::uint32_t seqOf(std::uint32_t i) const { return seq + i * seq_stride; }
  ReadPiece piece(std::uint32_t i) const {
    // The address a destination was recorded from, restored.
    // NOLINTNEXTLINE(performance-no-int-to-ptr)
    auto* const to = reinterpret_cast<std::byte*>(dstOf(i));
    return {offOf(i), len, to};
  }

  /// The extension rule: a piece of the run's length extends a one-piece run
  /// when its offset and destination differences fit the 32-bit stride
  /// fields (it fixes the strides), and a longer run when it is exactly the
  /// next term of all three progressions. On a match the run grows and true
  /// is returned.
  bool extend(Offset o, std::uintptr_t d, Bytes n, std::uint32_t s);

  /// The pieces [lo, hi) whose offsets lie in [begin, end): one contiguous
  /// index range, since offsets are monotone along the run.
  std::pair<std::uint32_t, std::uint32_t> within(Offset begin,
                                                 Offset end) const;
};
static_assert(sizeof(ReadRun) == 40, "a run must not cost more than 40 B");

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

/// The k-way merge behind both walks: calls fn(piece) for every piece of the
/// ranges `pull()` yields, in ascending sequence order. `pull()` returns the
/// ranges in ascending order of their first piece's sequence position, then
/// std::nullopt; a range joins the min-heap only once the merge reaches it,
/// and pieces of the heap's top range are emitted in one go until another
/// range's next piece comes first.
template <typename Pull, typename Fn>
void mergeBySeq(std::span<const ReadRun> runs, Pull&& pull, Fn&& fn) {
  constexpr std::uint64_t kNever = UINT64_MAX;
  const auto seqAt = [&](const PieceRange& r) {
    return std::uint64_t{runs[r.run].seqOf(r.lo)};
  };
  const auto later = [&](const PieceRange& a, const PieceRange& b) {
    return seqAt(a) > seqAt(b);
  };
  std::vector<PieceRange> heap;
  std::optional<PieceRange> waiting = pull();
  while (waiting || !heap.empty()) {
    if (waiting && (heap.empty() || seqAt(*waiting) < seqAt(heap.front()))) {
      heap.push_back(*waiting);
      std::push_heap(heap.begin(), heap.end(), later);
      waiting = pull();
      continue;
    }
    std::pop_heap(heap.begin(), heap.end(), later);
    PieceRange r = heap.back();
    heap.pop_back();
    const std::uint64_t bound =
        std::min(heap.empty() ? kNever : seqAt(heap.front()),
                 waiting ? seqAt(*waiting) : kNever);
    const ReadRun& run = runs[r.run];
    do {
      fn(run.piece(r.lo));
    } while (++r.lo < r.hi && seqAt(r) < bound);
    if (r.lo < r.hi) {
      heap.push_back(r);
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

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

  /// Records the next piece (which must lie in one segment); it takes the
  /// next sequence position.
  void add(Offset off, std::byte* dst, Bytes len);

  bool empty() const { return runs_.empty(); }
  std::span<const ReadRun> runs() const { return runs_; }
  void clear() {
    runs_.clear();
    next_seq_ = 0;
  }

  /// Calls fn(piece) for every piece in recording order. Runs open in that
  /// order too, so they feed the merge straight from the record.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    std::size_t next = 0;
    mergeBySeq(
        runs_,
        [&]() -> std::optional<PieceRange> {
          if (next == runs_.size()) return std::nullopt;
          const auto r = static_cast<std::uint32_t>(next++);
          return PieceRange{r, 0, runs_[r].count};
        },
        fn);
  }

  /// For each owner 0..P-1 in ascending order (P from `where.map`), calls
  /// onPiece(piece) for every piece in the owner's segments, in recording
  /// order, then onOwnerEnd(owner) if there was one.
  template <typename OnPiece, typename OnOwnerEnd>
  void forEachByOwner(const Placement& where, OnPiece&& onPiece,
                      OnOwnerEnd&& onOwnerEnd) const {
    if (runs_.empty()) return;
    const OwnerIndex index(runs_, where);
    std::vector<PieceRange> ranges;
    for (Rank owner = 0; owner < where.map.numRanks(); ++owner) {
      index.appendRanges(owner, ranges);
      if (ranges.empty()) continue;
      // Latest first, so the merge pulls from the back.
      std::sort(ranges.begin(), ranges.end(),
                [&](const PieceRange& a, const PieceRange& b) {
                  return runs_[a.run].seqOf(a.lo) > runs_[b.run].seqOf(b.lo);
                });
      mergeBySeq(
          runs_,
          [&]() -> std::optional<PieceRange> {
            if (ranges.empty()) return std::nullopt;
            const PieceRange r = ranges.back();
            ranges.pop_back();
            return r;
          },
          onPiece);
      onOwnerEnd(owner);
    }
  }

 private:
  std::vector<ReadRun> runs_;
  std::uint32_t next_seq_ = 0;
};

}  // namespace tcio::core
