#include "tcio/pending_reads.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace tcio::core {
namespace {

bool fitsI32(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

/// Floor of a / b for b > 0.
std::int64_t floorDiv(std::int64_t a, std::int64_t b) {
  return a / b - (a % b != 0 && a < 0 ? 1 : 0);
}

std::int64_t ceilDiv(std::int64_t a, std::int64_t b) {
  return -floorDiv(-a, b);
}

}  // namespace

bool ReadRun::extend(Offset o, std::uintptr_t d, Bytes n) {
  if (n != len) return false;
  if (count == 1) {
    const std::int64_t doff = o - off;
    const auto ddst = static_cast<std::int64_t>(d - dst);
    if (!fitsI32(doff) || !fitsI32(ddst)) return false;
    off_stride = static_cast<std::int32_t>(doff);
    dst_stride = static_cast<std::int32_t>(ddst);
    count = 2;
    return true;
  }
  if (count == std::numeric_limits<std::uint32_t>::max() ||
      o != offOf(count) || d != dstOf(count)) {
    return false;
  }
  ++count;
  return true;
}

std::pair<std::uint32_t, std::uint32_t> ReadRun::within(Offset begin,
                                                        Offset end) const {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  if (off_stride > 0) {
    lo = ceilDiv(begin - off, off_stride);
    hi = ceilDiv(end - off, off_stride);
  } else if (off_stride < 0) {
    // off - i*s lies in [begin, end)  <=>  i*s lies in (off - end, off - begin]
    const std::int64_t s = -std::int64_t{off_stride};
    lo = floorDiv(off - end, s) + 1;
    hi = floorDiv(off - begin, s) + 1;
  } else if (off >= begin && off < end) {
    hi = count;
  }
  lo = std::clamp<std::int64_t>(lo, 0, count);
  hi = std::clamp<std::int64_t>(hi, lo, count);
  return {static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
}

Rank Placement::ownerOf(SegmentId g) const {
  const auto it = std::lower_bound(
      moved.begin(), moved.end(), g,
      [](const auto& m, SegmentId seg) { return m.first < seg; });
  return it != moved.end() && it->first == g ? it->second : map.rankOf(g);
}

OwnerIndex::OwnerIndex(std::span<const ReadRun> runs, const Placement& where)
    : runs_(runs), where_(where) {
  const auto P = static_cast<std::uint32_t>(where.map.numRanks());
  // Calls fn(owner) for each owner a shorter run's pieces land on, skipping
  // repeats of the previous piece's owner.
  const auto forEachOwner = [&](const ReadRun& run, const auto& fn) {
    Rank prev = -1;
    for (std::uint32_t i = 0; i < run.count; ++i) {
      const Rank o = where.ownerOf(where.map.segmentOf(run.offOf(i)));
      if (o != prev) fn(static_cast<std::size_t>(o));
      prev = o;
    }
  };
  for (std::uint32_t r = 0; r < runs.size(); ++r) {
    if (runs[r].count >= P) {
      wide_.push_back(r);
      continue;
    }
    if (start_.empty()) start_.assign(P + 1, 0);
    forEachOwner(runs[r], [&](std::size_t o) { ++start_[o]; });
  }
  if (start_.empty()) return;
  // Bucket by owner: inclusive prefix sums, then fill each bucket from its
  // end, walking the runs backwards so a bucket lists them in run order and
  // a run listed twice in a bucket is listed adjacently.
  for (std::size_t o = 1; o <= P; ++o) start_[o] += start_[o - 1];
  narrow_.resize(start_[P]);
  for (std::uint32_t r = static_cast<std::uint32_t>(runs.size()); r-- > 0;) {
    if (runs[r].count >= P) continue;
    forEachOwner(runs[r], [&](std::size_t o) { narrow_[--start_[o]] = r; });
  }
}

void OwnerIndex::appendRanges(Rank owner, std::vector<PieceRange>& out) const {
  for (const std::uint32_t r : wide_) appendRunRanges(r, owner, out);
  if (start_.empty()) return;
  const auto o = static_cast<std::size_t>(owner);
  for (std::uint32_t k = start_[o]; k < start_[o + 1]; ++k) {
    if (k == start_[o] || narrow_[k] != narrow_[k - 1]) {
      appendRunRanges(narrow_[k], owner, out);
    }
  }
}

void OwnerIndex::appendRunRanges(std::uint32_t r, Rank owner,
                                 std::vector<PieceRange>& out) const {
  const ReadRun& run = runs_[r];
  const SegmentMap& map = where_.map;
  const Offset last = run.offOf(run.count - 1);
  const SegmentId lo_seg = map.segmentOf(std::min(run.off, last));
  const SegmentId hi_seg = map.segmentOf(std::max(run.off, last));
  const auto add = [&](SegmentId g) {
    const Offset base = map.baseOf(g);
    const auto [lo, hi] = run.within(base, map.baseOf(g + 1));
    if (lo < hi) out.push_back({r, lo, hi});
  };
  // The owner's own segments of the run's span (equation (1)) that it still
  // holds ...
  const std::int64_t P = map.numRanks();
  for (SegmentId g = lo_seg + ((owner - lo_seg) % P + P) % P; g <= hi_seg;
       g += P) {
    if (where_.moved.empty() || where_.ownerOf(g) == owner) add(g);
  }
  // ... and the segments it took over.
  for (const auto& [g, to] : where_.moved) {
    if (to == owner && map.rankOf(g) != owner && g >= lo_seg && g <= hi_seg) {
      add(g);
    }
  }
}

void PendingReads::add(Offset off, std::byte* dst, Bytes len) {
  TCIO_CHECK_MSG(len > 0 && len <= std::numeric_limits<std::uint32_t>::max(),
                 "a pending read piece must hold 1 B to 4 GiB");
  const auto addr = reinterpret_cast<std::uintptr_t>(dst);
  const std::size_t stop =
      runs_.size() > kLookback ? runs_.size() - kLookback : 0;
  for (std::size_t r = runs_.size(); r-- > stop;) {
    if (runs_[r].extend(off, addr, len)) return;
  }
  runs_.push_back({off, addr, static_cast<std::uint32_t>(len), 1, 0, 0});
}

}  // namespace tcio::core
