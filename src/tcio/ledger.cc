#include "tcio/ledger.h"

#include <cstring>
#include <iterator>

#include "common/crc32.h"

namespace tcio::core {

namespace {

/// True when any piece of `a` intersects any piece of `b` (two-pointer walk
/// over the sorted piece starts).
bool runsOverlap(const DigestRun& a, const DigestRun& b) {
  std::int64_t i = 0;
  std::int64_t j = 0;
  while (i < a.count && j < b.count) {
    const Offset pa = a.disp + i * a.stride;
    const Offset pb = b.disp + j * b.stride;
    if (pa < pb + b.len && pb < pa + a.len) return true;
    if (pa + a.len <= pb) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Erases every run of `runs` with a piece intersecting a piece of `run`.
void evictOverlapping(std::map<Offset, DigestRun>& runs, const DigestRun& run) {
  for (auto it = runs.begin(); it != runs.end();) {
    const DigestRun& old = it->second;
    if (old.disp < run.end() && run.disp < old.end() &&
        runsOverlap(run, old)) {
      it = runs.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace

bool extendRun(DigestRun& run, Offset disp, Bytes len) {
  if (run.count == 1 && disp == run.disp + run.len) {
    run.len += len;
    return true;
  }
  if (len != run.len) return false;
  if (run.count == 1 && disp > run.disp && disp - run.disp <= 0xffffffff) {
    run.stride = disp - run.disp;
    run.count = 2;
    return true;
  }
  if (run.count >= 2 && disp == run.disp + run.stride * run.count) {
    ++run.count;
    return true;
  }
  return false;
}

void SegmentLedger::insert(const DigestRun& run) {
  evictOverlapping(runs_, run);
  runs_[run.disp] = run;
}

void SegmentLedger::absorb(Offset disp, std::span<const std::byte> piece,
                           std::uint32_t crc) {
  const auto len = static_cast<Bytes>(piece.size());
  evictOverlapping(runs_, {disp, len, 0, 1, crc});
  const auto next = runs_.upper_bound(disp);
  if (next != runs_.begin()) {
    DigestRun& prev = std::prev(next)->second;
    if (extendRun(prev, disp, len)) {
      prev.crc = crc32(piece, prev.crc);
      return;
    }
  }
  runs_[disp] = {disp, len, 0, 1, crc};
}

LedgerCheck SegmentLedger::verify(std::span<const std::byte> segment) const {
  LedgerCheck c;
  for (const auto& [disp, run] : runs_) {
    ++c.checks;
    c.bytes += run.len * run.count;
    std::uint32_t crc = 0;
    for (std::int64_t k = 0; k < run.count; ++k) {
      const auto at = static_cast<std::size_t>(disp + k * run.stride);
      crc = crc32(segment.subspan(at, static_cast<std::size_t>(run.len)), crc);
    }
    if (crc != run.crc) ++c.mismatches;
  }
  return c;
}

LedgerCheck SegmentLedger::repair(
    SegmentId g, std::span<std::byte> segment,
    const std::vector<Journal::Parsed>& logs) const {
  for (const Journal::Parsed& log : logs) {
    for (const Journal::Record& rec : log.records) {
      if (rec.seg != g) continue;
      std::memcpy(segment.data() + rec.disp, rec.payload.data(),
                  rec.payload.size());
    }
  }
  return verify(segment);
}

bool appendOrTear(Journal& wal, CrashPlan* plan, CrashPoint point,
                  SegmentId seg, Offset disp,
                  std::span<const std::byte> payload, std::uint32_t gen) {
  if (plan != nullptr && plan->fires(point)) {
    const Bytes frame =
        Journal::kHeaderBytes + static_cast<Bytes>(payload.size());
    wal.append(seg, disp, payload, plan->tornBytes(frame), gen);
    return false;
  }
  wal.append(seg, disp, payload, /*torn_prefix=*/-1, gen);
  return true;
}

}  // namespace tcio::core
