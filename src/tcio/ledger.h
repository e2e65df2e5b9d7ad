// Owner-side integrity core (DESIGN.md §11), shared by both level-2 segment
// owners: core::File's window slots and delegate::Server's shard buffers.
//
//   * DigestRun + extendRun — the one run type and the one rule for when a
//     piece joins a run (contiguous, or equal length at a constant stride).
//   * SegmentLedger — one owned segment's digest runs, with piece-accurate
//     eviction, verify, and WAL repair; verifyOrRepair composes them into
//     the gate an owner runs before segment bytes cross a domain boundary.
//   * appendOrTear — the write-ahead append with the torn-write crash model.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/types.h"
#include "sim/engine.h"
#include "tcio/journal.h"

namespace tcio::core {

/// One digest run: `count` pieces of `len` bytes spaced `stride` apart from
/// `disp` (stride 0 when count == 1), under one CRC32 streamed over the
/// pieces in ascending order.
struct DigestRun {
  Offset disp = 0;
  Bytes len = 0;
  Offset stride = 0;
  std::int64_t count = 1;
  std::uint32_t crc = 0;

  /// One past the last byte of the last piece.
  Offset end() const { return disp + (count - 1) * stride + len; }
};

/// The run-extension rule. A piece at `disp` of `len` bytes extends `run`
/// when it is contiguous with a single-piece run, or has the run's piece
/// length at its constant stride (a second piece fixes the stride, which
/// stays within the 32-bit DigestRec wire field). On a match the geometry is
/// updated and true returned; the caller streams the piece into `run.crc`.
bool extendRun(DigestRun& run, Offset disp, Bytes len);

/// One pass over a segment's ledger. The caller folds it into its own stats
/// and charges `bytes` of checksum throughput.
struct LedgerCheck {
  std::int64_t checks = 0;      // runs verified
  std::int64_t mismatches = 0;  // runs whose CRC no longer matches
  Bytes bytes = 0;              // bytes streamed through the CRC
};

/// The digest ledger of one owned segment, keyed by run displacement. All
/// byte spans are the whole segment, indexed by in-segment displacement.
class SegmentLedger {
 public:
  bool empty() const { return runs_.empty(); }
  /// The lowest run. Precondition: !empty().
  const DigestRun& front() const { return runs_.begin()->second; }

  /// Records a writer-supplied run. An older run is superseded whole when
  /// any of its pieces intersects a piece of `run` — last writer wins, and
  /// a CRC cannot be split — while interlocking strided runs of different
  /// writers, whose pieces never touch, coexist.
  void insert(const DigestRun& run);
  /// Records one piece just verified against `crc` and applied to the
  /// segment at `disp` (`piece` views those bytes). The piece extends the
  /// preceding run when extendRun allows, streaming the CRC over `piece`.
  void absorb(Offset disp, std::span<const std::byte> piece,
              std::uint32_t crc);

  /// Re-streams every run's CRC over `segment`.
  LedgerCheck verify(std::span<const std::byte> segment) const;
  /// WAL repair: applies segment `g`'s records from `logs` to `segment`, in
  /// order, then re-verifies.
  LedgerCheck repair(SegmentId g, std::span<std::byte> segment,
                     const std::vector<Journal::Parsed>& logs) const;

 private:
  std::map<Offset, DigestRun> runs_;
};

/// Per-byte digest/verify throughput charged to virtual time: folded CRC32
/// runs near memory speed (the file system's page digests charge the same).
inline constexpr double kChecksumBandwidth = 50.0e9;

/// Virtual-time cost of streaming `n` bytes through the CRC.
inline void chargeChecksum(sim::Proc& proc, Bytes n) {
  proc.advance(static_cast<double>(n) / kChecksumBandwidth);
}

/// Loads the journals a repair replays, in replay order. Called only after a
/// mismatch: journal reads are costed I/O.
using WalSource = std::function<std::vector<Journal::Parsed>()>;

/// The owner-side gate: verifies `ledger` over `segment`; on a mismatch
/// repairs from the journals `wal` loads and re-verifies. Both passes are
/// charged to `proc`; the counters land in `stats`, a TcioIntegrityStats or
/// a delegate's TcioDelegateStats (they name them alike). Returns true when
/// a repair ran.
/// Throws IntegrityError naming `file` and `g` when no journal exists (`wal`
/// is empty) or the replayed bytes still mismatch.
template <class Stats>
bool verifyOrRepair(const SegmentLedger& ledger, SegmentId g,
                    std::span<std::byte> segment, const WalSource& wal,
                    sim::Proc& proc, Stats& stats, const std::string& file) {
  const LedgerCheck first = ledger.verify(segment);
  stats.crc_checks += first.checks;
  stats.crc_mismatches += first.mismatches;
  chargeChecksum(proc, first.bytes);
  if (first.mismatches == 0) return false;
  const std::string what = file + ": segment " + std::to_string(g);
  if (!wal) {
    ++stats.unrepairable;
    throw IntegrityError(what +
                         " failed its CRC and no journal exists to repair it");
  }
  const LedgerCheck after = ledger.repair(g, segment, wal());
  chargeChecksum(proc, after.bytes);
  if (after.mismatches != 0) {
    ++stats.unrepairable;
    throw IntegrityError(what + " still fails its CRC after journal replay");
  }
  ++stats.repaired;
  return true;
}

/// Appends one WAL record or, when `plan` fires `point`, only a seeded
/// prefix of its frame: the torn write of a rank dying mid-append. Returns
/// false in that case, and the caller must die at once.
[[nodiscard]] bool appendOrTear(Journal& wal, CrashPlan* plan,
                                CrashPoint point, SegmentId seg, Offset disp,
                                std::span<const std::byte> payload,
                                std::uint32_t gen = 0);

}  // namespace tcio::core
