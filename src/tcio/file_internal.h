// Helpers shared by core::File's translation units (file.cc, file_exchange.cc,
// file_recovery.cc, file_integrity.cc). Not part of the public API.
#pragma once

#include <cstring>
#include <span>

#include "check/checker.h"
#include "common/crc32.h"
#include "common/error.h"
#include "mpi/agreement.h"
#include "tcio/file.h"
#include "tcio/staging_log.h"

namespace tcio::core {

inline constexpr std::byte kFlagSet{1};

/// Runs rank-local work (no collectives inside) and returns its failure for
/// the caller's next agreement point. A fail-stop crash keeps unwinding, and
/// checker verdicts abort the job typed, never agreed-and-retyped.
template <typename Fn>
mpi::CapturedError captureLocal(Fn&& local_work) {
  mpi::CapturedError err;
  try {
    local_work();
  } catch (const RankCrashedError&) {
    throw;
  } catch (const check::CheckFailure&) {
    throw;
  } catch (const std::exception& e) {
    err.capture(e);
  }
  return err;
}

/// Counts and charges one hop check of a block (false for a block without
/// a digest). The hop's CRC is taken by the copy the hop makes anyway
/// (copyBlock) and compared by noteHopCrc(). A mismatch is counted and the
/// block applied anyway: the owner ledger (client-time digests, exchanged
/// separately) is the authoritative detect-and-repair point at the next
/// pass.
inline bool chargeHop(const BlockMeta& m, sim::Proc& proc,
                      TcioIntegrityStats& stats) {
  if (m.has_crc == 0) return false;
  ++stats.crc_checks;
  chargeChecksum(proc, m.len);
  return true;
}

/// Copies a block's payload to `dst`. Returns the CRC of the bytes, taken
/// inside the copy, for a block with a digest, else 0.
inline std::uint32_t copyBlock(std::byte* dst, const BlockMeta& m,
                               const std::byte* payload) {
  const std::span<const std::byte> src{payload,
                                       static_cast<std::size_t>(m.len)};
  if (m.has_crc != 0) return crc32Copy(dst, src);
  if (!src.empty()) std::memcpy(dst, src.data(), src.size());
  return 0;
}

/// Counts a mismatch between a block's digest, if it has one, and `got`,
/// the CRC of the bytes that arrived.
inline void noteHopCrc(const BlockMeta& m, std::uint32_t got,
                       TcioIntegrityStats& stats) {
  if (m.has_crc != 0 && got != m.crc) ++stats.crc_mismatches;
}

}  // namespace tcio::core
