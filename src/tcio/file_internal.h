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

namespace tcio::core {

inline constexpr std::byte kFlagSet{1};

/// Wire record of one staged block or read request.
struct BlockMeta {
  Offset off = 0;
  Bytes len = 0;
  std::uint32_t crc = 0;      // CRC32 of the payload (integrity pipeline)
  std::uint32_t has_crc = 0;  // 1 = `crc` is valid; read requests carry none
};

inline void appendBytes(std::vector<std::byte>& out, const void* src,
                        std::size_t n) {
  const auto* p = static_cast<const std::byte*>(src);
  out.insert(out.end(), p, p + n);
}

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

/// Verifies one hop of a digested block and returns the CRC of the bytes
/// that actually arrived (0 for a block without a digest). A mismatch is
/// counted and the block applied anyway: the owner ledger (client-time
/// digests, exchanged separately) is the authoritative detect-and-repair
/// point at the next pass.
inline std::uint32_t checkHop(const BlockMeta& m, const std::byte* payload,
                              sim::Proc& proc, TcioIntegrityStats& stats) {
  if (m.has_crc == 0) return 0;
  ++stats.crc_checks;
  chargeChecksum(proc, m.len);
  const std::uint32_t crc =
      crc32({payload, static_cast<std::size_t>(m.len)});
  if (crc != m.crc) ++stats.crc_mismatches;
  return crc;
}

/// Calls `fn(meta, payload)` for each block of a [BlockMeta][payload]...
/// stream. A record or payload that runs past the end of the stream, or a
/// negative length, fails a TCIO_CHECK.
template <typename Fn>
void forEachBlock(std::span<const std::byte> stream, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < stream.size()) {
    BlockMeta m;
    TCIO_CHECK_MSG(stream.size() - pos >= sizeof(m), "truncated block record");
    std::memcpy(&m, stream.data() + pos, sizeof(m));
    pos += sizeof(m);
    TCIO_CHECK_MSG(m.len >= 0 &&
                       static_cast<std::size_t>(m.len) <= stream.size() - pos,
                   "block length runs past its stream");
    fn(m, stream.data() + pos);
    pos += static_cast<std::size_t>(m.len);
  }
}

}  // namespace tcio::core
