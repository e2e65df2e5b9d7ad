// The staged-write log of the two-sided and node-aggregated exchanges, and
// the [BlockMeta][payload] record format it shares with their wire streams.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "mpi/world.h"

namespace tcio::core {

/// Wire record of one staged block or read request.
struct BlockMeta {
  Offset off = 0;
  Bytes len = 0;
  std::uint32_t crc = 0;      // CRC32 of the payload (integrity pipeline)
  std::uint32_t has_crc = 0;  // 1 = `crc` is valid; read requests carry none
};

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

/// One [BlockMeta][payload] record per flushed extent, held in fixed-size
/// chunks that no record straddles (a record larger than a chunk gets a
/// chunk of its own), so the log grows without moving what it holds. The
/// chunks are allocated uninitialised: every byte a record covers is
/// written by its append.
class StagingLog {
 public:
  /// Measured on the ART checkpoint benchmark, whose ranks stage about
  /// 410-460 KB each (DESIGN.md §11): one chunk holds a rank's whole log
  /// there, and the process's peak RSS stayed flat, below the doubling
  /// vector's, over 64 jobs on four seeds. The peak for ranks that stage
  /// more has not been measured.
  static constexpr std::size_t kChunkBytes = std::size_t{640} << 10;

  /// Appends the record of `payload`, the bytes at file offset `off`. With
  /// `digest` the record carries the payload's CRC, taken inside the copy
  /// into the log.
  void append(Offset off, std::span<const std::byte> payload, bool digest);

  /// forEachBlock() over every record, in append order.
  template <typename Fn>
  void forEachBlock(Fn&& fn) const {
    for (const Chunk& c : chunks_) {
      core::forEachBlock({c.bytes.data(), c.used}, fn);
    }
  }

  /// Drops every record and gives the host bytes back.
  void clear() { std::vector<Chunk>().swap(chunks_); }

 private:
  struct Chunk {
    mpi::RawBytes bytes;
    std::size_t used = 0;
  };
  std::vector<Chunk> chunks_;
};

}  // namespace tcio::core
