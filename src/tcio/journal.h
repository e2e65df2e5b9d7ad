// Crash-consistent per-rank segment journal (write-ahead log).
//
// TCIO's level-2 buffering holds every segment's bytes in exactly one
// owner's window (paper §IV); a fail-stop crash between buffering and close
// would lose all of them. Following the standard LSM write-ahead recipe,
// each rank appends a CRC32-framed record (segment id, displacement, length,
// payload) to its own journal file on every level-1 -> level-2 flush, BEFORE
// the bytes move into the level-2 window. After a crash, the new owner of an
// orphaned segment replays the dead rank's journal — dropping the torn tail
// a mid-append crash leaves behind — so every journaled byte survives.
// A successful close commits (truncates) the journal.
//
// Frame layout v2 (little-endian, 40-byte header + payload):
//   u32 magic 'TCJ2' | u32 crc32(seg, disp, len, gen, payload) |
//   i64 seg | i64 disp | i64 len | u32 gen | u32 reserved | payload[len]
//
// `gen` is the adoption generation: 0 for a record appended by the segment's
// original owner, and n+1 when an adopter re-appends a generation-n record
// into its OWN journal while taking over a dead peer's shard. Replay after a
// cascaded crash (the adopter itself dies mid-replay) can therefore tell a
// first-hand record from a re-appended copy and dedup idempotently.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "fs/client.h"
#include "mpi/world.h"

namespace tcio::core {

class Journal {
 public:
  static constexpr std::uint32_t kMagic = 0x324a4354;  // "TCJ2"
  static constexpr Bytes kHeaderBytes = 40;

  /// One replayable record.
  struct Record {
    std::int64_t seg = 0;  // global segment id
    Offset disp = 0;       // displacement within the segment
    std::uint32_t gen = 0;  // adoption generation (0 = original append)
    std::vector<std::byte> payload;
  };

  /// Result of scanning a journal image.
  struct Parsed {
    std::vector<Record> records;
    /// Trailing records cut by a crash (bad magic / short frame / truncated
    /// payload). The scan stops at the first torn frame — the framing is
    /// unrecoverable past it (appends are sequential).
    std::int64_t torn_records = 0;
    /// Structurally complete records whose body fails its CRC: a silent bit
    /// flip on the journal device, not a torn append. The frame boundaries
    /// are intact, so the scan DROPS the record and continues — later
    /// records are still replayable.
    std::int64_t corrupt_records = 0;
    Bytes bytes_replayable = 0;  // payload bytes across intact records
  };

  /// Opens (creates + truncates) this rank's journal file.
  Journal(fs::FsClient& client, std::string path);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one framed record ahead of the level-2 transfer. When
  /// `torn_prefix` is >= 0, only that many leading bytes of the frame reach
  /// the device — the torn-write model for a rank dying mid-append. `gen` is
  /// the adoption generation (0 for first-hand appends; adopters re-append
  /// with the source record's generation + 1).
  void append(std::int64_t seg, Offset disp,
              std::span<const std::byte> payload,
              std::int64_t torn_prefix = -1, std::uint32_t gen = 0);

  /// Group commit. Between batchBegin() and batchEnd(), append() buffers
  /// frames in memory and batchEnd() pushes them to the journal device as
  /// ONE write — one latency charge per flush instead of one per record,
  /// which is what keeps integrity journaling affordable for workloads with
  /// thousands of tiny strided extents. A torn append flushes immediately
  /// (everything pending plus the torn prefix): the crash model needs the
  /// bytes on the device at the instant the rank dies.
  void batchBegin();
  void batchEnd();

  /// Commit: every journaled byte is durably in the file proper, so the log
  /// is truncated to empty (one cheap journal-device write of a zero
  /// header... modeled as a truncating reopen).
  void commit();

  /// Closes the underlying handle (no commit).
  void close();
  ~Journal();

  const std::string& path() const { return path_; }
  Bytes bytesAppended() const { return cursor_; }
  std::int64_t recordsAppended() const { return records_; }

  /// Scans a raw journal image (see Parsed).
  static Parsed parse(std::span<const std::byte> raw);

  /// Reads `path` through `client` (costed reads — recovery pays real I/O
  /// time) and scans it. Returns an empty Parsed when the file is absent.
  static Parsed readAndParse(fs::FsClient& client, const std::string& path);

 private:
  void flushBatch();
  /// The next `n` bytes of the batch, uninitialised: the caller writes all
  /// of them. Grows the buffer (keeping what it holds) when they do not fit.
  std::byte* growBatch(std::size_t n);

  fs::FsClient* client_;
  std::string path_;
  fs::FsFile file_;
  Offset cursor_ = 0;
  std::int64_t records_ = 0;
  /// Frames buffered for the next device write: batch_size_ bytes of
  /// batch_. The buffer is kept across batches.
  mpi::RawBytes batch_;
  std::size_t batch_size_ = 0;
  bool batching_ = false;
};

/// Journal file name for `rank`'s log of `file` (rank = rank within the
/// communicator the file was opened on — ownership is defined over the
/// original communicator, so takeover peers can reconstruct the name).
std::string journalPath(const std::string& file, Rank rank);

}  // namespace tcio::core
