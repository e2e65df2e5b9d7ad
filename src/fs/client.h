// Per-rank POSIX-like client for the simulated file system. Wraps every
// Filesystem call in a Proc::atomic() section and advances the caller's
// clock to the operation's completion time — this is the "vanilla" I/O path
// the paper's MPI-IO baseline bottoms out in.
#pragma once

#include <span>
#include <string>

#include "fs/filesystem.h"
#include "sim/engine.h"

namespace tcio::fs {

/// Handle on an open simulated file.
class FsFile {
 public:
  FsFile() = default;
  /// True once the handle refers to an open inode. A successful
  /// FsClient::open always returns a valid handle — open failures are
  /// reported by throwing (FileNotFound and friends), never by handing back
  /// an invalid handle — so valid() can only be false for a
  /// default-constructed or already-closed FsFile.
  bool valid() const { return inode_ >= 0; }
  int inode() const { return inode_; }
  /// The file's size when this handle opened it, read in the open's gated
  /// section: 0 for a file the open created or truncated.
  Bytes sizeAtOpen() const { return size_at_open_; }

 private:
  friend class FsClient;
  FsFile(int inode, unsigned flags, Bytes size_at_open)
      : inode_(inode), flags_(flags), size_at_open_(size_at_open) {}
  int inode_ = -1;
  unsigned flags_ = 0;
  Bytes size_at_open_ = 0;
};

/// One rank's view of the file system.
class FsClient {
 public:
  /// Per-client retry accounting (surfaced through TcioStats::degraded).
  struct RetryStats {
    std::int64_t transient_faults = 0;  // TransientFsErrors this rank saw
    std::int64_t retries = 0;           // backoff-then-retry cycles
    std::int64_t giveups = 0;           // retry budget exhausted, error rose
  };

  FsClient(Filesystem& fs, sim::Proc& proc)
      : fs_(&fs), proc_(&proc), client_(proc.rank()) {}

  /// Opens `name` with OpenFlags; `stripe_count` 0 = file system default.
  /// Throws FileNotFound when `name` does not exist and kCreate is unset.
  /// Transient MDS faults are absorbed by the retry policy like pwrite's.
  FsFile open(const std::string& name, unsigned flags, int stripe_count = 0);

  /// pwrite/pread absorb TransientFsError up to the retry policy's attempt
  /// budget, charging a jittered exponential backoff to this rank's virtual
  /// clock between attempts. Permanent fault classes (NoSpaceError,
  /// OstFailedError) are never retried and surface immediately. When a
  /// multi-attempt retry budget is exhausted, the typed
  /// `RetryExhaustedError` (a TransientFsError) rises, carrying the attempt
  /// count; with retry disabled (max_attempts == 1) the original error
  /// surfaces unchanged.
  void pwrite(FsFile& f, Offset off, const void* data, Bytes n);
  void pread(FsFile& f, Offset off, void* out, Bytes n);

  /// Write-ahead journal append (see Filesystem::journalWrite): sequential
  /// write to the journal device, no OST queues/locks/fault injection.
  void appendJournal(FsFile& f, Offset off, const void* data, Bytes n);

  /// Current file size (cheap metadata query).
  Bytes size(const FsFile& f) const;

  /// Closes `f` and returns the file's size at close, read in the same
  /// gated section as the close.
  Bytes close(FsFile& f);

  /// Degraded mode: remap failed-OST chunks of [off, off+n) to surviving
  /// OSTs. Returns the number of chunks moved (0 = nothing remappable).
  std::int64_t remapFailedChunks(FsFile& f, Offset off, Bytes n);

  /// Installs the shared fault plan (first caller wins, see Filesystem).
  void installFaultPlan(const FaultConfig& cfg);

  void setRetryPolicy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryStats& retryStats() const { return retry_stats_; }

  Filesystem& filesystem() { return *fs_; }

 private:
  Filesystem* fs_;
  sim::Proc* proc_;
  int client_;
  RetryPolicy retry_;
  RetryStats retry_stats_;
};

}  // namespace tcio::fs
