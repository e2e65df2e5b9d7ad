// The simulated parallel file system: MDS + OSTs + lock manager + caches,
// storing real bytes. Shared by all ranks; every costed operation must run
// inside a Proc::atomic() section (the FsClient facade does that).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/types.h"
#include "fs/cache.h"
#include "fs/config.h"
#include "fs/lock_manager.h"
#include "fs/store.h"
#include "sim/timeline.h"

namespace tcio::fs {

/// Open flags (POSIX-flavoured bitmask).
enum OpenFlags : unsigned {
  kRead = 1u << 0,
  kWrite = 1u << 1,
  kCreate = 1u << 2,
  kTruncate = 1u << 3,
};

/// Aggregate statistics for benches and tests.
struct FsStats {
  std::int64_t write_requests = 0;
  std::int64_t read_requests = 0;
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
  Bytes bytes_read_from_cache = 0;
  std::int64_t lock_revocations = 0;
  std::int64_t lock_grants = 0;
  std::int64_t opens = 0;
  /// Injected-fault accounting (0 when no FaultPlan is installed).
  std::int64_t transient_faults_injected = 0;
  std::int64_t mds_faults_injected = 0;
  std::int64_t chunks_remapped = 0;
  /// Chunks moved back to their home OST after it recovered.
  std::int64_t chunks_rebalanced = 0;
  /// Journal-device accounting (write-ahead log appends).
  std::int64_t journal_writes = 0;
  Bytes journal_bytes = 0;
  /// Stored-block checksum domain (0 unless FsConfig::integrity resolves on).
  std::int64_t integrity_page_checks = 0;
  std::int64_t integrity_page_mismatches = 0;
  std::int64_t integrity_pages_repaired = 0;
  /// Seeded silent corruptions actually injected (kStoredBlock/kJournalBody).
  std::int64_t corruptions_injected = 0;
};

/// Shared file system state + cost model.
class Filesystem {
 public:
  explicit Filesystem(FsConfig cfg);

  const FsConfig& config() const { return cfg_; }

  // All of the following return the virtual completion time and must be
  // called inside an atomic section. `client` identifies the calling rank
  // for lock ownership purposes; `t` is the caller's current virtual time.

  /// Opens (optionally creating/truncating) a file; returns its inode.
  struct OpenResult {
    int inode = -1;
    SimTime done = 0;
  };
  OpenResult open(int client, SimTime t, const std::string& name,
                  unsigned flags, int stripe_count = 0);

  SimTime write(int client, SimTime t, int inode, Offset off,
                std::span<const std::byte> data);
  SimTime read(int client, SimTime t, int inode, Offset off,
               std::span<std::byte> out);
  SimTime close(int client, SimTime t, int inode);

  /// Write-ahead journal append: sequential write to the journal device
  /// (kJournalBandwidth), bypassing OST queues, extent locks, and OST
  /// fault injection — the model is a node-local intent log whose bytes
  /// stay globally readable after a crash (peek / read serve recovery).
  SimTime journalWrite(int client, SimTime t, int inode, Offset off,
                       std::span<const std::byte> data);

  /// File size in bytes (costless metadata peek for the layers above).
  Bytes fileSize(int inode) const;

  // -- Test/verification helpers (no cost, no locking semantics) -----------
  bool exists(const std::string& name) const;
  /// Reads file contents directly from the store.
  void peek(const std::string& name, Offset off, std::span<std::byte> out) const;
  Bytes peekSize(const std::string& name) const;

  /// Snapshot of counters (lock stats aggregated over all files).
  FsStats stats() const {
    FsStats s = stats_;
    for (const auto& ip : inodes_) {
      s.lock_revocations += ip->locks->revocations();
      s.lock_grants += ip->locks->grants();
    }
    if (plan_ != nullptr) {
      s.transient_faults_injected = plan_->transientFaultsInjected();
      s.mds_faults_injected = plan_->mdsFaultsInjected();
    }
    return s;
  }
  /// Lock revocations of one file (ping-pong metric).
  std::int64_t revocations(const std::string& name) const;

  /// Costed FS calls (open/write/read/close/journal) per calling rank.
  /// Evidence for delegate mode: the key set is exactly the ranks that ever
  /// touched the file system. Verification helpers (peek/exists) don't count.
  const std::map<int, std::int64_t>& opsByClient() const {
    return ops_by_client_;
  }

  // -- Fault injection ------------------------------------------------------

  /// Installs a seeded fault plan (see common/fault.h). First installation
  /// wins; later calls are ignored so that ranks racing through a collective
  /// open share one schedule. Must be called inside an atomic section.
  void installFaultPlan(const FaultConfig& cfg);

  /// Remaps chunks of [off, off+n) whose OST has permanently failed to
  /// surviving OSTs, round-robin (models an MDS failover restripe; charged
  /// as one MDS op when anything moved). Returns how many chunks moved —
  /// 0 either when nothing in range is on a failed OST or when no OST
  /// survives (the caller should then surface the original error).
  struct RemapResult {
    std::int64_t remapped = 0;
    SimTime done = 0;
  };
  RemapResult remapChunks(int client, SimTime t, int inode, Offset off,
                          Bytes n);

 private:
  struct Inode {
    std::string name;
    SparseStore store;
    std::unique_ptr<LockManager> locks;
    int stripe_count = 1;
    int start_ost = 0;
    /// Degraded-mode overrides: chunk index -> surviving OST. Populated by
    /// remapChunks() after a permanent OST failure; empty in healthy runs.
    std::map<std::int64_t, int> remap;
    /// Stored-block checksum domain: CRC32 per FsConfig::page_size page,
    /// recorded at write acknowledgement, verified on every read. Journal
    /// inodes never appear here (journalWrite maintains no digests).
    std::map<std::int64_t, std::uint32_t> page_crc;
    /// Mirrored replica of every digested page (read-repair source).
    SparseStore replica;
  };

  /// OST serving [off, off+len) of a file (remap overrides striping).
  int ostOf(const Inode& ino, Offset off) const {
    const std::int64_t chunk = off / cfg_.stripe_size;
    if (!ino.remap.empty()) {
      const auto it = ino.remap.find(chunk);
      if (it != ino.remap.end()) return it->second;
    }
    return (ino.start_ost + static_cast<int>(chunk % ino.stripe_count)) %
           cfg_.num_osts;
  }

  /// Consults the plan for one OST request and throws the scheduled typed
  /// error, if any. No-op without a plan.
  void maybeFault(FaultPlan::FsVerb verb, int ost, SimTime t,
                  const Inode& ino);

  /// Consults the plan for one MDS RPC; throws TransientFsError when the
  /// RPC faults (FsClient's open/close retry loops absorb it).
  void maybeMdsFault(FaultPlan::MdsVerb verb, const std::string& name);

  /// Moves remapped chunks back to their home OST once it has recovered
  /// (FaultPlan::ostRecovered). Called lazily from the costed paths; charges
  /// one MDS op when anything moved and returns its completion time (or `t`).
  SimTime maybeRebalance(SimTime t, Inode& ino);

  Inode& inodeAt(int inode);
  const Inode& inodeAt(int inode) const;

  /// Re-digests (and mirrors) every page overlapping [off, off+n).
  void digestPages(Inode& ino, Offset off, Bytes n);
  /// Verifies every digested page overlapping [off, off+n); read-repairs a
  /// mismatching page from the replica (healing the primary) or throws
  /// IntegrityError when no intact copy survives.
  void verifyPages(Inode& ino, Offset off, Bytes n);
  /// Flips one seeded bit of the primary store inside [off, off+n)
  /// (injection helper — bypasses digests and the replica by design).
  void flipStoredBit(Inode& ino, Offset off, Bytes n);

  /// Splits [off, off+n) into maximal runs served by a single OST and calls
  /// fn(ost, run_off, run_len) for each.
  template <typename F>
  void forEachOstRun(const Inode& ino, Offset off, Bytes n, F&& fn) const;

  FsConfig cfg_;
  std::map<std::string, int> names_;
  std::vector<std::unique_ptr<Inode>> inodes_;
  sim::Timeline mds_;
  std::vector<sim::Timeline> osts_;
  std::vector<ServerCache> caches_;
  int next_start_ost_ = 0;
  int next_remap_ost_ = 0;
  bool integrity_ = false;
  FsStats stats_;
  std::map<int, std::int64_t> ops_by_client_;
  std::unique_ptr<FaultPlan> plan_;
};

}  // namespace tcio::fs
