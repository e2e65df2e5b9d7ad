// I/O delegate session: carves the first D ranks of a communicator out as
// asynchronous I/O servers (DESIGN.md §10).
//
// With `TcioConfig::delegate_ranks = D` (or TCIO_DELEGATES=D in the
// environment), session ranks 0..D-1 run the request-queue server core
// (server.h) and *exclusively* own the level-2 segment map — segment g is
// served by delegate g % D, the same round-robin the paper's eq. (1) uses
// over ranks, so the crash-takeover remap logic transfers unchanged. The
// remaining P−D client ranks never touch fs::FsClient: they submit
// open/put/get/flush/close descriptors into a bounded per-delegate request
// queue and move payload through the delegate's RMA staging window
// (protocol.h). At 10k+ clients this turns the file system's client
// population from P into D while the queue's admission control (capacity ->
// DelegateBusyError -> client backoff) bounds each delegate's memory.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "fs/filesystem.h"
#include "mpi/comm.h"
#include "mpi/rma.h"
#include "tcio/config.h"
#include "tcio/file.h"

namespace tcio::core {

/// Per-delegate request-queue counters (all zero unless the job runs a
/// delegate::Session). POD on purpose: delegates ship this blob
/// verbatim to the client leader at session teardown.
struct TcioDelegateStats {
  std::int64_t submissions = 0;      // requests admitted into the queue
  std::int64_t rejections = 0;       // admissions refused (queue/frames full)
  std::int64_t busy_retries = 0;     // client resubmits after DelegateBusy
  std::int64_t queue_high_watermark = 0;  // max total queued requests seen
  std::int64_t batches = 0;          // coalesced FS submissions at drain
  std::int64_t batched_extents = 0;  // raw extents those batches absorbed
  SimTime service_time = 0;          // virtual seconds spent servicing
  std::int64_t fs_transient_faults = 0;  // injected FS faults absorbed
  std::int64_t fs_retries = 0;           // FS retry attempts those cost
  std::int64_t delegates_crashed = 0;    // dead delegates agreed by liveness
  std::int64_t shards_adopted = 0;       // dead delegates whose shard moved here
  std::int64_t shards_readopted = 0;     // of those, inherited from a dead ADOPTER
  std::int64_t journal_records_replayed = 0;  // WAL records replayed on adopt
  std::int64_t deferred_resubmissions = 0;    // requests rerouted after a death
  // End-to-end integrity at the delegate (TcioConfig::integrity).
  std::int64_t crc_checks = 0;       // extent digests verified at the server
  std::int64_t crc_mismatches = 0;   // verifications that found corruption
  std::int64_t repaired = 0;         // healed (client re-stage / WAL replay)
  std::int64_t unrepairable = 0;     // surfaced as IntegrityError

  void merge(const TcioDelegateStats& o) {
    submissions += o.submissions;
    rejections += o.rejections;
    busy_retries += o.busy_retries;
    queue_high_watermark =
        queue_high_watermark > o.queue_high_watermark ? queue_high_watermark
                                                      : o.queue_high_watermark;
    batches += o.batches;
    batched_extents += o.batched_extents;
    service_time += o.service_time;
    fs_transient_faults += o.fs_transient_faults;
    fs_retries += o.fs_retries;
    delegates_crashed =
        delegates_crashed > o.delegates_crashed ? delegates_crashed
                                                : o.delegates_crashed;
    shards_adopted += o.shards_adopted;
    shards_readopted += o.shards_readopted;
    journal_records_replayed += o.journal_records_replayed;
    deferred_resubmissions += o.deferred_resubmissions;
    crc_checks += o.crc_checks;
    crc_mismatches += o.crc_mismatches;
    repaired += o.repaired;
    unrepairable += o.unrepairable;
  }
};

}  // namespace tcio::core

namespace tcio::delegate {

class Session {
 public:
  /// Delegate count a config resolves to on a `comm_size`-rank session:
  /// `cfg.delegate_ranks` when positive, else the TCIO_DELEGATES environment
  /// variable, clamped to [0, min(kMaxWireExtents, comm_size - 1)] (the
  /// kAdopt verdict lists the dead delegates in one descriptor, and at least
  /// one client must remain). A negative config value disables delegates
  /// even when the environment sets them.
  static int effectiveDelegates(const core::TcioConfig& cfg, int comm_size);

  /// Collective over `comm`: splits roles and creates the staging window
  /// (queue_capacity frames on delegates, nothing on clients). Every rank
  /// must construct the Session with an identical config.
  Session(mpi::Comm& comm, fs::Filesystem& fsys, core::TcioConfig cfg);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool isDelegate() const { return comm_->rank() < num_delegates_; }
  int numDelegates() const { return num_delegates_; }
  int numClients() const { return comm_->size() - num_delegates_; }

  /// The session (full) communicator — descriptor/reply traffic runs here.
  mpi::Comm& comm() { return *comm_; }
  mpi::Comm& clientComm();

  fs::Filesystem& filesystem() { return *fsys_; }
  const core::TcioConfig& config() const { return cfg_; }
  mpi::Window& window() { return *window_; }
  /// RMA staging-frame size per in-flight data request: one segment.
  Bytes frameBytes() const { return cfg_.segment_size; }
  std::int64_t queueCapacity() const { return cfg_.delegate.queue_capacity; }
  bool crashEnabled() const { return cfg_.crash.enabled; }

  // -- Shard routing (agreed dead set included) -------------------------------

  /// Natural shard owner of segment `g` (ignores deaths): g % D.
  int naturalOwnerOf(SegmentId g) const {
    return static_cast<int>(g % num_delegates_);
  }
  /// Current owner: the first live delegate scanning cyclically from the
  /// natural owner. Deterministic given the agreed dead set, so clients and
  /// delegates route identically without exchanging a map.
  int ownerOfSegment(SegmentId g) const;
  /// Adopter of dead delegate `d`: the next live delegate after it.
  int adopterOf(int d) const;

  bool isDead(int d) const { return dead_[static_cast<std::size_t>(d)]; }
  void markDead(int d) { dead_[static_cast<std::size_t>(d)] = true; }
  std::vector<int> liveDelegates() const;

  /// Receives one reply from `delegate` into `buf` (session communicator,
  /// kRepTag). In crash mode the wait is bounded by the liveness window and
  /// a timeout returns false; otherwise it blocks until the reply arrives.
  bool recvReply(void* buf, Bytes capacity, int delegate,
                 mpi::RecvStatus* st);

  // -- Role bodies ------------------------------------------------------------

  /// Delegate ranks: run the request-queue server until the shutdown
  /// descriptor arrives. Returns normally after shutdown; a scheduled
  /// fail-stop crash also returns (the rank goes silent — fail-stop).
  void serve();

  /// Client ranks (collective over clientComm): barrier, shut the live
  /// delegates down, collect and merge their stats, and fold in the
  /// client-side counters. Safe to call once; returns the merged stats.
  const core::TcioDelegateStats& finish();
  const core::TcioDelegateStats& stats() const { return stats_; }

  // -- Client-side counters (bumped by Channel/DFile) -------------------------
  std::int64_t client_busy_retries = 0;
  std::int64_t client_deferred_resubmissions = 0;

 private:
  mpi::Comm* comm_;
  fs::Filesystem* fsys_;
  core::TcioConfig cfg_;
  int num_delegates_ = 0;
  std::unique_ptr<mpi::Comm> role_comm_;
  std::unique_ptr<mpi::Window> window_;
  std::vector<bool> dead_;
  bool finished_ = false;
  core::TcioDelegateStats stats_;
};

}  // namespace tcio::delegate
