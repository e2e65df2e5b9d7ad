// TCIO — Transparent Collective I/O (the paper's contribution).
//
// A TCIO file exposes POSIX-like per-datum operations; the library performs
// collective aggregation behind the scenes:
//
//   * writes are combined in a per-process level-1 buffer aligned to one
//     file segment; when an access leaves that segment the buffer content
//     moves to the distributed level-2 buffer (an MPI one-sided window,
//     segments mapped round-robin by the paper's equations (1)-(3)) in a
//     single coalesced lock/put/unlock epoch;
//   * reads are lazy: read_at records (address, length, offset); data is
//     materialized collectively at fetch() — owners load their needed
//     segments with large file reads, then every rank gets its blocks with
//     one coalesced one-sided transfer per owner — or independently when
//     the pending read domain leaves the current segment (the reader loads
//     the segment itself and publishes it through the owner's window, so no
//     remote progress is ever required);
//   * close() synchronizes, then each rank writes its own (dirty) level-2
//     segments — large, contiguous, mutually disjoint file regions.
//
// No application-level combine buffers, no derived-datatype file views, and
// arbitrary dynamically-sized blocks — the three OCIO pain points §I lists.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/types.h"
#include "fs/client.h"
#include "mpi/agreement.h"
#include "mpi/comm.h"
#include "mpi/datatype.h"
#include "mpi/rma.h"
#include "tcio/config.h"
#include "tcio/journal.h"
#include "tcio/ledger.h"
#include "tcio/level1.h"
#include "tcio/pending_reads.h"
#include "tcio/segment_map.h"
#include "tcio/staging_log.h"
#include "topo/node_aggregator.h"
#include "topo/node_map.h"

namespace tcio::core {

enum class Whence { kSet, kCur, kEnd };

/// Degraded-mode and recovery counters. Nonzero values mean the run survived
/// injected faults; `stats().degraded.any()` is the canonical "this job
/// limped" signal — degradation is always reported, never silent.
struct TcioDegradedStats {
  std::int64_t fs_transient_faults = 0;  // TransientFsErrors this rank saw
  std::int64_t fs_retries = 0;           // backoff-then-retry cycles
  std::int64_t fs_retry_giveups = 0;     // retry budget exhausted
  std::int64_t chunks_remapped = 0;      // failed-OST chunks failed over
  std::int64_t chunks_rebalanced = 0;    // remapped chunks moved home again
  std::int64_t rma_drops = 0;            // dropped RMA payloads (job-wide)
  // Fail-stop crash tolerance (TcioConfig::crash; zero when disabled).
  std::int64_t ranks_crashed = 0;        // dead ranks agreed by liveness
  std::int64_t segments_taken_over = 0;  // orphaned segments this rank adopted
  std::int64_t journal_records_replayed = 0;  // WAL records replayed here
  Bytes journal_bytes_replayed = 0;           // payload bytes those carried
  std::int64_t journal_torn_records = 0;  // torn tails dropped during replay
  /// Segments adopted with journaling off (or after a torn tail): their
  /// buffered-but-unflushed bytes died with the rank. Never silent.
  std::int64_t unjournaled_segments_lost = 0;
  /// Takeover-capacity growth rounds: every survivor grew its window and
  /// relocated its data slots because a spare-slot budget was exhausted.
  std::int64_t window_remaps = 0;

  bool any() const {
    return fs_transient_faults != 0 || fs_retries != 0 ||
           fs_retry_giveups != 0 || chunks_remapped != 0 ||
           chunks_rebalanced != 0 || rma_drops != 0 || ranks_crashed != 0 ||
           segments_taken_over != 0 || journal_records_replayed != 0 ||
           journal_torn_records != 0 || unjournaled_segments_lost != 0 ||
           window_remaps != 0;
  }
};

/// End-to-end integrity counters (TcioConfig::integrity; all zero unless the
/// checksum pipeline is on). `crc_mismatches` > 0 with `unrepairable` == 0
/// means every detected corruption was repaired before user data moved.
struct TcioIntegrityStats {
  std::int64_t crc_checks = 0;       // extent digests verified at crossings
  std::int64_t crc_mismatches = 0;   // verifications that found corruption
  std::int64_t repaired = 0;         // mismatches healed (WAL / source frame)
  std::int64_t unrepairable = 0;     // mismatches with no surviving copy
  std::int64_t scrub_passes = 0;     // background scrubber invocations
  std::int64_t segments_scrubbed = 0;  // segments the scrubber verified
  /// Stored-block (FS) checksum-domain counters, folded from the shared
  /// Filesystem at close — global across ranks, not per-rank.
  std::int64_t fs_page_checks = 0;
  std::int64_t fs_page_mismatches = 0;
  std::int64_t fs_pages_repaired = 0;
};

/// Runtime counters (also the evidence for the paper's Table III row on
/// memory efficiency).
struct TcioStats {
  std::int64_t writes = 0;
  std::int64_t reads = 0;
  std::int64_t level1_flushes = 0;
  std::int64_t collective_fetches = 0;
  std::int64_t independent_fetches = 0;
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
  // Node-aggregation counters (all zero unless TcioConfig::node_aggregation).
  std::int64_t node_exchanges = 0;  // collective leader exchanges performed
  /// Aggregation bytes this rank funneled over the intra-node memory bus as
  /// its node's leader (member gather + window applies; leaders only).
  Bytes intranode_bytes = 0;
  /// Net NIC epochs removed by aggregation: epochs the per-rank shuffle
  /// would have issued to remote nodes, minus leader epochs actually
  /// issued. Meaningful summed across ranks; may be negative on leaders.
  std::int64_t internode_messages_saved = 0;
  /// Fault-recovery accounting (all zero in healthy runs).
  TcioDegradedStats degraded;
  /// End-to-end checksum accounting (all zero with integrity off).
  TcioIntegrityStats integrity;
};

/// One rank's handle on a shared TCIO file. Open/flush/fetch/close are
/// collective; write/read/seek are independent, per the paper's Program 1.
class File {
 public:
  /// Collective open. `flags` are fs::OpenFlags.
  File(mpi::Comm& comm, fs::Filesystem& fsys, const std::string& name,
       unsigned flags, TcioConfig cfg = {});

  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  // -- Program 1 API ---------------------------------------------------------

  /// tcio_write: write at the current file pointer.
  void write(const void* data, std::int64_t count, const mpi::Datatype& type);
  /// tcio_write_at: write at an explicit offset (does not move the pointer).
  void writeAt(Offset off, const void* data, std::int64_t count,
               const mpi::Datatype& type);
  /// tcio_read / tcio_read_at (lazy: data lands at fetch()). When two
  /// pending reads of one fetch target the same destination byte, which one
  /// lands last is unspecified, as for two pending MPI receives into one
  /// buffer.
  void read(void* data, std::int64_t count, const mpi::Datatype& type);
  void readAt(Offset off, void* data, std::int64_t count,
              const mpi::Datatype& type);
  /// tcio_seek.
  void seek(Offset off, Whence whence);

  /// tcio_flush: collective; moves level-1 buffers to level-2 and
  /// synchronizes (MPI_Barrier, as the paper specifies).
  void flush();
  /// tcio_fetch: collective; materializes all recorded reads.
  void fetch();
  /// tcio_close: collective; synchronizes, drains level-2 to the file
  /// system, closes. Called automatically by the destructor if needed.
  void close();

  // Raw-byte conveniences used throughout tests and benches.
  void writeAt(Offset off, const void* data, Bytes n);
  void readAt(Offset off, void* data, Bytes n);

  /// Communicator contexts reserved per block for crash shrinks. Not a cap
  /// on total shrink events: when a block is spent, rank 0 of the surviving
  /// communicator reserves a fresh block (see File::handleDeaths).
  static constexpr int kMaxShrinks = 8;

  bool isOpen() const { return open_; }
  Offset tell() const { return pointer_; }
  const TcioStats& stats() const { return stats_; }
  /// Run records the lazy-read record holds now (tests bound its size).
  std::size_t pendingReadRuns() const { return pending_reads_.runs().size(); }
  /// The leader exchange's counters; null unless node aggregation is on.
  const topo::NodeAggStats* nodeAggStats() const {
    return node_agg_ != nullptr ? &node_agg_->stats() : nullptr;
  }
  const TcioConfig& config() const { return cfg_; }
  /// The communicator collectives currently run over. With crash tolerance
  /// this is the *shrunk* communicator once peers have been declared dead;
  /// otherwise it is the communicator the file was opened on.
  mpi::Comm& comm() { return *comm_; }

  /// Addressable file-domain limit given the configuration. Defined over
  /// the communicator the file was opened on — a crash-shrunk job keeps the
  /// full file domain (orphaned segments are taken over, not dropped).
  Bytes capacity() const {
    return cfg_.segment_size * cfg_.segments_per_rank *
           static_cast<Bytes>(map_.numRanks());
  }

 private:
  // Per-slot metadata bytes at the front of each rank's window.
  static constexpr Offset kDirtyFlag = 0;
  static constexpr Offset kLoadedFlag = 1;
  static constexpr Bytes kFlagBytes = 2;

  Offset flagsDisp(std::int64_t slot, Offset which) const {
    return slot * kFlagBytes + which;
  }
  Offset dataDisp(std::int64_t slot, Offset in_seg) const {
    return flags_region_ + slot * cfg_.segment_size + in_seg;
  }
  /// This rank's slot flags, the front of its window (flagsDisp indexes it).
  std::byte* localFlags() { return window_->localRange(0, flags_region_); }

  void writeBytes(Offset off, const std::byte* src, Bytes n);
  void recordRead(Offset off, std::byte* dst, Bytes n);

  /// Ships the level-1 buffer to its level-2 segment (one-sided path) or to
  /// the local staging area (two-sided ablation).
  void flushLevel1();

  /// Independent materialization of `blocks`, all in segment `seg`.
  void independentFetch(SegmentId seg,
                        const std::vector<mpi::Window::GetBlock>& blocks);
  /// Resolves the pending-read group (all in pending_segment_)
  /// independently and empties the record.
  void fetchPendingGroup();
  /// Collective materialization of all pending reads.
  void collectiveFetch();
  /// One-sided gets for pending reads, grouped per owner (assumes segments
  /// are resident in level-2).
  void gatherPending();
  /// Two-sided gather (collective): requests travel to the owners, which
  /// answer from their local windows (same residency assumption).
  void twoSidedGather();
  /// The segments the pending reads touch (for the runtime checker).
  std::set<SegmentId> pendingSegments() const;

  /// Collective: runs the staged exchange (node-aggregated or two-sided)
  /// when this configuration stages writes; false on the one-sided path.
  bool exchangeStaged();
  /// Collective: moves every rank's buffered writes into level 2 — the staged
  /// exchange, or else the one-sided level-1 flush under error agreement.
  /// Crash mode skips the latter: it flushes level 1 in its liveness round.
  void exchangeWrites();
  /// Collective: flushes level 1 (local work + RMA) and agrees on the outcome.
  void agreeLevel1Flush();

  /// Two-sided ablation: exchange staged writes via alltoallv (collective).
  void exchangeStagedWrites();

  /// Node-aggregation write path (collective): staged writes funnel through
  /// node leaders; destination leaders apply them into node-local owners'
  /// windows over the memory bus.
  void nodeExchangeStagedWrites();

  /// Ensures the segment holding `off`..`off+n` is resident in its owner's
  /// window (independent path; reader loads from FS if needed). `scratch` is
  /// caller-owned storage for the published bytes: a put source must stay
  /// valid until the caller closes the epoch (MPI origin-buffer rule).
  void ensureLoadedIndependent(SegmentId seg, std::vector<std::byte>& scratch);

  /// noteTransfers owner meaning "each segment's ownerOf" (takeover overlay
  /// included), as opposed to a rank the caller asserts owns them all.
  static constexpr Rank kOverlayOwner = -1;
  /// Tells the runtime checker (when on) that `segs` crossed `owner`'s
  /// window at `site`; `dirty` also marks them as holding session writes.
  void noteTransfers(const std::set<SegmentId>& segs, Rank owner,
                     const char* site, bool dirty = false);

  /// Writes this rank's dirty slots to the file system.
  void drainToFs(Bytes file_size);
  /// Collective, at a writable open: each owner loads the bytes its slots
  /// already hold in the file, so the drain, which writes whole segments,
  /// keeps the bytes this session does not rewrite. A created or truncated
  /// file has none.
  void loadExistingBytes();
  /// Loads each owned slot that `needed` names and that holds neither
  /// session writes nor an earlier load with the file's bytes below `fsize`,
  /// and marks it loaded. Purely local.
  void loadOwnedSlots(Bytes fsize,
                      const std::function<bool(SegmentId)>& needed);
  /// Bytes of segment `g` below `fsize` (at most one segment).
  Bytes segmentBytesBelow(SegmentId g, Bytes fsize) const;
  /// Reads segment `g`'s file bytes below `fsize` into `dst`; returns how
  /// many (segmentBytesBelow).
  Bytes preadSegment(SegmentId g, Bytes fsize, std::byte* dst);

  // -- Fault recovery (see DESIGN.md "Failure model and recovery") -----------

  /// The collective agreement point: all ranks either continue or throw the
  /// same typed error. Plain mpi::agreeOnError without crash tolerance; the
  /// liveness protocol (shrink + takeover on deaths) with it. Must be called
  /// at aligned program points by every live rank.
  void collectiveAgreeOnError(const mpi::CapturedError& err);

  // -- Fail-stop crash tolerance (TcioConfig::crash, DESIGN.md §8) -----------

  /// Fires the rank's scheduled crash at this point, if armed: the rank
  /// marks itself closed and unwinds with RankCrashedError — it never
  /// touches the file, the window, or a collective again (fail-stop).
  void crashPoint(CrashPoint point);
  [[noreturn]] void die(const char* where);

  /// Liveness-tracking agreement: runs epochs of mpi::agreeWithLiveness
  /// until the dead set stops growing, handling each batch of deaths
  /// (shrink, takeover, replay) as it is agreed. Returns the max-reduced
  /// error outcome instead of throwing it, so close() can release resources
  /// first. Throws RankCrashedError if *this* rank is declared dead
  /// (self-fence). Falls back to plain agreeOnError when crash tolerance is
  /// off.
  std::pair<std::int32_t, std::string> agreeAndRecover(mpi::CapturedError err);

  /// Recovery for one agreed batch of deaths (ranks of the *current*
  /// communicator): shrink to the survivors, deterministically reassign the
  /// dead ranks' segments (and any orphans they had adopted) round-robin
  /// over the live original ranks into spare window slots, rebuild node
  /// aggregation over the shrunk communicator, and replay journals for the
  /// segments this rank adopted.
  void handleDeaths(const std::vector<Rank>& dead_cur);

  /// Reads and parses every original rank's journal, in rank order (costed
  /// reads): the replay source of crash recovery and integrity repair.
  std::vector<Journal::Parsed> readAllJournals();
  /// Replays every original rank's journal for the adopted segments:
  /// into spare window slots before the drain, directly into the file (whole
  /// reconstructed segments, matching healthy drain semantics) after it.
  void replayOrphans(
      const std::vector<std::pair<SegmentId, std::int64_t>>& mine);

  /// Current owner (original-communicator rank) / local slot of segment `g`,
  /// takeover overlay included.
  Rank ownerOf(SegmentId g) const;
  std::int64_t slotOnOwner(SegmentId g) const;
  /// The takeover overlay as (segment, new owner) pairs, sorted by segment.
  std::vector<std::pair<SegmentId, Rank>> movedSegments() const;
  /// Rank of `orig` in the current (possibly shrunk) communicator. Identity
  /// without crash tolerance; fails on a dead rank (routing must go through
  /// ownerOf first).
  Rank curOf(Rank orig) const;
  /// Current window slot count: starts at segments_per_rank (doubled with
  /// crash tolerance for spare takeover slots) and grows without bound via
  /// growTakeoverCapacity when a crash batch needs more spares.
  std::int64_t slotCount() const { return slot_cap_; }

  /// Window-remap round: grows every slot to `new_cap` on THIS rank — the
  /// window memory is resized in place, data slots are relocated to their
  /// new displacements (the flag region in front grows), and the freed flag
  /// bytes are cleared. Called identically by every survivor inside the same
  /// agreed recovery step, so all live ranks address the new layout from the
  /// first post-recovery RMA epoch on; dead ranks' windows keep the old
  /// layout but are never addressed again.
  void growTakeoverCapacity(std::int64_t new_cap);
  /// (segment, local slot) pairs this rank owns: its original slots plus
  /// adopted orphans.
  std::vector<std::pair<SegmentId, std::int64_t>> ownedSlots() const;

  /// True when exchanges run through the two-sided staged path; fixed by
  /// the config at open.
  bool twoSidedExchange() const { return !cfg_.use_onesided; }
  /// Opened with fs::kWrite. The access mode is one per collective open, so
  /// every rank takes the same branch on it.
  bool writable() const { return (flags_ & fs::kWrite) != 0; }

  /// FS access with permanent-OST degradation: on OstFailedError, remap the
  /// failed chunks to surviving OSTs and retry once. Transients are already
  /// absorbed below, in FsClient's retry loop.
  void pwriteDegraded(Offset off, const std::byte* src, Bytes n);
  void preadDegraded(Offset off, std::byte* dst, Bytes n);

  /// (Re)builds the node map and leader aggregator over the current
  /// communicator.
  void buildNodeAggregation();

  /// Copies the client/network recovery counters into stats_.degraded.
  void syncRecoveryStats();

  // -- End-to-end integrity (TcioConfig::integrity, DESIGN.md §11) -----------

  /// One digest *run* taken at client put time, in flight between a level-1
  /// flush and the next collective's digest exchange. A run covers `count`
  /// equal-length pieces spaced `stride` bytes apart (count == 1 for a plain
  /// contiguous extent) under ONE streamed CRC — the canonical interleaved
  /// pattern digests a whole flush's worth of tiny strided extents per
  /// record instead of paying 32 wire bytes for every 4-byte element.
  struct DigestRec {
    std::int64_t seg = 0;
    Offset disp = 0;           // first piece's in-segment displacement
    std::uint32_t len = 0;     // bytes per piece
    std::uint32_t stride = 0;  // spacing between piece starts (0: count == 1)
    std::uint32_t count = 1;   // pieces in the run
    std::uint32_t crc = 0;     // CRC32 over the pieces' bytes, concatenated

    DigestRun run() const { return {disp, len, stride, count, crc}; }
  };
  static_assert(sizeof(DigestRec) == 32);

  /// Records digests of the level-1 buffer's merged extents (client put
  /// time, before any hop can corrupt them), coalescing contiguous or
  /// constant-stride neighbours into runs.
  void digestLevel1(SegmentId seg, const std::vector<Extent>& extents);
  /// Collective: routes every rank's pending digests to the segments'
  /// current owners (crash takeovers included — every call follows the
  /// liveness agreement). Aligned with the flush / fetch / close exchanges,
  /// so it works in every transfer mode.
  void exchangeDigests();
  /// Runs the ledger gate (verifyOrRepair) over owned slot `slot`, holding
  /// segment `g`, when the slot is resident; repairs replay every rank's
  /// journal.
  void verifySlot(SegmentId g, std::int64_t slot);
  /// Background scrubber: verifies a fixed budget of owned segments per
  /// call, round-robin.
  void scrubTick();
  /// Collective: one scrubTick under error agreement (no-op with integrity
  /// off).
  void scrubAndAgree();
  /// Close-time scrub: verifies every owned, digested segment while the
  /// journal still exists to repair it — the drain is the last hop before
  /// the bytes become the file's truth. No-op with integrity off.
  void scrubAll();
  /// Seeded kWindow corruption: flips one bit inside a ledgered extent of an
  /// owned slot (consumes the arm only when a candidate exists).
  void maybeCorruptWindow();

  /// Tells the runtime checker this file's session ended without a clean
  /// close (agreed error), so drain coverage is skipped and a reopen starts
  /// a fresh checker session. No-op when the checker is off.
  void noteSessionAborted();

  mpi::Comm* comm_;
  fs::FsClient client_;
  fs::FsFile fsfile_;
  std::string name_;
  unsigned flags_;
  TcioConfig cfg_;
  SegmentMap map_;
  /// Window slots this rank provides (uniform across ranks). Grows at a
  /// takeover-capacity remap round; flags_region_ tracks it.
  std::int64_t slot_cap_;
  Bytes flags_region_;
  std::unique_ptr<mpi::Window> window_;
  std::unique_ptr<topo::NodeMap> node_map_;
  std::unique_ptr<topo::NodeAggregator> node_agg_;
  Level1Buffer level1_;
  PendingReads pending_reads_;
  SegmentId pending_segment_ = -1;  // lazy-read segment group
  /// Staged writes (two-sided and node-aggregated paths): one
  /// [BlockMeta][payload] record per flushed extent, at its file offset.
  StagingLog staged_;
  Bytes staged_bytes_ = 0;
  Offset pointer_ = 0;
  Bytes local_max_written_ = 0;
  bool open_ = false;
  /// Flush ordinal, used as the checker user tag for phase attribution.
  std::int64_t flush_calls_ = 0;
  TcioStats stats_;

  // -- Integrity state (inert unless integrity_on_) --------------------------
  bool integrity_on_ = false;
  std::unique_ptr<CorruptionPlan> corruption_;  // seeded, rank-salted
  std::vector<DigestRec> pending_digests_;      // since the last exchange
  std::map<SegmentId, SegmentLedger> ledger_;  // owned segments' digests
  std::int64_t scrub_cursor_ = 0;  // round-robin over owned slots

  // -- Crash-tolerance state (inert unless cfg_.crash.enabled) ---------------

  /// This rank's identity in the communicator the file was opened on.
  /// Segment ownership, window targets, and journal names are all defined
  /// over the *original* communicator; only collectives move to the shrunk
  /// one.
  Rank orig_rank_ = 0;
  int orig_size_ = 1;
  std::unique_ptr<CrashPlan> crash_plan_;
  std::unique_ptr<Journal> journal_;
  /// Shrunk communicators, kept alive for the life of the file (the window
  /// stays on the original communicator; node maps point into these).
  std::vector<std::unique_ptr<mpi::Comm>> shrunk_comms_;
  int shrink_context_base_ = -1;  // reserved context block (rank-0 bcast)
  int shrinks_ = 0;
  int epoch_ = 0;  // liveness epochs consumed (aligned across live ranks)
  std::vector<Rank> orig_of_cur_;  // current comm rank -> original rank
  std::vector<Rank> cur_of_orig_;  // original rank -> current rank (-1 dead)
  std::vector<bool> dead_;         // original rank -> declared dead?

  /// Takeover overlay: orphaned segment -> (new owner, spare slot on it),
  /// computed identically on every survivor.
  struct Takeover {
    Rank owner = -1;         // original-communicator rank
    std::int64_t slot = -1;  // spare window slot on that rank
  };
  std::map<SegmentId, Takeover> orphans_;
  std::vector<std::int64_t> next_spare_;  // per original rank
  std::int64_t takeover_rr_ = 0;  // round-robin cursor over live ranks
  bool drained_ = false;          // close() drained level-2 already
  Bytes final_fsize_ = 0;         // agreed file size (post-drain replays)
};

}  // namespace tcio::core
