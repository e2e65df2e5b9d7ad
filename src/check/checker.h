// Runtime correctness checker for the simulated MPI + TCIO stack.
//
// TCIO's transparency rests on a discipline the paper states only
// informally: every rank must reach the same collective points in the same
// order, one-sided accesses must stay inside lock epochs, and level-2 data
// must land exactly in the owner computed by eq. (1)-(3). Because our MPI is
// simulated in-process (all shared-state mutation happens inside
// Proc::atomic sections, globally ordered by virtual time), the checker can
// keep one *consistent global* view of every rank's protocol state and
// diagnose the first divergent operation exactly — something distributed
// tools like MUST can only approximate with message piggybacking.
//
// Four verifiers, all behind one `TCIO_CHECK=1` switch (env var, or default
// via the TCIO_CHECK CMake option):
//
//   1. Collective matching: per communicator context, call #k must carry the
//      same (op, root, byte-count) signature on every rank. The first rank
//      whose signature diverges is reported with both call sites.
//   2. RMA epoch machine: per (window, target) it tracks open shared /
//      exclusive epochs, flags overlapping conflicting puts from concurrent
//      epochs (byte-identical overlaps are benign and only counted), and
//      re-CRCs every put's source buffer at unlock to catch reuse before the
//      epoch closed.
//   3. TCIO ownership: every level-2 segment transfer must land in the
//      segment-map owner (`g % P`, or the takeover remap after a crash), and
//      at close every dirty segment inside the final file extent must have
//      been drained by its owner exactly once (or noted as lost when
//      journaling is off).
//   4. Wait-for-graph deadlock detection: blocked receives and lock waits
//      form a directed graph; a rank about to close a cycle throws a
//      diagnostic listing the cycle instead of letting the engine time out
//      on its global all-blocked detector.
//
// Violations throw `CheckFailure` (a `tcio::Error`) inside the offending
// rank; the engine then aborts the job, so tests can assert on the message.
// When the checker is disabled, the hooks cost one pointer null-check.
//
// Thread-safety: every mutating hook must be called from inside a
// Proc::atomic section (the engine serializes those); `setLabel` and the
// enablement query are lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "sim/engine.h"

namespace tcio::check {

/// A correctness-protocol violation detected by the runtime checker.
class CheckFailure : public Error {
 public:
  using Error::Error;
};

/// Collective operation kinds for the matching verifier. Composed
/// collectives (allreduce, allgatherv) are checked through the primitives
/// they are built from.
enum class CollOp : std::uint8_t {
  kBarrier,
  kBcast,
  kReduce,
  kGather,
  kAllgather,
  kAlltoallv,
  kWinCreate,
  kAgree,
};

const char* collOpName(CollOp op);

/// Byte-count sentinel for collectives whose payload legitimately differs
/// per rank (alltoallv) or is not part of the signature (barrier).
inline constexpr Bytes kUncheckedBytes = -1;

/// Hook-coverage counters; green runs assert these advanced (proving the
/// hooks actually fired) while `violations` stayed zero.
struct CheckerStats {
  std::int64_t collectives_checked = 0;
  std::int64_t tags_checked = 0;  // collectives where both ranks were tagged
  std::int64_t epochs_opened = 0;
  std::int64_t puts_checked = 0;
  std::int64_t benign_overlaps = 0;
  std::int64_t transfers_checked = 0;
  std::int64_t drains_checked = 0;
  std::int64_t files_closed = 0;
  std::int64_t waits_tracked = 0;
};

/// One checker instance per simulated job (owned by mpi::World).
class Checker {
 public:
  /// True when the job should run with the checker attached: env var
  /// `TCIO_CHECK` (0/1), defaulting to on when built with -DTCIO_CHECK=ON.
  static bool enabled();

  explicit Checker(int world_size);

  // -- Per-rank phase labels (diagnostic context) -----------------------------

  /// Sets rank `r`'s current high-level phase label (e.g. "File::flush").
  /// Pointer must outlive the scope; use ScopedLabel. Lock-free.
  void setLabel(Rank world_rank, const char* label);
  const char* label(Rank world_rank) const;

  // -- Per-rank user tags (application-phase collective verification) ---------

  /// No-tag sentinel: an untagged rank matches any tag.
  static constexpr std::int64_t kNoUserTag =
      std::numeric_limits<std::int64_t>::min();

  /// Sets rank `r`'s current application tag (e.g. a timestep or flush
  /// ordinal). Collective matching then verifies call #k carries the same
  /// tag on every tagged rank — catching desynchronized application phases
  /// whose MPI-level signatures (op/root/bytes) still happen to line up.
  /// Use ScopedUserTag. Lock-free.
  void setUserTag(Rank world_rank, std::int64_t tag);
  std::int64_t userTag(Rank world_rank) const;

  // -- Collective matching ----------------------------------------------------

  /// Declares a communicator context and its group size. First caller
  /// records, later callers verify. Safe to call repeatedly.
  void registerComm(int context, int size);

  /// Records collective call #k of `context` on `comm_rank` and verifies it
  /// against the signature recorded by the first rank to reach call #k.
  void onCollective(int context, Rank comm_rank, Rank world_rank, CollOp op,
                    Rank root, Bytes bytes, const char* site);

  // -- RMA epoch state machine ------------------------------------------------

  void onEpochOpen(const void* win, Rank origin_world, Rank target_world,
                   bool exclusive, const char* site);

  /// One coalesced put: target displacements/lengths plus the source
  /// pointers (CRC'd now, re-verified at epoch close).
  struct PutBlockRef {
    Offset disp = 0;
    Bytes len = 0;
    const void* src = nullptr;
  };
  void onPut(const void* win, Rank origin_world, Rank target_world,
             std::span<const PutBlockRef> blocks, const char* site);

  /// Closes the epoch: verifies every put source buffer is unchanged since
  /// the put (MPI forbids reuse before unlock), then drops the epoch.
  void onEpochClose(const void* win, Rank origin_world, Rank target_world,
                    const char* site);

  /// Forgets every epoch record of a freed window, so a later window that
  /// reuses its address starts clean.
  void onWindowFreed(const void* win);

  /// Rank-attributed diagnostic for a one-sided access outside any epoch
  /// (routed here from Window::requireLocked when the checker is enabled).
  [[noreturn]] void failOutsideEpoch(Rank origin_world, Rank target,
                                     const char* site);

  // -- TCIO segment ownership and drain coverage ------------------------------

  /// Declares a TCIO file session. A new session for a name whose previous
  /// session closed resets that file's state (reopen patterns). Every rank
  /// of a session must pass the same geometry and the same open flags: the
  /// collectives a file runs depend on its access mode.
  void registerFile(const std::string& name, int num_ranks, Bytes segment_size,
                    std::int64_t segments_per_rank, unsigned open_flags);

  /// Marks `name`'s session aborted (close surfaced an agreed error): drain
  /// coverage is not evaluated and a later reopen starts a fresh session.
  void noteSessionAborted(const std::string& name);

  /// Crash takeover: segment `g`'s owner is now `new_owner` (original rank).
  void noteRemap(const std::string& name, SegmentId g, Rank new_owner);
  void noteDeath(const std::string& name, Rank orig_rank);
  /// Journaling off: an orphaned dirty segment's data died with its owner.
  void noteSegmentLost(const std::string& name, SegmentId g);
  void noteDirty(const std::string& name, SegmentId g);

  /// Verifies a level-2 transfer (write-side put, read-side load/gather) for
  /// segment `g` touches the rank the segment map owns it to.
  void onSegmentTransfer(const std::string& name, SegmentId g, Rank dest_orig,
                         const char* site);

  /// Verifies the close-time write of segment `g` is performed by its
  /// current owner and not duplicated by the same owner.
  void onDrain(const std::string& name, SegmentId g, Rank rank_orig,
               const char* site);

  /// Called by each rank completing a successful close; once every live
  /// registered rank has closed, verifies drain coverage: every dirty
  /// segment below `final_size` was drained or noted lost.
  void onFileClosed(const std::string& name, Bytes final_size, Rank rank_orig);

  // -- Wait-for-graph deadlock detection --------------------------------------

  /// Declares that `waiter_world` is about to block on `ev`; `targets`
  /// returns the ranks it currently waits on (re-evaluated during cycle
  /// search so lock handoffs don't leave stale edges). Runs cycle detection
  /// and throws CheckFailure when this wait closes a cycle of blocked ranks.
  void beginWait(Rank waiter_world, std::function<std::vector<Rank>()> targets,
                 const sim::Event* ev, const char* site);

  /// One leg of an AND-wait: the waiter needs `target` to act, and `ev`
  /// (non-owning; kept alive by `keepalive`) signals that leg done. A leg
  /// whose event is already ready contributes no wait-for edge.
  struct WaitEdge {
    Rank target = -1;                       // world rank waited on
    const sim::Event* ev = nullptr;         // completion event of this leg
    std::shared_ptr<const void> keepalive;  // owns whatever `ev` lives in
  };

  /// Declares an AND-wait (MPI_Waitall): `waiter_world` blocks until EVERY
  /// edge's event fires, so it is blocked while ANY edge is pending — and
  /// only pending edges are wait-for edges. Modeling the whole waitAll as a
  /// single wait on one event would false-cycle a rank whose remaining legs
  /// are already satisfied (e.g. a client blocked on a delegate reply plus a
  /// collective whose message already arrived). Edges with ready events are
  /// dropped on entry; if none remain, nothing is registered.
  void beginWaitAll(Rank waiter_world, std::vector<WaitEdge> edges,
                    const char* site);
  void endWait(Rank waiter_world);

  const CheckerStats& stats() const { return stats_; }
  std::int64_t violations() const { return violations_.load(); }

 private:
  [[noreturn]] void fail(const std::string& msg);

  struct CollSig {
    CollOp op;
    Rank root;
    Bytes bytes;
    std::int64_t tag;  // recorder's user tag (kNoUserTag when untagged)
    const char* site;
    const char* label;
    Rank first_world_rank;
  };
  struct CommRec {
    int size = 0;
    std::vector<std::int64_t> next_call;  // per comm rank
    std::vector<CollSig> sigs;            // calls [base, base + sigs.size())
    std::int64_t base = 0;
  };

  struct PutRecord {
    Offset disp;
    Bytes len;
    const void* src;
    std::uint32_t crc;
    std::vector<std::byte> bytes;  // copy of the written data
    const char* site;
  };
  struct EpochRec {
    bool exclusive = false;
    const char* site = nullptr;
    std::vector<PutRecord> puts;
  };

  struct FileRec {
    int num_ranks = 0;
    Bytes segment_size = 0;
    std::int64_t segments_per_rank = 0;
    unsigned open_flags = 0;
    int registered = 0;
    int closed = 0;
    /// Largest close-reported size. Sharded backends (delegates) report each
    /// rank's local high-water mark; the file extent is their maximum.
    Bytes final_size = 0;
    bool session_done = false;
    std::map<SegmentId, Rank> remap;
    std::set<Rank> dead;
    std::set<SegmentId> dirty;
    std::set<SegmentId> lost;
    std::map<SegmentId, Rank> drained;
  };
  Rank expectedOwner(const FileRec& fr, SegmentId g) const;
  FileRec& fileRec(const std::string& name, const char* site);

  struct WaitInfo {
    bool active = false;
    std::function<std::vector<Rank>()> targets;
    const sim::Event* ev = nullptr;
    /// Non-empty for AND-waits; then `targets`/`ev` are unused and the rank
    /// is blocked exactly while any edge's event is pending.
    std::vector<WaitEdge> edges;
    const char* site = nullptr;
  };

  /// Shared cycle search for beginWait/beginWaitAll; `waits_[waiter]` must
  /// already be populated. Throws on a cycle (after deactivating the waiter).
  void detectCycle(Rank waiter_world);

  int world_size_;
  std::vector<std::atomic<const char*>> labels_;
  std::vector<std::atomic<std::int64_t>> user_tags_;
  std::map<int, CommRec> comms_;
  std::map<std::pair<const void*, Rank>, std::map<Rank, EpochRec>> epochs_;
  std::map<std::string, FileRec> files_;
  std::vector<WaitInfo> waits_;
  CheckerStats stats_;
  std::atomic<std::int64_t> violations_{0};
};

/// RAII phase label: names the high-level operation a rank is inside so
/// collective-mismatch diagnostics can say "File::close" instead of only the
/// MPI primitive. Null checker is a no-op.
class ScopedLabel {
 public:
  ScopedLabel(Checker* ck, Rank world_rank, const char* label)
      : ck_(ck), rank_(world_rank) {
    if (ck_ != nullptr) {
      prev_ = ck_->label(rank_);
      ck_->setLabel(rank_, label);
    }
  }
  ~ScopedLabel() {
    if (ck_ != nullptr) ck_->setLabel(rank_, prev_);
  }
  ScopedLabel(const ScopedLabel&) = delete;
  ScopedLabel& operator=(const ScopedLabel&) = delete;

 private:
  Checker* ck_;
  Rank rank_;
  const char* prev_ = nullptr;
};

/// RAII user tag: stamps every collective a rank enters inside the scope
/// with an application-level phase id (timestep, flush ordinal, ...) so the
/// matching verifier can attribute a divergence to the application phase,
/// not just the MPI primitive. Null checker is a no-op.
class ScopedUserTag {
 public:
  ScopedUserTag(Checker* ck, Rank world_rank, std::int64_t tag)
      : ck_(ck), rank_(world_rank) {
    if (ck_ != nullptr) {
      prev_ = ck_->userTag(rank_);
      ck_->setUserTag(rank_, tag);
    }
  }
  ~ScopedUserTag() {
    if (ck_ != nullptr) ck_->setUserTag(rank_, prev_);
  }
  ScopedUserTag(const ScopedUserTag&) = delete;
  ScopedUserTag& operator=(const ScopedUserTag&) = delete;

 private:
  Checker* ck_;
  Rank rank_;
  std::int64_t prev_ = Checker::kNoUserTag;
};

}  // namespace tcio::check
