// The delegate request-queue server core (DESIGN.md §10).
//
// One Server runs on each delegate rank of a Session. The loop is a classic
// asynchronous request-queue server:
//
//   * arrivals — descriptor messages are drained from the network (a
//     blocking receive only when there is nothing serviceable, nonblocking
//     probes otherwise) and pass *admission control*: a data request is
//     admitted only while the queued data-request count is below the queue
//     capacity and a staging frame is free; otherwise the client gets an
//     immediate kBusy (DelegateBusyError) and retries with simulated-time
//     backoff. Control requests (open/flush/close/adopt/shutdown) bypass
//     admission and are not counted, so a put storm cannot starve them.
//   * service — queued requests are served with per-client round-robin
//     fairness: one request per client per sweep, so a hot client cannot
//     monopolize the delegate.
//   * drain — the last close of a file writes the shard out with OST
//     submission batching: adjacent extents of each segment are coalesced
//     (mpi::normalizeOverlapping) into one pwrite per maximal run.
//
// Crash tolerance reuses the TCIO machinery: each put is journaled
// (tcio/journal WAL) *before* it is acknowledged, so a delegate death loses
// no acknowledged byte — survivors adopt the orphaned shard and replay the
// journal, while clients resubmit whatever was never acknowledged.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/types.h"
#include "delegate/protocol.h"
#include "delegate/session.h"
#include "fs/client.h"
#include "tcio/journal.h"
#include "tcio/ledger.h"

namespace tcio::delegate {

class Server {
 public:
  explicit Server(Session& session);

  /// Serves until the shutdown descriptor (or a scheduled fail-stop crash,
  /// which returns silently — the rank just goes quiet).
  void run();

  const core::TcioDelegateStats& stats() const { return stats_; }

 private:
  /// One admitted (or control) request waiting for service.
  struct Pending : Request {
    std::int64_t frame = -1; // staging frame held by this request (-1 none)
    bool ready = true;       // kPut flips true when kPutData arrives
    int retries = 0;         // kPutRetry rounds already spent on this put
  };

  /// Per-segment shard buffer (the delegate-owned slice of level 2).
  struct SegBuf {
    std::vector<std::byte> data;
    std::vector<Extent> extents;   // raw dirty extents, merged at drain
    std::int64_t raw_extents = 0;  // pre-merge count (batching stats)
    bool loaded = false;           // clean bytes faulted in from the FS
    /// Digests of the verified puts applied here, coalesced into runs at
    /// insert time (SegmentLedger::absorb) so fine-grained interleaved put
    /// streams don't cost one entry per element. Empty with integrity off.
    core::SegmentLedger ledger;
  };

  struct FileState {
    std::string name;
    fs::FsFile fsfile;
    std::unique_ptr<core::Journal> journal;
    std::map<SegmentId, SegBuf> segs;
    std::int64_t opens = 0;
    std::int64_t closes = 0;
    /// (client, seq) pairs whose kCloseDone is deferred until the drain.
    std::vector<std::pair<int, std::int64_t>> closers;
    bool drained = false;
  };

  // Arrival side.
  void drainArrivals(bool block);
  void handleArrival(Bytes received);
  void admitOrReject(Pending p);
  void reply(int client, std::int64_t seq, ReplyKind kind,
             std::int64_t value = 0, std::int64_t value2 = 0,
             std::int32_t pad = 0);

  // Service side.
  bool hasServiceable() const;
  void serviceOne();
  void dispatch(Pending& p);
  void serveOpen(Pending& p);
  void servePut(Pending& p);
  void serveGet(Pending& p);
  void serveClose(Pending& p);
  void serveAdopt(Pending& p);
  void serveShutdown(Pending& p);
  /// Writes the shard out and closes the file; returns the file's size as
  /// this delegate sees it after its drain.
  Bytes drainAndClose(FileState& f);
  void adoptShard(int dead);

  FileState& fileFor(std::uint64_t key);
  SegBuf& segBuf(FileState& f, SegmentId g);
  /// Faults the FS contents of segment `g` into `sb` (dirty bytes win).
  void loadSegment(FileState& f, SegmentId g, SegBuf& sb);
  /// Where staging frame `frame` starts in this delegate's window.
  Offset frameDisp(std::int64_t frame) const;
  void freeFrame(std::int64_t frame);
  [[noreturn]] void die();
  void crashPoint(CrashPoint point);
  /// Lazily registers the takeover remap for a segment this delegate serves
  /// but does not naturally own (checker integration).
  void noteAdoptedSegment(FileState& f, SegmentId g);
  /// Repair source for the ledger gate (core::verifyOrRepair): this
  /// delegate's own WAL of `f`, or none when nothing was journaled.
  core::WalSource ownWal(FileState& f);

  Session* s_;
  mpi::Comm* comm_;
  fs::FsClient client_;
  std::unique_ptr<CrashPlan> crash_plan_;
  std::unique_ptr<CorruptionPlan> corruption_;
  bool integrity_on_ = false;
  int me_;  // delegate index == session rank

  /// Agreed delegate deaths, oldest first. Replaying adopted WALs in death
  /// order keeps cascaded recovery deterministic: a record's re-appended
  /// copy (gen n+1) always lands after its original in every survivor's
  /// replay, so last-writer-wins resolves identically everywhere.
  std::vector<int> death_order_;
  /// Dead delegates whose journal this server has already replayed — the
  /// chain scan in serveAdopt() is re-entrant across agreement rounds.
  std::set<int> my_adopted_;
  /// Every descriptor is received here; each is parsed before the next
  /// receive reuses the bytes.
  mpi::RawBytes arrival_;
  std::map<std::uint64_t, FileState> files_;
  std::map<int, std::deque<Pending>> queues_;
  std::int64_t data_queued_ = 0;
  std::vector<std::int64_t> free_frames_;
  int rr_next_ = 0;  // round-robin cursor (client rank)
  bool shutdown_ = false;
  core::TcioDelegateStats stats_;
};

}  // namespace tcio::delegate
