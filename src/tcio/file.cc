// core::File public API: collective open and close, the Program 1
// write/read/seek calls, flush, fetch, and FS access with OST failover.
#include "tcio/file.h"

#include <algorithm>
#include <numeric>

#include "common/env.h"
#include "tcio/file_internal.h"

namespace tcio::core {

File::File(mpi::Comm& comm, fs::Filesystem& fsys, const std::string& name,
           unsigned flags, TcioConfig cfg)
    : comm_(&comm),
      client_(fsys, comm.proc()),
      name_(name),
      flags_(flags),
      cfg_(cfg),
      map_(cfg.segment_size, comm.size()),
      slot_cap_((cfg.crash.enabled ? 2 : 1) * cfg.segments_per_rank),
      flags_region_(slot_cap_ * kFlagBytes),
      level1_(cfg.segment_size),
      orig_rank_(comm.rank()),
      orig_size_(comm.size()) {
  TCIO_CHECK(cfg_.segment_size > 0);
  TCIO_CHECK(cfg_.segments_per_rank > 0);
  TCIO_CHECK_MSG(cfg_.use_onesided ||
                     (cfg_.lazy_reads && !cfg_.auto_fetch_on_segment_exit),
                 "two-sided exchange requires lazy reads and no independent "
                 "auto-fetch (no independent materialization path exists "
                 "without one-sided access)");
  TCIO_CHECK_MSG(!cfg_.node_aggregation ||
                     (cfg_.use_onesided && cfg_.lazy_reads &&
                      !cfg_.auto_fetch_on_segment_exit),
                 "node aggregation stages data until the next collective "
                 "call, so it requires one-sided mode with lazy reads and no "
                 "independent auto-fetch");
  // Fault plan and retry policy must be in place before the first FS
  // operation. The plan lands in the shared Filesystem (first open wins, so
  // all ranks share one deterministic schedule).
  if (cfg_.faults.enabled) client_.installFaultPlan(cfg_.faults);
  client_.setRetryPolicy(cfg_.retry);
  // Collective open: rank 0 creates/truncates, everyone else opens after.
  // Open failures (e.g. FileNotFound in read mode) are captured and agreed
  // so every rank reaches the barrier and throws the same typed error —
  // rank 0 must never abandon peers already waiting inside the barrier.
  // The handle always reads: an owner loads a segment's existing bytes
  // before the drain writes the whole segment back, write-only files too.
  const unsigned fs_flags = flags_ | fs::kRead;
  mpi::CapturedError open_err;
  if (comm_->rank() == 0) {
    try {
      fsfile_ = client_.open(name_, fs_flags);
    } catch (const std::exception& e) {
      open_err.capture(e);
    }
  }
  comm_->barrier();
  if (comm_->rank() != 0) {
    try {
      fsfile_ = client_.open(name_, fs_flags & ~(fs::kCreate | fs::kTruncate));
    } catch (const std::exception& e) {
      open_err.capture(e);
    }
  }
  mpi::agreeOnError(*comm_, open_err);
  // Registered before the first collective that branches on the access mode
  // (the journal agreement below), so a divergent open fails here, naming
  // the file, instead of hanging in a later collective.
  if (check::Checker* ck = comm_->world().checker()) {
    comm_->proc().atomic([&] {
      ck->registerFile(name_, orig_size_, cfg_.segment_size,
                       cfg_.segments_per_rank, flags_);
    });
  }
  if (cfg_.crash.enabled) {
    crash_plan_ = std::make_unique<CrashPlan>(cfg_.faults, orig_rank_);
  }
  // End-to-end integrity: resolve the tri-state once (config and environment
  // are identical on every rank, so the decision is collectively uniform)
  // and arm the silent-corruption injector.
  integrity_on_ = integrityOn(cfg_.integrity.enabled);
  corruption_ = std::make_unique<CorruptionPlan>(cfg_.faults, orig_rank_);
  // The per-rank write-ahead journal: crash recovery replays it, and with
  // integrity on it is the repair source for window corruption the scrubber
  // finds. Its open is a real MDS operation (it can fault), so it is
  // captured and agreed like the data-file open above.
  if (cfg_.crash.enabled || (integrity_on_ && writable())) {
    mpi::CapturedError jerr;
    if (!cfg_.crash.enabled || cfg_.crash.journal) {
      try {
        journal_ =
            std::make_unique<Journal>(client_, journalPath(name_, orig_rank_));
      } catch (const std::exception& e) {
        jerr.capture(e);
      }
    }
    try {
      mpi::agreeOnError(*comm_, jerr);
    } catch (...) {
      noteSessionAborted();  // a reopen starts a fresh checker session
      throw;
    }
  }
  if (cfg_.crash.enabled) {
    // A reserved block of communicator contexts for post-death shrinks.
    int base = 0;
    if (orig_rank_ == 0) base = comm_->reserveContexts(kMaxShrinks);
    comm_->bcast(&base, sizeof(base), 0);
    shrink_context_base_ = base;
    orig_of_cur_.resize(static_cast<std::size_t>(orig_size_));
    std::iota(orig_of_cur_.begin(), orig_of_cur_.end(), 0);
    cur_of_orig_ = orig_of_cur_;
    dead_.assign(static_cast<std::size_t>(orig_size_), false);
    next_spare_.assign(static_cast<std::size_t>(orig_size_),
                       cfg_.segments_per_rank);
  }
  window_ = std::make_unique<mpi::Window>(mpi::Window::create(
      *comm_, flags_region_ + slotCount() * cfg_.segment_size));
  if (writable()) loadExistingBytes();
  if (cfg_.node_aggregation) buildNodeAggregation();
  comm_->memory().allocate(cfg_.segment_size, "TCIO level-1 buffer");
  open_ = true;
}

void File::loadExistingBytes() {
  // Every rank opened after rank 0's create or truncate and before any
  // drain, so every rank sees the same size and takes the same branch.
  const Bytes existing = fsfile_.sizeAtOpen();
  if (existing == 0) return;
  mpi::CapturedError err;
  try {
    loadOwnedSlots(existing,
                   [&](SegmentId g) { return map_.baseOf(g) < existing; });
  } catch (const std::exception& e) {
    err.capture(e);
  }
  // No rank leaves the agreement before every owner has loaded, so no put
  // lands in a slot that is still to be loaded.
  try {
    mpi::agreeOnError(*comm_, err);
  } catch (...) {
    comm_->memory().release(window_->localSize());
    noteSessionAborted();
    throw;
  }
}

File::~File() {
  if (open_) {
    try {
      close();
      // A RankCrashedError here means the rank is already unwinding and
      // the survivors have agreed on the death — nothing is lost by eating
      // it, and a throwing destructor would terminate the process.
      // NOLINT-TCIO(crash-unwind-swallow): destructor must not throw
    } catch (...) {
      // Destructor must not throw; an incomplete collective close at
      // unwind time is already a failed simulation.
    }
  }
  // A crashed (or failed-close) rank unwinds with the node-aggregation layer
  // still built over a shrunk communicator owned by shrunk_comms_. Members
  // destroy in reverse declaration order, which would free those comms
  // before the aggregator's destructor releases its staging window through
  // them — tear the aggregation layer down explicitly while its
  // communicator is still alive.
  node_agg_.reset();
  node_map_.reset();
}

// -- Writes -------------------------------------------------------------------

void File::write(const void* data, std::int64_t count,
                 const mpi::Datatype& type) {
  const Bytes n = count * type.size();
  writeBytes(pointer_, static_cast<const std::byte*>(data), n);
  pointer_ += n;
}

void File::writeAt(Offset off, const void* data, std::int64_t count,
                   const mpi::Datatype& type) {
  writeBytes(off, static_cast<const std::byte*>(data), count * type.size());
}

void File::writeAt(Offset off, const void* data, Bytes n) {
  writeBytes(off, static_cast<const std::byte*>(data), n);
}

void File::writeBytes(Offset off, const std::byte* src, Bytes n) {
  TCIO_CHECK_MSG(open_, "write on closed TCIO file");
  TCIO_CHECK_MSG(writable(), "write on read-only TCIO file");
  TCIO_CHECK(off >= 0 && n >= 0);
  TCIO_CHECK_MSG(off + n <= capacity(),
                 "write beyond TCIO capacity — raise segments_per_rank");
  if (n == 0) return;
  ++stats_.writes;
  stats_.bytes_written += n;
  local_max_written_ = std::max(local_max_written_, off + n);
  comm_->chargeCopy(n);
  while (n > 0) {
    const SegmentId seg = map_.segmentOf(off);
    const Offset disp = map_.dispOf(off);
    const Bytes take = std::min(n, cfg_.segment_size - disp);
    if (level1_.alignedSegment() != seg) {
      flushLevel1();
      level1_.align(seg);
    }
    level1_.put(disp, src, take);
    off += take;
    src += take;
    n -= take;
  }
}

// -- Reads --------------------------------------------------------------------

void File::read(void* data, std::int64_t count, const mpi::Datatype& type) {
  const Bytes n = count * type.size();
  recordRead(pointer_, static_cast<std::byte*>(data), n);
  pointer_ += n;
}

void File::readAt(Offset off, void* data, std::int64_t count,
                  const mpi::Datatype& type) {
  recordRead(off, static_cast<std::byte*>(data), count * type.size());
}

void File::readAt(Offset off, void* data, Bytes n) {
  recordRead(off, static_cast<std::byte*>(data), n);
}

void File::recordRead(Offset off, std::byte* dst, Bytes n) {
  TCIO_CHECK_MSG(open_, "read on closed TCIO file");
  TCIO_CHECK_MSG((flags_ & fs::kRead) != 0, "read on write-only TCIO file");
  TCIO_CHECK(off >= 0 && n >= 0);
  TCIO_CHECK_MSG(off + n <= capacity(),
                 "read beyond TCIO capacity — raise segments_per_rank");
  if (n == 0) return;
  ++stats_.reads;
  stats_.bytes_read += n;
  while (n > 0) {
    const SegmentId seg = map_.segmentOf(off);
    const Bytes take = std::min(n, cfg_.segment_size - map_.dispOf(off));
    // Session writes still sitting in level-1 must reach level-2 before any
    // read of the same segment resolves.
    if (level1_.alignedSegment() == seg && !level1_.empty()) {
      flushLevel1();
    }
    if (!cfg_.lazy_reads) {
      independentFetch(seg, {{dataDisp(slotOnOwner(seg), map_.dispOf(off)),
                              dst, take}});
    } else {
      if (cfg_.auto_fetch_on_segment_exit && pending_segment_ != -1 &&
          seg != pending_segment_) {
        // The cached read domain left the level-1 window: resolve the
        // accumulated group independently (paper §IV.A trigger), then start
        // a new group.
        fetchPendingGroup();
      }
      pending_segment_ = seg;
      pending_reads_.add(off, dst, take);
    }
    off += take;
    dst += take;
    n -= take;
  }
}

void File::seek(Offset off, Whence whence) {
  switch (whence) {
    case Whence::kSet: pointer_ = off; break;
    case Whence::kCur: pointer_ += off; break;
    case Whence::kEnd:
      pointer_ = std::max(client_.size(fsfile_), local_max_written_) + off;
      break;
  }
  TCIO_CHECK(pointer_ >= 0);
}

void File::flush() {
  TCIO_CHECK_MSG(open_, "flush on closed TCIO file");
  check::ScopedLabel phase(comm_->world().checker(), comm_->proc().rank(),
                           "File::flush");
  // Tag every collective inside this flush with its ordinal: collective
  // matching then attributes a divergence to the application phase ("rank 3
  // is still in flush #4") even when the MPI signatures happen to line up.
  check::ScopedUserTag tag(comm_->world().checker(), comm_->proc().rank(),
                           flush_calls_++);
  maybeCorruptWindow();
  crashPoint(CrashPoint::kAtCollective);
  // Crash-tolerant ordering: the level-1 flush (journal + RMA/stage, all
  // local work with crash points inside) runs first, then the liveness
  // agreement detects any rank that died at or before this collective and
  // shrinks around it — only then is a plain collective safe to enter.
  if (cfg_.crash.enabled) agreeLevel1Flush();
  // A read-only file has no writes and no digests to send (writeBytes
  // rejects it), so it runs neither exchange.
  if (writable()) {
    exchangeWrites();
    // Digests from this flush reach their owners before the scrub below.
    exchangeDigests();
  }
  // The background scrubber spends its per-collective budget re-verifying
  // owned segments.
  scrubAndAgree();
  comm_->barrier();  // tcio_flush is collective (paper §IV.B)
  syncRecoveryStats();
}

void File::fetch() {
  TCIO_CHECK_MSG(open_, "fetch on closed TCIO file");
  check::ScopedLabel phase(comm_->world().checker(), comm_->proc().rank(),
                           "File::fetch");
  crashPoint(CrashPoint::kAtCollective);
  collectiveFetch();
  scrubAndAgree();
  syncRecoveryStats();
}

void File::close() {
  if (!open_) return;
  check::ScopedLabel phase(comm_->world().checker(), comm_->proc().rank(),
                           "File::close");
  // Mark closed up front: if any step below throws, the destructor must not
  // attempt the collective sequence again mid-unwind (the other ranks are no
  // longer at a matching program point).
  open_ = false;
  maybeCorruptWindow();
  // Deferred agreed outcome: with crash tolerance the agreement points
  // return their verdict instead of throwing, so resources are released and
  // the handle closed before the error finally surfaces.
  std::int32_t agreed_code = mpi::CapturedError::kNone;
  std::string agreed_what;
  const auto accumulate =
      [&](const std::pair<std::int32_t, std::string>& verdict) {
        const auto& [code, what] = verdict;
        if (code != mpi::CapturedError::kNone &&
            (agreed_code == mpi::CapturedError::kNone || code > agreed_code)) {
          agreed_code = code;
          agreed_what = what;
        }
      };
  mpi::CapturedError err;
  if (cfg_.crash.enabled) {
    crashPoint(CrashPoint::kAtCollective);
    // Detection round before any plain collective: peers that died since the
    // last collective point (or die in this residue flush) are agreed dead,
    // the communicator shrinks, and their segments are adopted + replayed.
    accumulate(agreeAndRecover(captureLocal([&] { flushLevel1(); })));
  }
  // Every agreement point below throws the *same* typed error on *all*
  // ranks, so catching locally and continuing the close sequence keeps the
  // ranks in lockstep.
  if ((flags_ & fs::kRead) != 0 && agreed_code == mpi::CapturedError::kNone) {
    err = captureLocal([&] { collectiveFetch(); });  // pending lazy reads
  }
  // A read-only file skips the write-side steps (nothing to send).
  if (writable() && !err.set() && agreed_code == mpi::CapturedError::kNone) {
    // One-sided: local + RMA only, agreed below (crash mode already flushed
    // the residue in the detection round).
    err = captureLocal([&] {
      if (!exchangeStaged() && !cfg_.crash.enabled) flushLevel1();
    });
  }
  // The final exchange's digests reach their owners before the close-time
  // scrub below (aligned: agreed_code is collectively agreed, so every live
  // rank takes the same branch).
  if (writable() && agreed_code == mpi::CapturedError::kNone) {
    exchangeDigests();
  }
  // Aggregate file size across ranks (pre-existing contents included).
  // Journal replays above fold a dead rank's extents into the survivors'
  // local_max_written_, so its tail still counts toward the agreed size.
  std::int64_t fsize = std::max(local_max_written_, client_.size(fsfile_));
  comm_->allreduce(&fsize, 1, mpi::ReduceOp::kMax);
  // Scrub and drain under collective error agreement: a rank whose repair or
  // file-system writes fail must not leave its peers blocked in the closing
  // collectives, and a rank whose own writes succeeded must still learn the
  // file is damaged. Both are purely local, so skipping them on an
  // already-failed rank (or failing on some ranks only) cannot desynchronize
  // the collectives.
  const auto draining = [&] {
    return !err.set() && agreed_code == mpi::CapturedError::kNone &&
           writable();
  };
  // The scrub comes before the barrier: a repair replays every writer's
  // journal, and a writer truncates its journal (commit, below) only after
  // the barrier, so no repair can find a peer's journal already gone.
  if (draining()) err = captureLocal([&] { scrubAll(); });
  comm_->barrier();  // paper: synchronize before draining level-2
  final_fsize_ = fsize;
  if (draining()) err = captureLocal([&] { drainToFs(fsize); });
  drained_ = true;
  if (cfg_.crash.enabled) {
    // Post-drain agreement: a rank that died mid-drain (kMidClose) left some
    // of its dirty segments unwritten. agreeAndRecover loops until the dead
    // set stops growing; survivors reconstruct the orphaned segments from
    // the journals and write them directly to the file.
    accumulate(agreeAndRecover(err));
    err = {};
  }
  // Commit: after a clean drain every journaled byte is durably in the file
  // proper, so the log is truncated. On a failure path the journal stays —
  // its frames are the only clean copy of the bytes the damaged file may be
  // missing.
  if (journal_ != nullptr && !err.set() &&
      agreed_code == mpi::CapturedError::kNone) {
    try {
      journal_->commit();
    } catch (const std::exception& e) {
      err.capture(e);
    }
  }
  if (cfg_.crash.enabled) {
    // The commit is an MDS op pair and can fault; one more aligned round.
    accumulate(agreeAndRecover(err));
    err = {};
  }
  journal_.reset();
  try {
    client_.close(fsfile_);
  } catch (const std::exception& e) {
    err.capture(e);
  }
  if (node_agg_ != nullptr) node_agg_->close();
  comm_->memory().release(cfg_.segment_size);  // level-1 buffer
  comm_->memory().release(window_->localSize());
  window_.reset();
  syncRecoveryStats();
  if (cfg_.crash.enabled) {
    accumulate(agreeAndRecover(err));
    if (agreed_code != mpi::CapturedError::kNone) {
      noteSessionAborted();
      mpi::throwTyped(agreed_code, agreed_what);
    }
  } else {
    try {
      collectiveAgreeOnError(err);
    } catch (...) {
      noteSessionAborted();
      throw;
    }
  }
  if (check::Checker* ck = comm_->world().checker()) {
    // Clean collective close: the last live rank to get here triggers the
    // drain-coverage verification over the agreed final file size.
    comm_->proc().atomic(
        [&] { ck->onFileClosed(name_, final_fsize_, orig_rank_); });
  }
}

void File::drainToFs(Bytes file_size) {
  check::Checker* ck = comm_->world().checker();
  const std::byte* flags = localFlags();
  for (const auto& [g, slot] : ownedSlots()) {
    if (flags[flagsDisp(slot, kDirtyFlag)] == std::byte{0}) continue;
    const Offset base = map_.baseOf(g);
    if (base >= file_size) continue;
    crashPoint(CrashPoint::kMidClose);
    const Bytes len = std::min(cfg_.segment_size, file_size - base);
    pwriteDegraded(base, window_->localRange(dataDisp(slot, 0), len), len);
    if (ck != nullptr) {
      comm_->proc().atomic(
          [&] { ck->onDrain(name_, g, orig_rank_, "File::drainToFs"); });
    }
  }
}

void File::buildNodeAggregation() {
  // Header slack on top of one full segment per node-local rank per round.
  constexpr Bytes kSlotSlack = 4096;
  node_map_ = std::make_unique<topo::NodeMap>(*comm_);
  node_agg_ = std::make_unique<topo::NodeAggregator>(
      *node_map_,
      static_cast<Bytes>(node_map_->maxNodeSize()) * cfg_.segment_size +
          kSlotSlack);
}

namespace {

/// Runs the FS access `io`; on OstFailedError remaps the failed chunks of
/// [off, off + n) to surviving OSTs and retries once. Transients are already
/// absorbed below, in FsClient's retry loop.
template <typename Io>
void withOstFailover(fs::FsClient& client, fs::FsFile& file, Offset off,
                     Bytes n, std::int64_t& remapped, Io&& io) {
  try {
    io();
  } catch (const OstFailedError&) {
    const std::int64_t moved = client.remapFailedChunks(file, off, n);
    if (moved == 0) throw;  // nothing to fail over to — surface it
    remapped += moved;
    io();
  }
}

}  // namespace

void File::pwriteDegraded(Offset off, const std::byte* src, Bytes n) {
  withOstFailover(client_, fsfile_, off, n, stats_.degraded.chunks_remapped,
                  [&] { client_.pwrite(fsfile_, off, src, n); });
}

void File::preadDegraded(Offset off, std::byte* dst, Bytes n) {
  withOstFailover(client_, fsfile_, off, n, stats_.degraded.chunks_remapped,
                  [&] { client_.pread(fsfile_, off, dst, n); });
}

void File::noteSessionAborted() {
  if (check::Checker* ck = comm_->world().checker()) {
    comm_->proc().atomic([&] { ck->noteSessionAborted(name_); });
  }
}

void File::syncRecoveryStats() {
  const fs::FsClient::RetryStats& rs = client_.retryStats();
  stats_.degraded.fs_transient_faults = rs.transient_faults;
  stats_.degraded.fs_retries = rs.retries;
  stats_.degraded.fs_retry_giveups = rs.giveups;
  sim::Proc& p = comm_->proc();
  stats_.degraded.rma_drops =
      p.atomic([&] { return comm_->world().network().rmaDropCount(); });
  const fs::FsStats fstats =
      p.atomic([&] { return client_.filesystem().stats(); });
  stats_.degraded.chunks_rebalanced = fstats.chunks_rebalanced;
  stats_.integrity.fs_page_checks = fstats.integrity_page_checks;
  stats_.integrity.fs_page_mismatches = fstats.integrity_page_mismatches;
  stats_.integrity.fs_pages_repaired = fstats.integrity_pages_repaired;
}

}  // namespace tcio::core
