#include "tcio/file.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <span>

#include "check/checker.h"
#include "common/crc32.h"
#include "mpi/liveness.h"

namespace tcio::core {

namespace {
constexpr std::byte kFlagSet{1};

struct BlockMeta {
  Offset off = 0;
  Bytes len = 0;
  std::uint32_t crc = 0;      // CRC32 of the payload (integrity pipeline)
  std::uint32_t has_crc = 0;  // 1 = `crc` is valid; read requests carry none
};

void appendBytes(std::vector<std::byte>& out, const void* src, std::size_t n) {
  const auto* p = static_cast<const std::byte*>(src);
  out.insert(out.end(), p, p + n);
}
}  // namespace

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
  TCIO_CHECK_MSG(cfg_.use_onesided || cfg_.lazy_reads,
                 "two-sided exchange requires lazy reads (no independent "
                 "materialization path exists without one-sided access)");
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
  mpi::CapturedError open_err;
  if (comm_->rank() == 0) {
    try {
      fsfile_ = client_.open(name_, flags_);
    } catch (const std::exception& e) {
      open_err.capture(e);
    }
  }
  comm_->barrier();
  if (comm_->rank() != 0) {
    try {
      fsfile_ = client_.open(name_, flags_ & ~(fs::kCreate | fs::kTruncate));
    } catch (const std::exception& e) {
      open_err.capture(e);
    }
  }
  mpi::agreeOnError(*comm_, open_err);
  if (cfg_.crash.enabled) {
    // The crash schedule, the per-rank journal, and a reserved block of
    // communicator contexts for post-death shrinks. The journal open is a
    // real MDS operation (it can fault), so it is captured and agreed like
    // the data-file open above.
    crash_plan_ = std::make_unique<CrashPlan>(cfg_.faults, orig_rank_);
    mpi::CapturedError jerr;
    if (cfg_.crash.journal) {
      try {
        journal_ =
            std::make_unique<Journal>(client_, journalPath(name_, orig_rank_));
      } catch (const std::exception& e) {
        jerr.capture(e);
      }
    }
    mpi::agreeOnError(*comm_, jerr);
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
  // End-to-end integrity: resolve the tri-state once (config and environment
  // are identical on every rank, so the decision is collectively uniform)
  // and arm the silent-corruption injector. When integrity is on without
  // crash tolerance, the write-ahead journal is opened anyway — it is the
  // repair source for window corruption found by the scrubber.
  integrity_on_ = integrityEnabled(cfg_);
  corruption_ = std::make_unique<CorruptionPlan>(cfg_.faults, orig_rank_);
  if (!cfg_.crash.enabled && integrity_on_ && (flags_ & fs::kWrite) != 0) {
    mpi::CapturedError jerr;
    try {
      journal_ =
          std::make_unique<Journal>(client_, journalPath(name_, orig_rank_));
    } catch (const std::exception& e) {
      jerr.capture(e);
    }
    mpi::agreeOnError(*comm_, jerr);
  }
  window_ = std::make_unique<mpi::Window>(mpi::Window::create(
      *comm_, flags_region_ + slotCount() * cfg_.segment_size));
  if (cfg_.node_aggregation) buildNodeAggregation();
  comm_->memory().allocate(cfg_.segment_size, "TCIO level-1 buffer");
  if (check::Checker* ck = comm_->world().checker()) {
    comm_->proc().atomic([&] {
      ck->registerFile(name_, orig_size_, cfg_.segment_size,
                       cfg_.segments_per_rank);
    });
  }
  open_ = true;
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
  TCIO_CHECK_MSG((flags_ & fs::kWrite) != 0, "write on read-only TCIO file");
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

void File::flushLevel1() {
  if (level1_.empty()) {
    level1_.reset();
    return;
  }
  ++stats_.level1_flushes;
  const SegmentId seg = level1_.alignedSegment();
  const std::vector<Extent> extents = level1_.mergedExtents();
  // Per-extent digests are taken from the level-1 buffer before the journal
  // append and the injection point below: the ledger and the journal both
  // hold the clean view, so any later hop that mangles the bytes is
  // detectable and repairable.
  if (integrity_on_) digestLevel1(seg, extents);
  // Write-ahead: the journal records must be durable before the bytes move
  // to the level-2 window (a one-sided put into a rank that later dies takes
  // the window copy with it; the journal copy survives in *this* rank's log).
  // One device write per segment flush; a kMidJournal crash tears a record.
  if (journal_ != nullptr) {
    journal_->batchBegin();
    for (const Extent& e : extents) {
      if (!appendOrTear(*journal_, crash_plan_.get(), CrashPoint::kMidJournal,
                        seg, e.begin,
                        {level1_.data() + e.begin,
                         static_cast<std::size_t>(e.size())})) {
        die("mid journal append");
      }
    }
    journal_->batchEnd();
  }
  crashPoint(CrashPoint::kMidRma);
  // Silent-corruption injection, staging-frame site: flip one seeded bit in
  // the outgoing frame after the clean copies (digest + journal) are
  // secured — the corruption rides the RMA put / staged copy into level 2.
  if (corruption_ != nullptr && !extents.empty() &&
      corruption_->fires(CorruptSite::kStagingFrame)) {
    const Extent& e = extents.front();
    corruption_->flipBit(
        {level1_.mutableData() + e.begin, static_cast<std::size_t>(e.size())});
  }
  const SimTime flush_begin = comm_->proc().now();
  if (!twoSidedExchange() && !cfg_.node_aggregation) {
    const Rank owner = ownerOf(seg);
    const std::int64_t slot = slotOnOwner(seg);
    if (check::Checker* ck = comm_->world().checker()) {
      comm_->proc().atomic([&] {
        ck->onSegmentTransfer(name_, seg, owner, "File::flushLevel1");
        ck->noteDirty(name_, seg);
      });
    }
    std::vector<mpi::Window::PutBlock> blocks;
    blocks.reserve(extents.size() + 1);
    blocks.push_back({flagsDisp(slot, kDirtyFlag), &kFlagSet, 1});
    for (const Extent& e : extents) {
      blocks.push_back(
          {dataDisp(slot, e.begin), level1_.data() + e.begin, e.size()});
    }
    // Shared lock: concurrent flushes from different ranks write disjoint
    // bytes of the segment (their own blocks), which MPI permits under
    // shared passive-target epochs — and it keeps flushes from convoying
    // behind one another when every rank walks the segments in file order.
    window_->lock(mpi::LockType::kShared, owner);
    window_->putIndexed(owner, blocks);
    window_->unlock(owner);
    if (comm_->world().trace().enabled()) {
      sim::Proc& p = comm_->proc();
      Bytes n = 0;
      for (const Extent& e : extents) n += e.size();
      p.atomic([&] {
        comm_->world().trace().record(p.rank(), flush_begin, p.now(),
                                      "tcio.flush", n);
      });
    }
  } else {
    // Two-sided ablation / node aggregation: stage locally until the next
    // collective exchange.
    for (const Extent& e : extents) {
      staged_.emplace_back(
          map_.baseOf(seg) + e.begin,
          std::vector<std::byte>(level1_.data() + e.begin,
                                 level1_.data() + e.end));
      staged_bytes_ += e.size();
      comm_->memory().allocate(e.size(), "TCIO staged writes");
    }
    if (cfg_.node_aggregation &&
        node_map_->nodeOf(curOf(ownerOf(seg))) != node_map_->myNode()) {
      // The per-rank shuffle would have put one epoch for this flush on the
      // NIC; the leader exchange replaces it.
      ++stats_.internode_messages_saved;
    }
  }
  level1_.reset();
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
    const PendingRead piece{off, take, dst};
    if (!cfg_.lazy_reads) {
      independentFetch({piece});
    } else if (cfg_.auto_fetch_on_segment_exit && cfg_.use_onesided &&
               pending_segment_ != -1 && seg != pending_segment_) {
      // The cached read domain left the level-1 window: resolve the
      // accumulated group independently (paper §IV.A trigger), then start a
      // new group.
      std::vector<PendingRead> group;
      group.swap(pending_reads_);
      independentFetch(std::move(group));
      pending_segment_ = seg;
      pending_reads_.push_back(piece);
    } else {
      pending_segment_ = seg;
      pending_reads_.push_back(piece);
    }
    off += take;
    dst += take;
    n -= take;
  }
}

void File::ensureLoadedIndependent(SegmentId seg,
                                   std::vector<std::byte>& scratch) {
  const Rank owner = ownerOf(seg);
  const std::int64_t slot = slotOnOwner(seg);
  std::byte flags[2];
  window_->get(owner, flagsDisp(slot, 0), flags, kFlagBytes);
  if (flags[kDirtyFlag] != std::byte{0} || flags[kLoadedFlag] != std::byte{0}) {
    return;  // resident (session writes or a previous load)
  }
  // Load the segment from the file ourselves and publish it through the
  // owner's window — pure one-sided, no remote progress needed. The bytes go
  // through caller-owned scratch because a put source must stay untouched
  // until the caller's unlock closes the epoch.
  const Offset base = map_.baseOf(seg);
  const Bytes fsize = client_.size(fsfile_);
  const Bytes len = std::clamp<Bytes>(fsize - base, 0, cfg_.segment_size);
  scratch.assign(static_cast<std::size_t>(len), std::byte{0});
  if (len > 0) preadDegraded(base, scratch.data(), len);
  if (check::Checker* ck = comm_->world().checker()) {
    comm_->proc().atomic([&] {
      ck->onSegmentTransfer(name_, seg, owner, "File::ensureLoadedIndependent");
    });
  }
  std::vector<mpi::Window::PutBlock> blocks;
  blocks.push_back({flagsDisp(slot, kLoadedFlag), &kFlagSet, 1});
  if (len > 0) blocks.push_back({dataDisp(slot, 0), scratch.data(), len});
  window_->putIndexed(owner, blocks);
}

void File::independentFetch(std::vector<PendingRead> reads) {
  TCIO_CHECK_MSG(cfg_.use_onesided,
                 "independent fetch requires one-sided mode");
  if (reads.empty()) return;
  ++stats_.independent_fetches;
  // Group by segment; each segment is handled under one exclusive lock of
  // its owner (exclusive because we may have to load-and-publish).
  std::map<SegmentId, std::vector<PendingRead>> by_seg;
  for (const PendingRead& r : reads) {
    by_seg[map_.segmentOf(r.off)].push_back(r);
  }
  for (auto& [seg, group] : by_seg) {
    const Rank owner = ownerOf(seg);
    const std::int64_t slot = slotOnOwner(seg);
    std::vector<mpi::Window::GetBlock> blocks;
    blocks.reserve(group.size());
    for (const PendingRead& r : group) {
      blocks.push_back({dataDisp(slot, map_.dispOf(r.off)), r.dst, r.len});
    }
    if (check::Checker* ck = comm_->world().checker()) {
      comm_->proc().atomic([&] {
        ck->onSegmentTransfer(name_, seg, owner, "File::independentFetch");
      });
    }
    // Fast path: under a shared lock, check residency and gather. Only a
    // non-resident segment needs the exclusive load-and-publish epoch.
    std::byte flags[2];
    window_->lock(mpi::LockType::kShared, owner);
    window_->get(owner, flagsDisp(slot, 0), flags, kFlagBytes);
    const bool resident = flags[kDirtyFlag] != std::byte{0} ||
                          flags[kLoadedFlag] != std::byte{0};
    if (resident) {
      window_->getIndexed(owner, blocks);
      window_->unlock(owner);
      continue;
    }
    window_->unlock(owner);
    window_->lock(mpi::LockType::kExclusive, owner);
    std::vector<std::byte> scratch;  // outlives the unlock below (put source)
    ensureLoadedIndependent(seg, scratch);  // re-checks under the lock
    window_->getIndexed(owner, blocks);
    window_->unlock(owner);
  }
}

void File::gatherPending(std::vector<PendingRead>& reads) {
  check::Checker* ck = comm_->world().checker();
  // One shared-lock epoch and one coalesced get per owner.
  std::map<Rank, std::vector<mpi::Window::GetBlock>> by_owner;
  std::set<SegmentId> segs;
  for (const PendingRead& r : reads) {
    const SegmentId seg = map_.segmentOf(r.off);
    by_owner[ownerOf(seg)].push_back(
        {dataDisp(slotOnOwner(seg), map_.dispOf(r.off)), r.dst, r.len});
    if (ck != nullptr) segs.insert(seg);
  }
  if (ck != nullptr && !segs.empty()) {
    comm_->proc().atomic([&] {
      for (const SegmentId g : segs) {
        ck->onSegmentTransfer(name_, g, ownerOf(g), "File::gatherPending");
      }
    });
  }
  for (auto& [owner, blocks] : by_owner) {
    window_->lock(mpi::LockType::kShared, owner);
    window_->getIndexed(owner, blocks);
    window_->unlock(owner);
  }
}

void File::collectiveFetch() {
  ++stats_.collective_fetches;
  maybeCorruptWindow();
  const SimTime fetch_begin = comm_->proc().now();
  if (cfg_.crash.enabled) {
    // Liveness first: a peer that died since the last collective (or dies in
    // its own residue flush right here) must be agreed dead — and its
    // segments taken over — before any plain collective below is entered,
    // or the survivors hang in it. The residue flush carries crash points
    // (kMidJournal/kMidRma); a rank killed by one unwinds, uncaptured.
    mpi::CapturedError err;
    try {
      flushLevel1();
    } catch (const RankCrashedError&) {
      throw;
    } catch (const check::CheckFailure&) {
      throw;  // checker verdicts abort the job typed, never agreed-and-retyped
    } catch (const std::exception& e) {
      err.capture(e);
    }
    collectiveAgreeOnError(err);
    if (cfg_.node_aggregation) {
      nodeExchangeStagedWrites();
    } else if (twoSidedExchange()) {
      exchangeStagedWrites();
    }
  } else if (cfg_.node_aggregation) {
    nodeExchangeStagedWrites();
  } else if (twoSidedExchange()) {
    exchangeStagedWrites();
  } else {
    // One-sided flush is local + RMA only: capture and agree so a fault on
    // one rank cannot strand its peers in the bitmap allreduce below.
    mpi::CapturedError err;
    try {
      flushLevel1();
    } catch (const check::CheckFailure&) {
      throw;  // checker verdicts abort the job typed, never agreed-and-retyped
    } catch (const std::exception& e) {
      err.capture(e);
    }
    collectiveAgreeOnError(err);
  }
  // Every writer's pending digests reach the segment owners before any data
  // is served below (an allgatherv — collectively aligned: integrity is
  // uniform across ranks, and in crash mode the agreement above already
  // shrank the communicator around any dead peers).
  exchangeDigests();
  // Union of needed segments across ranks (segment ids span the original
  // communicator's domain even after a crash shrink).
  const std::int64_t total_segs =
      cfg_.segments_per_rank * static_cast<std::int64_t>(orig_size_);
  std::vector<std::uint64_t> bitmap(
      static_cast<std::size_t>((total_segs + 63) / 64), 0);
  for (const PendingRead& r : pending_reads_) {
    // A pending piece never crosses a segment boundary (recordRead splits).
    const SegmentId g = map_.segmentOf(r.off);
    bitmap[static_cast<std::size_t>(g / 64)] |= 1ULL << (g % 64);
  }
  comm_->allreduce(bitmap.data(), static_cast<std::int64_t>(bitmap.size()),
                   mpi::ReduceOp::kBitOr);
  // Owners load their needed, non-resident segments with large file reads.
  // The loads are purely local, so capture any FS failure and agree after
  // the existing barrier (an aligned point for every rank).
  if (check::Checker* ck = comm_->world().checker()) {
    // Every slot this rank is about to load (or serve) must be one the
    // checker's segment map assigns to it.
    comm_->proc().atomic([&] {
      for (const auto& [g, slot] : ownedSlots()) {
        if ((bitmap[static_cast<std::size_t>(g / 64)] &
             (1ULL << (g % 64))) != 0) {
          ck->onSegmentTransfer(name_, g, orig_rank_,
                                "File::collectiveFetch(owner load)");
        }
      }
    });
  }
  mpi::CapturedError load_err;
  try {
    const Bytes fsize = client_.size(fsfile_);
    std::byte* local_win = window_->localData();
    for (const auto& [g, slot] : ownedSlots()) {
      if ((bitmap[static_cast<std::size_t>(g / 64)] & (1ULL << (g % 64))) ==
          0) {
        continue;
      }
      std::byte& dirty = local_win[flagsDisp(slot, kDirtyFlag)];
      std::byte& loaded = local_win[flagsDisp(slot, kLoadedFlag)];
      if (dirty != std::byte{0} || loaded != std::byte{0}) continue;
      const Offset base = map_.baseOf(g);
      const Bytes len = std::clamp<Bytes>(fsize - base, 0, cfg_.segment_size);
      if (len > 0) {
        preadDegraded(base, local_win + dataDisp(slot, 0), len);
      }
      loaded = kFlagSet;
    }
    // Integrity gate on the read path: every needed segment this rank owns
    // is re-verified against its digest ledger *before* any byte of it is
    // served to a reader — a corrupted window region is repaired from the
    // journal (or surfaces as an agreed IntegrityError), never propagated
    // into a user read buffer.
    if (integrity_on_) {
      for (const auto& [g, slot] : ownedSlots()) {
        if ((bitmap[static_cast<std::size_t>(g / 64)] & (1ULL << (g % 64))) !=
            0) {
          verifySlot(g, slot);
        }
      }
    }
  } catch (const std::exception& e) {
    load_err.capture(e);
  }
  comm_->barrier();
  collectiveAgreeOnError(load_err);
  std::byte* local = window_->localData();
  if (cfg_.node_aggregation) {
    nodeAggregatedGather(pending_reads_);
  } else if (!twoSidedExchange()) {
    gatherPending(pending_reads_);
  } else {
    // Two-sided reply exchange: ship requests to owners, owners answer from
    // their local windows.
    const int P = comm_->size();
    std::vector<std::vector<std::byte>> req_meta(static_cast<std::size_t>(P));
    for (const PendingRead& r : pending_reads_) {
      const BlockMeta m{r.off, r.len};
      const auto owner =
          static_cast<std::size_t>(curOf(ownerOf(map_.segmentOf(r.off))));
      const auto* raw = reinterpret_cast<const std::byte*>(&m);
      req_meta[owner].insert(req_meta[owner].end(), raw, raw + sizeof(m));
    }
    const auto exchangeBuffers =
        [&](const std::vector<std::vector<std::byte>>& per_dst,
            std::vector<Bytes>& rcounts, std::vector<Offset>& rdispls) {
          const auto sp = static_cast<std::size_t>(P);
          std::vector<Bytes> scnt(sp), szs(sp), szr(sp), c8(sp, 8);
          std::vector<Offset> sdsp(sp), d8(sp);
          for (std::size_t i = 0; i < sp; ++i) {
            szs[i] = static_cast<Bytes>(per_dst[i].size());
            d8[i] = static_cast<Offset>(i * 8);
          }
          comm_->alltoallv(szs.data(), c8, d8, szr.data(), c8, d8);
          Bytes stot = 0, rtot = 0;
          std::vector<std::byte> sendbuf;
          rcounts.assign(sp, 0);
          rdispls.assign(sp, 0);
          for (std::size_t i = 0; i < sp; ++i) {
            scnt[i] = szs[i];
            sdsp[i] = stot;
            stot += szs[i];
            rcounts[i] = szr[i];
            rdispls[i] = rtot;
            rtot += szr[i];
          }
          for (const auto& v : per_dst) {
            sendbuf.insert(sendbuf.end(), v.begin(), v.end());
          }
          std::vector<std::byte> recv(static_cast<std::size_t>(rtot));
          comm_->alltoallv(sendbuf.data(), scnt, sdsp, recv.data(), rcounts,
                           rdispls);
          return recv;
        };
    std::vector<Bytes> mcounts;
    std::vector<Offset> mdispls;
    const std::vector<std::byte> got_meta =
        exchangeBuffers(req_meta, mcounts, mdispls);
    // Answer each requester from the local window.
    std::vector<std::vector<std::byte>> replies(static_cast<std::size_t>(P));
    std::set<SegmentId> served_segs;
    for (int src = 0; src < P; ++src) {
      const auto s = static_cast<std::size_t>(src);
      const auto* blocks =
          reinterpret_cast<const BlockMeta*>(got_meta.data() + mdispls[s]);
      const std::size_t nb =
          static_cast<std::size_t>(mcounts[s]) / sizeof(BlockMeta);
      for (std::size_t i = 0; i < nb; ++i) {
        const SegmentId g = map_.segmentOf(blocks[i].off);
        const std::byte* from =
            local + dataDisp(slotOnOwner(g), map_.dispOf(blocks[i].off));
        replies[s].insert(replies[s].end(), from, from + blocks[i].len);
        served_segs.insert(g);
      }
    }
    if (check::Checker* ck = comm_->world().checker();
        ck != nullptr && !served_segs.empty()) {
      // Requesters routed these reads here because this rank owns them.
      comm_->proc().atomic([&] {
        for (const SegmentId g : served_segs) {
          ck->onSegmentTransfer(name_, g, orig_rank_,
                                "File::collectiveFetch(two-sided reply)");
        }
      });
    }
    std::vector<Bytes> rcounts;
    std::vector<Offset> rdispls;
    const std::vector<std::byte> payload =
        exchangeBuffers(replies, rcounts, rdispls);
    // Scatter: replies from each owner arrive in my request order.
    std::vector<Offset> cursor(rdispls.begin(), rdispls.end());
    for (const PendingRead& r : pending_reads_) {
      const auto owner =
          static_cast<std::size_t>(curOf(ownerOf(map_.segmentOf(r.off))));
      std::memcpy(r.dst, payload.data() + cursor[owner],
                  static_cast<std::size_t>(r.len));
      cursor[owner] += r.len;
    }
    comm_->chargeCopy(static_cast<Bytes>(payload.size()));
  }
  if (comm_->world().trace().enabled()) {
    sim::Proc& p = comm_->proc();
    Bytes n = 0;
    for (const PendingRead& r : pending_reads_) n += r.len;
    p.atomic([&] {
      comm_->world().trace().record(p.rank(), fetch_begin, p.now(),
                                    "tcio.fetch", n);
    });
  }
  pending_reads_.clear();
  pending_segment_ = -1;
}

// -- Collectives --------------------------------------------------------------

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
  if (cfg_.crash.enabled) {
    crashPoint(CrashPoint::kAtCollective);
    // Crash-tolerant ordering: the level-1 flush (journal + RMA/stage, all
    // local work with crash points inside) runs first, then the liveness
    // agreement detects any rank that died at or before this collective and
    // shrinks around it — only then is a plain collective safe to enter.
    mpi::CapturedError err;
    try {
      flushLevel1();
    } catch (const RankCrashedError&) {
      throw;
    } catch (const check::CheckFailure&) {
      throw;  // checker verdicts abort the job typed, never agreed-and-retyped
    } catch (const std::exception& e) {
      err.capture(e);
    }
    collectiveAgreeOnError(err);
    maybeFallBackToTwoSided();
    if (cfg_.node_aggregation) {
      nodeExchangeStagedWrites();
    } else if (twoSidedExchange()) {
      exchangeStagedWrites();
    }
    if (integrity_on_) {
      exchangeDigests();
      mpi::CapturedError ierr;
      scrubTick(ierr);
      collectiveAgreeOnError(ierr);
    }
    comm_->barrier();
    syncRecoveryStats();
    return;
  }
  maybeFallBackToTwoSided();
  if (cfg_.node_aggregation) {
    nodeExchangeStagedWrites();
  } else if (twoSidedExchange()) {
    exchangeStagedWrites();
  } else {
    // One-sided flush is local + RMA only: capture and agree so a faulted
    // rank cannot strand its peers in the barrier below.
    mpi::CapturedError err;
    try {
      flushLevel1();
    } catch (const check::CheckFailure&) {
      throw;  // checker verdicts abort the job typed, never agreed-and-retyped
    } catch (const std::exception& e) {
      err.capture(e);
    }
    collectiveAgreeOnError(err);
  }
  if (integrity_on_) {
    // Digests from this flush reach their owners, then the background
    // scrubber spends its per-collective budget re-verifying owned segments.
    exchangeDigests();
    mpi::CapturedError ierr;
    scrubTick(ierr);
    collectiveAgreeOnError(ierr);
  }
  comm_->barrier();  // tcio_flush is collective (paper §IV.B)
  syncRecoveryStats();
}

void File::fetch() {
  TCIO_CHECK_MSG(open_, "fetch on closed TCIO file");
  check::ScopedLabel phase(comm_->world().checker(), comm_->proc().rank(),
                           "File::fetch");
  if (cfg_.crash.enabled) {
    crashPoint(CrashPoint::kAtCollective);
    // collectiveFetch leads with its own liveness round; the fallback
    // allreduce must come after that detection, so it lives inside the
    // crash-aware fetch path only for the legacy ordering below.
    collectiveFetch();
    maybeFallBackToTwoSided();
    if (integrity_on_) {
      mpi::CapturedError ierr;
      scrubTick(ierr);
      collectiveAgreeOnError(ierr);
    }
    syncRecoveryStats();
    return;
  }
  maybeFallBackToTwoSided();
  collectiveFetch();
  if (integrity_on_) {
    mpi::CapturedError ierr;
    scrubTick(ierr);
    collectiveAgreeOnError(ierr);
  }
  syncRecoveryStats();
}

void File::exchangeStagedWrites() {
  flushLevel1();  // move any level-1 residue into the staging area
  if (fallback_two_sided_) ++stats_.degraded.fallback_exchanges;
  const int P = comm_->size();
  const auto sp = static_cast<std::size_t>(P);
  std::vector<std::vector<std::byte>> meta(sp), payload(sp);
  for (const auto& [off, bytes] : staged_) {
    const SegmentId g = map_.segmentOf(off);
    const auto owner = static_cast<std::size_t>(curOf(ownerOf(g)));
    BlockMeta m{off, static_cast<Bytes>(bytes.size())};
    if (integrity_on_) {
      m.crc = crc32({bytes.data(), bytes.size()});
      m.has_crc = 1;
      chargeChecksum(comm_->proc(), cfg_, m.len);
    }
    const auto* raw = reinterpret_cast<const std::byte*>(&m);
    meta[owner].insert(meta[owner].end(), raw, raw + sizeof(m));
    payload[owner].insert(payload[owner].end(), bytes.begin(), bytes.end());
  }
  auto exchange = [&](const std::vector<std::vector<std::byte>>& per_dst,
                      std::vector<Bytes>& rcounts,
                      std::vector<Offset>& rdispls) {
    std::vector<Bytes> scnt(sp), szs(sp), szr(sp), c8(sp, 8);
    std::vector<Offset> sdsp(sp), d8(sp);
    for (std::size_t i = 0; i < sp; ++i) {
      szs[i] = static_cast<Bytes>(per_dst[i].size());
      d8[i] = static_cast<Offset>(i * 8);
    }
    comm_->alltoallv(szs.data(), c8, d8, szr.data(), c8, d8);
    Bytes stot = 0, rtot = 0;
    std::vector<std::byte> sendbuf;
    rcounts.assign(sp, 0);
    rdispls.assign(sp, 0);
    for (std::size_t i = 0; i < sp; ++i) {
      scnt[i] = szs[i];
      sdsp[i] = stot;
      stot += szs[i];
      rcounts[i] = szr[i];
      rdispls[i] = rtot;
      rtot += szr[i];
    }
    for (const auto& v : per_dst) {
      sendbuf.insert(sendbuf.end(), v.begin(), v.end());
    }
    std::vector<std::byte> recv(static_cast<std::size_t>(rtot));
    comm_->alltoallv(sendbuf.data(), scnt, sdsp, recv.data(), rcounts,
                     rdispls);
    return recv;
  };
  std::vector<Bytes> mcnt, pcnt;
  std::vector<Offset> mdsp, pdsp;
  const auto got_meta = exchange(meta, mcnt, mdsp);
  const auto got_payload = exchange(payload, pcnt, pdsp);
  // Apply received blocks into the local window. Purely local work: capture
  // and agree (the segment-exchange agreement point) so a corrupt frame on
  // one rank surfaces on all of them instead of desynchronizing the job.
  mpi::CapturedError err;
  try {
    std::byte* local = window_->localData();
    std::set<SegmentId> applied_segs;
    for (int src = 0; src < P; ++src) {
      const auto s = static_cast<std::size_t>(src);
      const auto* blocks =
          reinterpret_cast<const BlockMeta*>(got_meta.data() + mdsp[s]);
      const std::size_t nb =
          static_cast<std::size_t>(mcnt[s]) / sizeof(BlockMeta);
      const std::byte* from = got_payload.data() + pdsp[s];
      for (std::size_t i = 0; i < nb; ++i) {
        const SegmentId g = map_.segmentOf(blocks[i].off);
        const std::int64_t slot = slotOnOwner(g);
        if (integrity_on_ && blocks[i].has_crc != 0) {
          // Verify the alltoallv hop. Count a mismatch and apply anyway:
          // the owner ledger (client-time digests, exchanged separately) is
          // the authoritative detect-and-repair point at the next pass.
          ++stats_.integrity.crc_checks;
          chargeChecksum(comm_->proc(), cfg_, blocks[i].len);
          if (crc32({from, static_cast<std::size_t>(blocks[i].len)}) !=
              blocks[i].crc) {
            ++stats_.integrity.crc_mismatches;
          }
        }
        std::memcpy(local + dataDisp(slot, map_.dispOf(blocks[i].off)), from,
                    static_cast<std::size_t>(blocks[i].len));
        from += blocks[i].len;
        local[flagsDisp(slot, kDirtyFlag)] = kFlagSet;
        applied_segs.insert(g);
      }
    }
    if (check::Checker* ck = comm_->world().checker();
        ck != nullptr && !applied_segs.empty()) {
      // Peers routed these blocks here because this rank owns the segments.
      comm_->proc().atomic([&] {
        for (const SegmentId g : applied_segs) {
          ck->onSegmentTransfer(name_, g, orig_rank_,
                                "File::exchangeStagedWrites");
          ck->noteDirty(name_, g);
        }
      });
    }
    comm_->chargeCopy(static_cast<Bytes>(got_payload.size()));
  } catch (const check::CheckFailure&) {
    throw;  // checker verdicts abort the job typed, never agreed-and-retyped
  } catch (const std::exception& e) {
    err.capture(e);
  }
  comm_->memory().release(staged_bytes_);
  staged_.clear();
  staged_bytes_ = 0;
  collectiveAgreeOnError(err);
}

void File::nodeExchangeStagedWrites() {
  flushLevel1();  // move any level-1 residue into the staging area
  ++stats_.node_exchanges;
  const int N = node_map_->numNodes();
  // Stage records addressed to the *node* hosting each block's owner:
  // [BlockMeta][payload] back to back.
  std::vector<std::vector<std::byte>> per_node(static_cast<std::size_t>(N));
  for (const auto& [off, bytes] : staged_) {
    const auto dn = static_cast<std::size_t>(
        node_map_->nodeOf(curOf(ownerOf(map_.segmentOf(off)))));
    BlockMeta m{off, static_cast<Bytes>(bytes.size())};
    if (integrity_on_) {
      m.crc = crc32({bytes.data(), bytes.size()});
      m.has_crc = 1;
      chargeChecksum(comm_->proc(), cfg_, m.len);
    }
    appendBytes(per_node[dn], &m, sizeof(m));
    appendBytes(per_node[dn], bytes.data(), bytes.size());
  }
  const std::int64_t puts_before = node_agg_->stats().internode_puts;
  const Bytes membus_before = node_agg_->stats().intranode_bytes;
  // Source-leader rewrite: merge adjacent same-segment extents contributed
  // by the node's ranks into single records. On interleaved patterns the
  // node's ranks own neighbouring stripes, so this collapses many tiny
  // per-rank extents into few large ones before they pay the NIC.
  const auto coalesce =
      [this](int, const std::vector<topo::NodeAggregator::RankBlob>& blobs) {
        struct Rec {
          Offset off = 0;
          Bytes len = 0;
          const std::byte* src = nullptr;
        };
        std::vector<Rec> recs;
        for (const auto& rb : blobs) {
          std::size_t pos = 0;
          while (pos < rb.data.size()) {
            BlockMeta m;
            TCIO_CHECK(pos + sizeof(m) <= rb.data.size());
            std::memcpy(&m, rb.data.data() + pos, sizeof(m));
            pos += sizeof(m);
            TCIO_CHECK(pos + static_cast<std::size_t>(m.len) <=
                       rb.data.size());
            if (integrity_on_ && m.has_crc != 0) {
              // Verify the rank -> source-leader hop before coalescing, so a
              // flip in one contribution cannot hide inside a merged run.
              ++stats_.integrity.crc_checks;
              chargeChecksum(comm_->proc(), cfg_, m.len);
              if (crc32({rb.data.data() + pos,
                         static_cast<std::size_t>(m.len)}) != m.crc) {
                ++stats_.integrity.crc_mismatches;
              }
            }
            recs.push_back({m.off, m.len, rb.data.data() + pos});
            pos += static_cast<std::size_t>(m.len);
          }
        }
        std::stable_sort(recs.begin(), recs.end(),
                         [](const Rec& a, const Rec& b) {
                           return a.off < b.off;
                         });
        std::vector<std::byte> out;
        out.reserve(recs.size() * sizeof(BlockMeta));
        std::size_t i = 0;
        while (i < recs.size()) {
          // A merged run must stay inside one segment: its owner and slot
          // are derived from the run's first offset at apply time.
          std::size_t j = i + 1;
          Bytes run = recs[i].len;
          while (j < recs.size() &&
                 recs[j].off == recs[j - 1].off + recs[j - 1].len &&
                 map_.segmentOf(recs[j].off) == map_.segmentOf(recs[i].off)) {
            run += recs[j].len;
            ++j;
          }
          BlockMeta m{recs[i].off, run};
          if (integrity_on_) {
            // Re-digest the merged run (chained CRC over its pieces) so the
            // leader -> destination hop is covered end to end.
            std::uint32_t c = 0;
            for (std::size_t k = i; k < j; ++k) {
              c = crc32({recs[k].src, static_cast<std::size_t>(recs[k].len)},
                        c);
            }
            m.crc = c;
            m.has_crc = 1;
            chargeChecksum(comm_->proc(), cfg_, run);
          }
          appendBytes(out, &m, sizeof(m));
          for (std::size_t k = i; k < j; ++k) {
            appendBytes(out, recs[k].src, static_cast<std::size_t>(recs[k].len));
          }
          i = j;
        }
        return out;
      };
  const auto frames = node_agg_->exchange(per_node, coalesce);
  // Destination leaders apply the received blocks into node-local owners'
  // windows — membus epochs, one per owner. Leader-local work: capture and
  // agree after the barrier below so a leader-side fault becomes the same
  // typed error on every rank instead of a wedged job.
  mpi::CapturedError err;
  try {
    if (node_agg_->isActiveLeader()) {
      std::map<Rank, std::vector<mpi::Window::PutBlock>> by_owner;
      std::map<Rank, std::set<std::int64_t>> flagged;
      std::set<SegmentId> applied_segs;
      Bytes applied = 0;
      for (const auto& from_node : frames) {
        for (const auto& rb : from_node) {
          std::size_t pos = 0;
          while (pos < rb.data.size()) {
            BlockMeta m;
            TCIO_CHECK(pos + sizeof(m) <= rb.data.size());
            std::memcpy(&m, rb.data.data() + pos, sizeof(m));
            pos += sizeof(m);
            TCIO_CHECK(pos + static_cast<std::size_t>(m.len) <=
                       rb.data.size());
            const SegmentId g = map_.segmentOf(m.off);
            const Rank owner = ownerOf(g);  // window target: original rank
            const std::int64_t slot = slotOnOwner(g);
            if (integrity_on_ && m.has_crc != 0) {
              // Verify the inter-node NIC hop at the destination leader;
              // count a mismatch and apply anyway (the owner ledger repairs
              // at the next verification pass).
              ++stats_.integrity.crc_checks;
              chargeChecksum(comm_->proc(), cfg_, m.len);
              if (crc32({rb.data.data() + pos,
                         static_cast<std::size_t>(m.len)}) != m.crc) {
                ++stats_.integrity.crc_mismatches;
              }
            }
            auto& blocks = by_owner[owner];
            if (flagged[owner].insert(slot).second) {
              blocks.push_back({flagsDisp(slot, kDirtyFlag), &kFlagSet, 1});
            }
            blocks.push_back(
                {dataDisp(slot, map_.dispOf(m.off)), rb.data.data() + pos,
                 m.len});
            pos += static_cast<std::size_t>(m.len);
            applied += m.len;
            applied_segs.insert(g);
          }
        }
      }
      if (check::Checker* ck = comm_->world().checker();
          ck != nullptr && !applied_segs.empty()) {
        comm_->proc().atomic([&] {
          for (const SegmentId g : applied_segs) {
            ck->onSegmentTransfer(name_, g, ownerOf(g),
                                  "File::nodeExchangeStagedWrites");
            ck->noteDirty(name_, g);
          }
        });
      }
      for (auto& [owner, blocks] : by_owner) {
        window_->lock(mpi::LockType::kShared, owner);
        window_->putIndexed(owner, blocks);
        window_->unlock(owner);
      }
      stats_.intranode_bytes += applied;
    }
  } catch (const check::CheckFailure&) {
    throw;  // checker verdicts abort the job typed, never agreed-and-retyped
  } catch (const std::exception& e) {
    err.capture(e);
  }
  // The apply epochs above must land before any rank inspects or drains its
  // window (owner loads in collectiveFetch, drainToFs at close).
  comm_->barrier();
  stats_.internode_messages_saved -=
      node_agg_->stats().internode_puts - puts_before;
  stats_.intranode_bytes +=
      node_agg_->stats().intranode_bytes - membus_before;
  comm_->memory().release(staged_bytes_);
  staged_.clear();
  staged_bytes_ = 0;
  collectiveAgreeOnError(err);
}

void File::nodeAggregatedGather(std::vector<PendingRead>& reads) {
  const int N = node_map_->numNodes();
  const auto sn = static_cast<std::size_t>(N);
  const Bytes membus_before = node_agg_->stats().intranode_bytes;
  // Requests travel to the node hosting each block's owner. Replies come
  // back in request order, so remember the order per serving node.
  std::vector<std::vector<std::byte>> req(sn);
  std::vector<std::vector<PendingRead*>> order(sn);
  for (PendingRead& r : reads) {
    const auto dn = static_cast<std::size_t>(
        node_map_->nodeOf(curOf(ownerOf(map_.segmentOf(r.off)))));
    const BlockMeta m{r.off, r.len};
    appendBytes(req[dn], &m, sizeof(m));
    order[dn].push_back(&r);
  }
  const auto requests = node_agg_->exchange(req);
  // Serving leaders answer from node-local owners' windows. Reply streams
  // are framed per requester: [i32 requester][u64 len][bytes].
  std::vector<std::vector<std::byte>> replies(sn);
  if (node_agg_->isActiveLeader()) {
    // Pass 1: lay out reply streams (headers + payload space) so the get
    // blocks can point into stable storage.
    struct Slice {
      std::size_t node = 0;
      std::size_t at = 0;  // payload start within replies[node]
    };
    std::vector<std::pair<BlockMeta, Slice>> wanted;
    for (std::size_t s = 0; s < sn; ++s) {
      for (const auto& rb : requests[s]) {
        const std::size_t nb = rb.data.size() / sizeof(BlockMeta);
        TCIO_CHECK(rb.data.size() == nb * sizeof(BlockMeta));
        Bytes total = 0;
        std::vector<BlockMeta> metas(nb);
        for (std::size_t i = 0; i < nb; ++i) {
          std::memcpy(&metas[i], rb.data.data() + i * sizeof(BlockMeta),
                      sizeof(BlockMeta));
          total += metas[i].len;
        }
        auto& stream = replies[s];
        const std::int32_t requester = rb.src;
        const auto len64 = static_cast<std::uint64_t>(total);
        appendBytes(stream, &requester, sizeof(requester));
        appendBytes(stream, &len64, sizeof(len64));
        std::size_t at = stream.size();
        stream.resize(stream.size() + static_cast<std::size_t>(total));
        for (const BlockMeta& m : metas) {
          wanted.push_back({m, {s, at}});
          at += static_cast<std::size_t>(m.len);
        }
      }
    }
    // Pass 2: one shared-lock membus epoch per node-local owner.
    std::map<Rank, std::vector<mpi::Window::GetBlock>> by_owner;
    std::set<SegmentId> served_segs;
    Bytes served = 0;
    for (const auto& [m, slice] : wanted) {
      const SegmentId g = map_.segmentOf(m.off);
      by_owner[ownerOf(g)].push_back(
          {dataDisp(slotOnOwner(g), map_.dispOf(m.off)),
           replies[slice.node].data() + slice.at, m.len});
      served += m.len;
      served_segs.insert(g);
    }
    if (check::Checker* ck = comm_->world().checker();
        ck != nullptr && !served_segs.empty()) {
      comm_->proc().atomic([&] {
        for (const SegmentId g : served_segs) {
          ck->onSegmentTransfer(name_, g, ownerOf(g),
                                "File::nodeAggregatedGather");
        }
      });
    }
    for (auto& [owner, blocks] : by_owner) {
      window_->lock(mpi::LockType::kShared, owner);
      window_->getIndexed(owner, blocks);
      window_->unlock(owner);
    }
    stats_.intranode_bytes += served;
  }
  const auto answers = node_agg_->exchange(replies);
  // Leaders demux replies per requester; each fragment is wrapped
  // [i32 serving node][u64 len][bytes] so the requester can route it to its
  // per-node request list.
  const std::vector<Rank>& members =
      node_map_->ranksOnNode(node_map_->myNode());
  std::vector<std::vector<std::byte>> per_rank(members.size());
  if (node_agg_->isActiveLeader()) {
    std::map<Rank, std::size_t> node_rank_of;
    for (std::size_t q = 0; q < members.size(); ++q) {
      node_rank_of[members[q]] = q;
    }
    for (std::size_t s = 0; s < sn; ++s) {
      for (const auto& rb : answers[s]) {
        std::size_t pos = 0;
        while (pos < rb.data.size()) {
          std::int32_t requester = 0;
          std::uint64_t len = 0;
          TCIO_CHECK(pos + sizeof(requester) + sizeof(len) <= rb.data.size());
          std::memcpy(&requester, rb.data.data() + pos, sizeof(requester));
          pos += sizeof(requester);
          std::memcpy(&len, rb.data.data() + pos, sizeof(len));
          pos += sizeof(len);
          TCIO_CHECK(pos + len <= rb.data.size());
          auto& blob = per_rank[node_rank_of.at(requester)];
          const auto sn32 = static_cast<std::int32_t>(s);
          appendBytes(blob, &sn32, sizeof(sn32));
          appendBytes(blob, &len, sizeof(len));
          appendBytes(blob, rb.data.data() + pos, static_cast<std::size_t>(len));
          pos += static_cast<std::size_t>(len);
        }
      }
    }
  }
  const std::vector<std::byte> mine =
      node_agg_->scatterToRanks(std::move(per_rank));
  // Route each serving node's answer bytes to the recorded reads in order.
  std::size_t pos = 0;
  std::vector<std::size_t> next(sn, 0);
  while (pos < mine.size()) {
    std::int32_t serving = 0;
    std::uint64_t len = 0;
    TCIO_CHECK(pos + sizeof(serving) + sizeof(len) <= mine.size());
    std::memcpy(&serving, mine.data() + pos, sizeof(serving));
    pos += sizeof(serving);
    std::memcpy(&len, mine.data() + pos, sizeof(len));
    pos += sizeof(len);
    TCIO_CHECK(pos + len <= mine.size());
    const auto s = static_cast<std::size_t>(serving);
    std::uint64_t used = 0;
    while (used < len) {
      TCIO_CHECK_MSG(next[s] < order[s].size(),
                     "node-aggregated reply exceeds recorded reads");
      PendingRead* r = order[s][next[s]++];
      TCIO_CHECK(used + static_cast<std::uint64_t>(r->len) <= len);
      std::memcpy(r->dst, mine.data() + pos + used,
                  static_cast<std::size_t>(r->len));
      used += static_cast<std::uint64_t>(r->len);
    }
    pos += static_cast<std::size_t>(len);
    comm_->chargeCopy(static_cast<Bytes>(len));
  }
  for (std::size_t s = 0; s < sn; ++s) {
    TCIO_CHECK_MSG(next[s] == order[s].size(),
                   "node-aggregated gather left reads unanswered");
  }
  stats_.intranode_bytes +=
      node_agg_->stats().intranode_bytes - membus_before;
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
  const auto accumulate = [&](std::int32_t code, const std::string& what) {
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
    try {
      flushLevel1();
    } catch (const RankCrashedError&) {
      throw;
    } catch (const check::CheckFailure&) {
      throw;  // checker verdicts abort the job typed, never agreed-and-retyped
    } catch (const std::exception& e) {
      err.capture(e);
    }
    auto [code, what] = agreeAndRecover(err);
    accumulate(code, what);
    err = {};
  }
  maybeFallBackToTwoSided();
  // Every agreement point below throws the *same* typed error on *all*
  // ranks, so catching locally and continuing the close sequence keeps the
  // ranks in lockstep.
  if ((flags_ & fs::kRead) != 0 && agreed_code == mpi::CapturedError::kNone) {
    try {
      collectiveFetch();  // resolve any pending lazy reads
    } catch (const RankCrashedError&) {
      throw;
    } catch (const check::CheckFailure&) {
      throw;  // checker verdicts abort the job typed, never agreed-and-retyped
    } catch (const std::exception& e) {
      err.capture(e);
    }
  }
  if (!err.set() && agreed_code == mpi::CapturedError::kNone) {
    try {
      if (cfg_.node_aggregation) {
        nodeExchangeStagedWrites();
      } else if (twoSidedExchange()) {
        exchangeStagedWrites();
      } else if (!cfg_.crash.enabled) {
        flushLevel1();  // local + RMA only; agreement happens below
      }
      // (crash mode already flushed the residue in the detection round)
    } catch (const RankCrashedError&) {
      throw;
    } catch (const check::CheckFailure&) {
      throw;  // checker verdicts abort the job typed, never agreed-and-retyped
    } catch (const std::exception& e) {
      err.capture(e);
    }
  }
  // The final exchange's digests reach their owners before the close-time
  // scrub below (aligned: agreed_code is collectively agreed, so every live
  // rank takes the same branch).
  if (integrity_on_ && agreed_code == mpi::CapturedError::kNone) {
    exchangeDigests();
  }
  // Aggregate file size across ranks (pre-existing contents included).
  // Journal replays above fold a dead rank's extents into the survivors'
  // local_max_written_, so its tail still counts toward the agreed size.
  std::int64_t fsize = std::max(local_max_written_, client_.size(fsfile_));
  comm_->allreduce(&fsize, 1, mpi::ReduceOp::kMax);
  comm_->barrier();  // paper: synchronize before draining level-2
  final_fsize_ = fsize;
  // Drain under collective error agreement: a rank whose file-system writes
  // fail must not leave its peers blocked in the closing collectives, and a
  // rank whose own writes succeeded must still learn the file is damaged.
  // The drain is purely local, so skipping it on an already-failed rank (or
  // failing on some ranks only) cannot desynchronize the collectives.
  if (!err.set() && agreed_code == mpi::CapturedError::kNone &&
      (flags_ & fs::kWrite) != 0) {
    try {
      // Close-time scrub: every owned, digested segment is verified once
      // more while the journal still exists to repair it — the drain below
      // is the last hop before the bytes become the file's truth.
      if (integrity_on_) {
        ++stats_.integrity.scrub_passes;
        for (const auto& [g, slot] : ownedSlots()) {
          if (ledger_.find(g) != ledger_.end()) {
            verifySlot(g, slot);
            ++stats_.integrity.segments_scrubbed;
          }
        }
      }
      drainToFs(fsize);
    } catch (const RankCrashedError&) {
      throw;
    } catch (const check::CheckFailure&) {
      throw;  // checker verdicts abort the job typed, never agreed-and-retyped
    } catch (const std::exception& e) {
      err.capture(e);
    }
  }
  drained_ = true;
  if (cfg_.crash.enabled) {
    // Post-drain agreement: a rank that died mid-drain (kMidClose) left some
    // of its dirty segments unwritten. agreeAndRecover loops until the dead
    // set stops growing; survivors reconstruct the orphaned segments from
    // the journals and write them directly to the file.
    auto [code, what] = agreeAndRecover(err);
    accumulate(code, what);
    err = {};
    // Commit: every journaled byte is durably in the file proper. On an
    // agreed failure the journal is left intact — the bytes it holds are
    // exactly what the damaged file may be missing.
    if (journal_ && agreed_code == mpi::CapturedError::kNone) {
      try {
        journal_->commit();
      } catch (const std::exception& e) {
        err.capture(e);
      }
    }
    // The commit is an MDS op pair and can fault; one more aligned round.
    auto [code2, what2] = agreeAndRecover(err);
    accumulate(code2, what2);
    err = {};
    journal_.reset();
  } else if (journal_ != nullptr) {
    // Integrity-only journaling: after a clean drain every journaled byte is
    // durably in the file proper, so the log is truncated. On a failure path
    // the journal stays — its frames are the only clean copy of the bytes
    // the damaged file may be missing.
    if (!err.set() && agreed_code == mpi::CapturedError::kNone) {
      try {
        journal_->commit();
      } catch (const std::exception& e) {
        err.capture(e);
      }
    }
    journal_.reset();
  }
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
    auto [code, what] = agreeAndRecover(err);
    accumulate(code, what);
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
  const std::byte* local = window_->localData();
  for (const auto& [g, slot] : ownedSlots()) {
    if (local[flagsDisp(slot, kDirtyFlag)] == std::byte{0}) continue;
    const Offset base = map_.baseOf(g);
    if (base >= file_size) continue;
    crashPoint(CrashPoint::kMidClose);
    const Bytes len = std::min(cfg_.segment_size, file_size - base);
    pwriteDegraded(base, local + dataDisp(slot, 0), len);
    if (ck != nullptr) {
      comm_->proc().atomic(
          [&] { ck->onDrain(name_, g, orig_rank_, "File::drainToFs"); });
    }
  }
}

// -- Fault recovery -----------------------------------------------------------

void File::buildNodeAggregation() {
  // Header slack on top of one full segment per node-local rank per round.
  constexpr Bytes kSlotSlack = 4096;
  node_map_ = std::make_unique<topo::NodeMap>(*comm_);
  node_agg_ = std::make_unique<topo::NodeAggregator>(
      *node_map_,
      static_cast<Bytes>(node_map_->maxNodeSize()) * cfg_.segment_size +
          kSlotSlack);
}

void File::collectiveAgreeOnError(const mpi::CapturedError& err) {
  auto [code, what] = agreeAndRecover(err);
  if (code != mpi::CapturedError::kNone) mpi::throwTyped(code, what);
}

// -- Fail-stop crash tolerance ------------------------------------------------

Rank File::ownerOf(SegmentId g) const {
  const auto it = orphans_.find(g);
  return it == orphans_.end() ? map_.rankOf(g) : it->second.owner;
}

std::int64_t File::slotOnOwner(SegmentId g) const {
  const auto it = orphans_.find(g);
  return it == orphans_.end() ? map_.slotOf(g) : it->second.slot;
}

Rank File::curOf(Rank orig) const {
  if (cur_of_orig_.empty()) return orig;
  const Rank cur = cur_of_orig_[static_cast<std::size_t>(orig)];
  TCIO_CHECK_MSG(cur >= 0, "routing data to a rank agreed dead");
  return cur;
}

std::vector<std::pair<SegmentId, std::int64_t>> File::ownedSlots() const {
  std::vector<std::pair<SegmentId, std::int64_t>> out;
  out.reserve(static_cast<std::size_t>(cfg_.segments_per_rank) +
              orphans_.size());
  for (std::int64_t slot = 0; slot < cfg_.segments_per_rank; ++slot) {
    out.emplace_back(map_.segmentFor(orig_rank_, slot), slot);
  }
  for (const auto& [g, t] : orphans_) {
    if (t.owner == orig_rank_) out.emplace_back(g, t.slot);
  }
  return out;
}

void File::growTakeoverCapacity(std::int64_t new_cap) {
  TCIO_CHECK(new_cap > slot_cap_);
  const Bytes old_flags = flags_region_;
  const Bytes new_flags = new_cap * kFlagBytes;
  window_->resizeLocal(new_flags + new_cap * cfg_.segment_size);
  // Relocate the data slots to their new displacements, high to low: slot
  // s's new start (new_flags + s*S) is strictly above its old start
  // (old_flags + s*S) and strictly below slot s+1's old start once s+1 has
  // already moved, so the moves never clobber unmoved data. Flag bytes stay
  // put — flagsDisp is capacity-independent — and the region the growth
  // opened between the old and new flag boundaries is cleared (the new
  // slots' flags must read as clean/non-resident).
  comm_->proc().atomic([&] {
    std::byte* mem = window_->localData();
    for (std::int64_t s = slot_cap_ - 1; s >= 0; --s) {
      std::memmove(mem + new_flags + s * cfg_.segment_size,
                   mem + old_flags + s * cfg_.segment_size,
                   static_cast<std::size_t>(cfg_.segment_size));
    }
    std::memset(mem + old_flags, 0,
                static_cast<std::size_t>(new_flags - old_flags));
  });
  comm_->chargeCopy(slot_cap_ * cfg_.segment_size);  // the relocation pass
  slot_cap_ = new_cap;
  flags_region_ = new_flags;
  ++stats_.degraded.window_remaps;
}

void File::die(const char* where) {
  // Fail-stop: this rank is gone. Closing the handle here keeps the
  // destructor from attempting the collective close sequence mid-unwind;
  // everything else (window memory, journal handle, staged bytes) dies with
  // the process, exactly like a real crash.
  open_ = false;
  throw RankCrashedError("rank " + std::to_string(orig_rank_) +
                             " fail-stop crash (" + where + ")",
                         orig_rank_);
}

void File::crashPoint(CrashPoint point) {
  if (crash_plan_ == nullptr || !crash_plan_->fires(point)) return;
  switch (point) {
    case CrashPoint::kAtCollective: die("at collective entry");
    case CrashPoint::kMidRma: die("between journal append and RMA epoch");
    case CrashPoint::kMidJournal: die("mid journal append");
    case CrashPoint::kMidClose: die("mid close drain");
    case CrashPoint::kMidRecovery: die("mid recovery replay");
  }
  die("unknown crash point");
}

std::pair<std::int32_t, std::string> File::agreeAndRecover(
    mpi::CapturedError err) {
  if (!cfg_.crash.enabled) {
    mpi::agreeOnError(*comm_, err);  // throws on any agreed error
    return {mpi::CapturedError::kNone, std::string()};
  }
  std::int32_t code = mpi::CapturedError::kNone;
  std::string what;
  // Epochs loop until the dead set stops growing: recovering from one batch
  // of deaths (journal reads, file writes) can itself fail, and the verdict
  // for that failure must again be collective.
  for (;;) {
    const mpi::LivenessOutcome out =
        mpi::agreeWithLiveness(*comm_, err, epoch_++, cfg_.crash.liveness_window,
                               kLivenessPoll);
    if (out.self_dead) {
      // Peers unanimously missed this rank inside the liveness window and
      // have already agreed it dead; rejoining would desynchronize them.
      open_ = false;
      throw RankCrashedError(
          "rank " + std::to_string(orig_rank_) +
              " self-fenced: declared dead by liveness agreement",
          orig_rank_);
    }
    if (out.code != mpi::CapturedError::kNone &&
        (code == mpi::CapturedError::kNone || out.code > code)) {
      code = out.code;
      what = out.what;
    }
    if (out.dead.empty()) return {code, what};
    err = {};
    try {
      handleDeaths(out.dead);
    } catch (const RankCrashedError&) {
      throw;
    } catch (const check::CheckFailure&) {
      throw;  // checker verdicts abort the job typed, never agreed-and-retyped
    } catch (const std::exception& e) {
      err.capture(e);
    }
  }
}

void File::handleDeaths(const std::vector<Rank>& dead_cur) {
  // 1) Translate the agreed dead set (ranks of the current communicator) to
  //    original identities and record the deaths.
  std::vector<Rank> dead_orig;
  dead_orig.reserve(dead_cur.size());
  for (const Rank r : dead_cur) {
    dead_orig.push_back(orig_of_cur_[static_cast<std::size_t>(r)]);
  }
  std::sort(dead_orig.begin(), dead_orig.end());
  for (const Rank d : dead_orig) dead_[static_cast<std::size_t>(d)] = true;
  stats_.degraded.ranks_crashed +=
      static_cast<std::int64_t>(dead_orig.size());
  check::Checker* ck = comm_->world().checker();
  if (ck != nullptr) {
    comm_->proc().atomic([&] {
      for (const Rank d : dead_orig) ck->noteDeath(name_, d);
    });
  }
  // 2) Shrink: the survivors (every live rank reaches this point with the
  //    same dead set) move to a fresh communicator on a pre-reserved
  //    context. The level-2 window stays on the original communicator —
  //    passive-target RMA needs no progress from dead ranks.
  TCIO_CHECK_MSG(shrinks_ < kMaxShrinks,
                 "crash shrink budget exhausted (more shrink events than "
                 "reserved communicator contexts)");
  std::vector<Rank> surv_cur;
  for (Rank r = 0; r < comm_->size(); ++r) {
    if (std::find(dead_cur.begin(), dead_cur.end(), r) == dead_cur.end()) {
      surv_cur.push_back(r);
    }
  }
  auto next = std::make_unique<mpi::Comm>(
      comm_->shrink(surv_cur, shrink_context_base_ + shrinks_++));
  std::vector<Rank> new_orig_of_cur;
  new_orig_of_cur.reserve(surv_cur.size());
  for (const Rank r : surv_cur) {
    new_orig_of_cur.push_back(orig_of_cur_[static_cast<std::size_t>(r)]);
  }
  orig_of_cur_ = std::move(new_orig_of_cur);
  cur_of_orig_.assign(static_cast<std::size_t>(orig_size_), -1);
  for (std::size_t i = 0; i < orig_of_cur_.size(); ++i) {
    cur_of_orig_[static_cast<std::size_t>(orig_of_cur_[i])] =
        static_cast<Rank>(i);
  }
  comm_ = next.get();
  shrunk_comms_.push_back(std::move(next));
  // Renew the shrink budget from the survivor set: once the reserved block
  // of contexts is spent, rank 0 of the shrunk communicator reserves a fresh
  // block and broadcasts its base, so crash tolerance survives arbitrarily
  // many sequential shrink events — not just the first kMaxShrinks.
  if (shrinks_ == kMaxShrinks) {
    int base = 0;
    if (comm_->rank() == 0) base = comm_->reserveContexts(kMaxShrinks);
    comm_->bcast(&base, sizeof(base), 0);
    shrink_context_base_ = base;
    shrinks_ = 0;
  }
  // 3) Deterministic takeover: the dead ranks' native segments — plus any
  //    orphans they had previously adopted — are reassigned round-robin over
  //    the live original ranks, each into the new owner's next spare window
  //    slot. Every survivor computes the identical assignment.
  std::vector<Rank> live;
  for (Rank r = 0; r < static_cast<Rank>(orig_size_); ++r) {
    if (!dead_[static_cast<std::size_t>(r)]) live.push_back(r);
  }
  TCIO_CHECK_MSG(!live.empty(), "every rank of the TCIO job crashed");
  std::vector<SegmentId> orphan_segs;
  for (const Rank d : dead_orig) {
    for (std::int64_t slot = 0; slot < cfg_.segments_per_rank; ++slot) {
      orphan_segs.push_back(map_.segmentFor(d, slot));
    }
    for (const auto& [g, t] : orphans_) {
      if (t.owner == d) orphan_segs.push_back(g);  // transitive reassignment
    }
  }
  // Capacity pre-pass: simulate the round-robin assignment this batch is
  // about to make. When any survivor's spare slots would run out, every
  // survivor grows its window to the doubled capacity that fits — a
  // collective window-remap round computed from agreed state, so no rank
  // ever addresses a peer's old layout afterwards. Spare capacity is thus
  // elastic: crash tolerance survives arbitrarily many deaths, not just the
  // statically doubled slot budget.
  {
    std::vector<std::int64_t> spare = next_spare_;
    std::int64_t rr = takeover_rr_;
    std::int64_t needed = slot_cap_;
    for (std::size_t i = 0; i < orphan_segs.size(); ++i) {
      const Rank owner = live[static_cast<std::size_t>(
          rr++ % static_cast<std::int64_t>(live.size()))];
      needed = std::max(needed, ++spare[static_cast<std::size_t>(owner)]);
    }
    if (needed > slot_cap_) {
      std::int64_t cap = slot_cap_;
      while (cap < needed) cap *= 2;
      growTakeoverCapacity(cap);
    }
  }
  std::vector<std::pair<SegmentId, std::int64_t>> mine;
  for (const SegmentId g : orphan_segs) {
    const Rank owner =
        live[static_cast<std::size_t>(takeover_rr_++ %
                                      static_cast<std::int64_t>(live.size()))];
    const std::int64_t slot = next_spare_[static_cast<std::size_t>(owner)]++;
    TCIO_CHECK_MSG(slot < slotCount(),
                   "takeover slot past grown capacity (pre-pass bug)");
    orphans_[g] = {owner, slot};
    if (owner == orig_rank_) mine.emplace_back(g, slot);
  }
  if (ck != nullptr) {
    comm_->proc().atomic([&] {
      for (const SegmentId g : orphan_segs) {
        ck->noteRemap(name_, g, orphans_[g].owner);
      }
    });
  }
  stats_.degraded.segments_taken_over +=
      static_cast<std::int64_t>(mine.size());
  // 4) Node aggregation is rebuilt over the shrunk communicator; a dead
  //    leader's node promotes its next rank automatically (NodeMap's leader
  //    is the node's lowest surviving rank).
  if (cfg_.node_aggregation) {
    node_agg_->close();
    node_agg_.reset();
    buildNodeAggregation();
  }
  // 5) Replay: the new owner reconstructs each adopted segment from the
  //    journals. A dead rank's window memory is *never* read — a real
  //    crashed process takes its memory with it; the journals are the only
  //    durable copy of bytes that were still buffered.
  if (!mine.empty()) replayOrphans(mine);
}

void File::replayOrphans(
    const std::vector<std::pair<SegmentId, std::int64_t>>& mine) {
  check::Checker* ck = comm_->world().checker();
  if (journal_ == nullptr) {
    // Journaling off: whatever the dead ranks had buffered for these
    // segments is gone. Reported, never silent.
    stats_.degraded.unjournaled_segments_lost +=
        static_cast<std::int64_t>(mine.size());
    if (ck != nullptr) {
      comm_->proc().atomic([&] {
        for (const auto& [g, slot] : mine) ck->noteSegmentLost(name_, g);
      });
    }
    return;
  }
  // Any original rank may have contributed extents to an orphaned segment
  // (writers journal before their one-sided put lands in the dead owner's
  // window), so recovery scans every rank's journal — costed reads.
  std::vector<Journal::Parsed> logs;
  logs.reserve(static_cast<std::size_t>(orig_size_));
  for (Rank r = 0; r < static_cast<Rank>(orig_size_); ++r) {
    logs.push_back(Journal::readAndParse(client_, journalPath(name_, r)));
    stats_.degraded.journal_torn_records += logs.back().torn_records;
    // A committed record whose body failed its frame CRC (silent corruption
    // on the journal device) was dropped by the parser: the write it held is
    // lost to replay exactly as if it had never been journaled. Reported,
    // never silently re-applied.
    stats_.degraded.unjournaled_segments_lost += logs.back().corrupt_records;
  }
  std::byte* local = drained_ ? nullptr : window_->localData();
  std::vector<std::byte> scratch;
  for (const auto& [g, slot] : mine) {
    // Cascade point: an adopter can die while replaying the very segments
    // it just adopted. Recovery stays purely rank-local here (the shrink /
    // context-renewal / node-agg collectives all completed above), so the
    // survivors' next liveness epoch simply agrees on this death too and
    // reassigns the orphans transitively — replay re-sources from the
    // ORIGINAL ranks' journals, so a half-replayed window dies harmlessly
    // with its adopter and the re-replay is idempotent.
    crashPoint(CrashPoint::kMidRecovery);
    if (drained_) {
      scratch.assign(static_cast<std::size_t>(cfg_.segment_size),
                     std::byte{0});
    }
    bool any = false;
    for (const Journal::Parsed& log : logs) {
      for (const Journal::Record& rec : log.records) {
        if (rec.seg != g) continue;
        std::byte* dst = drained_ ? scratch.data() + rec.disp
                                  : local + dataDisp(slot, rec.disp);
        std::memcpy(dst, rec.payload.data(), rec.payload.size());
        if (integrity_on_ && !drained_) {
          // The adopted segment joins this rank's checksum domain: the dead
          // owner's ledger died with it, so rebuild digests from the clean
          // journal payloads just replayed.
          ledger_[g].insert({rec.disp, static_cast<Bytes>(rec.payload.size()),
                             0, 1, crc32(rec.payload)});
        }
        any = true;
        ++stats_.degraded.journal_records_replayed;
        stats_.degraded.journal_bytes_replayed +=
            static_cast<Bytes>(rec.payload.size());
        local_max_written_ = std::max(
            local_max_written_,
            map_.baseOf(g) + rec.disp +
                static_cast<Bytes>(rec.payload.size()));
      }
    }
    if (!any) {
      // Nothing in any journal for this segment (clean, or a torn tail
      // dropped every record): its buffered bytes, if any, are gone.
      if (ck != nullptr) {
        comm_->proc().atomic([&] { ck->noteSegmentLost(name_, g); });
      }
      continue;
    }
    if (drained_) {
      // The drain already ran: write the reconstructed segment straight to
      // the file (whole clamped segment — identical to what the healthy
      // drain of a dirty slot would have written).
      const Offset base = map_.baseOf(g);
      if (base >= static_cast<Offset>(final_fsize_)) continue;
      const Bytes len = std::min(cfg_.segment_size, final_fsize_ - base);
      pwriteDegraded(base, scratch.data(), len);
      if (ck != nullptr) {
        comm_->proc().atomic(
            [&] { ck->onDrain(name_, g, orig_rank_, "File::replayOrphans"); });
      }
    } else {
      local[flagsDisp(slot, kDirtyFlag)] = kFlagSet;
      if (ck != nullptr) {
        comm_->proc().atomic([&] {
          ck->onSegmentTransfer(name_, g, orig_rank_, "File::replayOrphans");
          ck->noteDirty(name_, g);
        });
      }
    }
  }
}

// -- End-to-end data integrity (DESIGN.md §11) --------------------------------

void File::digestLevel1(SegmentId seg, const std::vector<Extent>& extents) {
  // One DigestRec per *run*, not per extent (extendRun): fine-grained
  // interleaved patterns (Fig. 5) would otherwise ship a 32-byte record for
  // every 4-byte element — more digest than data on the NIC.
  Bytes total = 0;
  DigestRun run;
  bool open = false;
  const auto ship = [&] {
    pending_digests_.push_back({seg, run.disp,
                                static_cast<std::uint32_t>(run.len),
                                static_cast<std::uint32_t>(run.stride),
                                static_cast<std::uint32_t>(run.count),
                                run.crc});
  };
  for (const Extent& e : extents) {
    const std::span<const std::byte> bytes{
        level1_.data() + e.begin, static_cast<std::size_t>(e.size())};
    total += e.size();
    if (open && extendRun(run, e.begin, e.size())) {
      run.crc = crc32(bytes, run.crc);
      continue;
    }
    if (open) ship();
    run = {e.begin, e.size(), 0, 1, crc32(bytes)};
    open = true;
  }
  if (open) ship();
  chargeChecksum(comm_->proc(), cfg_, total);
}

void File::exchangeDigests() {
  if (!integrity_on_) return;
  if (cfg_.crash.enabled) {
    // Crash mode ships every rank's pending digests to every rank; each
    // keeps the records for segments it owns. The broadcast survives crash
    // takeovers, where ownership just changed under the writers' feet —
    // whoever ends up owning a segment has its records.
    static const std::byte dummy{};
    const void* mine = pending_digests_.empty()
                           ? static_cast<const void*>(&dummy)
                           : static_cast<const void*>(pending_digests_.data());
    std::vector<std::vector<std::byte>> all;
    comm_->allgatherv(
        mine,
        static_cast<Bytes>(pending_digests_.size() * sizeof(DigestRec)), all);
    pending_digests_.clear();
    for (const auto& blob : all) {
      const auto* recs = reinterpret_cast<const DigestRec*>(blob.data());
      const std::size_t n = blob.size() / sizeof(DigestRec);
      for (std::size_t i = 0; i < n; ++i) {
        if (ownerOf(recs[i].seg) == orig_rank_) {
          ledger_[recs[i].seg].insert(recs[i].run());
        }
      }
    }
    return;
  }
  // Static ownership: route every record straight to its segment's owner.
  // Fine-grained workloads produce one record per tiny strided extent, so a
  // broadcast would put P copies of an already metadata-heavy stream on the
  // NIC — the routed exchange is what keeps the integrity tax inside the
  // bench_ablation_integrity budget.
  const int P = comm_->size();
  std::vector<Bytes> sendcounts(static_cast<std::size_t>(P), 0);
  for (const DigestRec& r : pending_digests_) {
    sendcounts[static_cast<std::size_t>(curOf(ownerOf(r.seg)))] +=
        static_cast<Bytes>(sizeof(DigestRec));
  }
  std::vector<Offset> senddispls(static_cast<std::size_t>(P), 0);
  for (int d = 1; d < P; ++d) {
    senddispls[static_cast<std::size_t>(d)] =
        senddispls[static_cast<std::size_t>(d - 1)] +
        sendcounts[static_cast<std::size_t>(d - 1)];
  }
  std::vector<std::byte> sendbuf(
      pending_digests_.size() * sizeof(DigestRec));
  {
    std::vector<Offset> cursor = senddispls;
    for (const DigestRec& r : pending_digests_) {
      Offset& at = cursor[static_cast<std::size_t>(curOf(ownerOf(r.seg)))];
      std::memcpy(sendbuf.data() + at, &r, sizeof(DigestRec));
      at += static_cast<Offset>(sizeof(DigestRec));
    }
  }
  pending_digests_.clear();
  // Count exchange first (the usual two-phase recipe): every rank learns
  // how many bytes arrive from each peer.
  std::vector<Bytes> matrix(static_cast<std::size_t>(P) *
                            static_cast<std::size_t>(P));
  comm_->allgather(sendcounts.data(),
                   static_cast<Bytes>(P * sizeof(Bytes)), matrix.data());
  std::vector<Bytes> recvcounts(static_cast<std::size_t>(P), 0);
  std::vector<Offset> recvdispls(static_cast<std::size_t>(P), 0);
  Bytes total = 0;
  for (int s = 0; s < P; ++s) {
    recvcounts[static_cast<std::size_t>(s)] =
        matrix[static_cast<std::size_t>(s) * static_cast<std::size_t>(P) +
               static_cast<std::size_t>(comm_->rank())];
    recvdispls[static_cast<std::size_t>(s)] = total;
    total += recvcounts[static_cast<std::size_t>(s)];
  }
  std::vector<std::byte> recvbuf(static_cast<std::size_t>(total));
  comm_->alltoallv(sendbuf.data(), sendcounts, senddispls, recvbuf.data(),
                   recvcounts, recvdispls);
  const auto* recs = reinterpret_cast<const DigestRec*>(recvbuf.data());
  for (std::size_t i = 0; i < recvbuf.size() / sizeof(DigestRec); ++i) {
    ledger_[recs[i].seg].insert(recs[i].run());
  }
}

void File::verifySlot(SegmentId g, std::int64_t slot) {
  const auto it = ledger_.find(g);
  if (it == ledger_.end() || it->second.empty()) return;
  std::byte* local = window_->localData();
  if (local[flagsDisp(slot, kDirtyFlag)] == std::byte{0} &&
      local[flagsDisp(slot, kLoadedFlag)] == std::byte{0}) {
    return;  // not resident — nothing the ledger describes is in the window
  }
  // Any rank may have contributed extents to this segment, so a repair
  // replays every rank's journal records for it, in rank order — costed
  // reads, same discipline as crash recovery.
  WalSource wal;
  if (journal_ != nullptr) {
    wal = [&] {
      std::vector<Journal::Parsed> logs;
      for (Rank r = 0; r < static_cast<Rank>(orig_size_); ++r) {
        logs.push_back(Journal::readAndParse(client_, journalPath(name_, r)));
      }
      return logs;
    };
  }
  if (verifyOrRepair(it->second, g,
                     {local + dataDisp(slot, 0),
                      static_cast<std::size_t>(cfg_.segment_size)},
                     wal, comm_->proc(), cfg_, stats_.integrity, name_)) {
    local[flagsDisp(slot, kDirtyFlag)] = kFlagSet;
  }
}

void File::scrubTick(mpi::CapturedError& err) {
  constexpr std::int64_t kSegmentsPerCollective = 2;
  if (!integrity_on_) return;
  if (err.set()) return;  // this collective already has a verdict to agree
  try {
    const auto owned = ownedSlots();
    if (owned.empty()) return;
    ++stats_.integrity.scrub_passes;
    const std::int64_t budget =
        std::min(kSegmentsPerCollective,
                 static_cast<std::int64_t>(owned.size()));
    for (std::int64_t i = 0; i < budget; ++i) {
      const auto& [g, slot] = owned[static_cast<std::size_t>(
          scrub_cursor_++ % static_cast<std::int64_t>(owned.size()))];
      if (ledger_.find(g) != ledger_.end()) {
        verifySlot(g, slot);
        ++stats_.integrity.segments_scrubbed;
      }
    }
  } catch (const check::CheckFailure&) {
    throw;  // checker verdicts abort the job typed, never agreed-and-retyped
  } catch (const std::exception& e) {
    err.capture(e);
  }
}

void File::maybeCorruptWindow() {
  if (corruption_ == nullptr || window_ == nullptr) return;
  // The injector flips a bit inside a *digested* extent of an owned slot, so
  // the flip is guaranteed to land in a checksum domain (a flip in
  // never-written window memory would be invisible and meaningless). The arm
  // is consumed only once such a target exists.
  for (const auto& [g, slot] : ownedSlots()) {
    const auto it = ledger_.find(g);
    if (it == ledger_.end() || it->second.empty()) continue;
    if (!corruption_->fires(CorruptSite::kWindow)) return;
    const DigestRun& run = it->second.front();
    corruption_->flipBit({window_->localData() + dataDisp(slot, run.disp),
                          static_cast<std::size_t>(run.len)});
    return;
  }
}

void File::maybeFallBackToTwoSided() {
  if (cfg_.rma_fault_fallback_threshold <= 0 || fallback_two_sided_) return;
  if (!cfg_.use_onesided || cfg_.node_aggregation || !cfg_.lazy_reads ||
      cfg_.auto_fetch_on_segment_exit) {
    return;  // no staged path to fall back to in these configurations
  }
  sim::Proc& p = comm_->proc();
  const std::int64_t drops =
      p.atomic([&] { return comm_->world().network().rmaDropCount(); });
  // The drop counter is global but read at rank-local times; agree on the
  // decision so every rank switches paths at the same collective call.
  std::uint8_t trip = drops >= cfg_.rma_fault_fallback_threshold ? 1 : 0;
  comm_->allreduce(&trip, 1, mpi::ReduceOp::kMax);
  if (trip != 0) {
    fallback_two_sided_ = true;
    stats_.degraded.two_sided_fallback = true;
  }
}

void File::pwriteDegraded(Offset off, const std::byte* src, Bytes n) {
  try {
    client_.pwrite(fsfile_, off, src, n);
  } catch (const OstFailedError&) {
    const std::int64_t moved = client_.remapFailedChunks(fsfile_, off, n);
    if (moved == 0) throw;  // nothing to fail over to — surface it
    stats_.degraded.chunks_remapped += moved;
    client_.pwrite(fsfile_, off, src, n);
  }
}

void File::preadDegraded(Offset off, std::byte* dst, Bytes n) {
  try {
    client_.pread(fsfile_, off, dst, n);
  } catch (const OstFailedError&) {
    const std::int64_t moved = client_.remapFailedChunks(fsfile_, off, n);
    if (moved == 0) throw;  // nothing to fail over to — surface it
    stats_.degraded.chunks_remapped += moved;
    client_.pread(fsfile_, off, dst, n);
  }
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
