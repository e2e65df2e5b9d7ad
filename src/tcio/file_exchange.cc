// core::File data movement between the level-1 buffer, level 2 and readers:
// the level-1 flush, the staged (two-sided and node-aggregated) write
// exchanges, and the independent and collective fetches. Node aggregation
// covers writes only: a node-aggregated file fetches with the one-sided
// gather.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>

#include "common/bits.h"
#include "tcio/file_internal.h"

namespace tcio::core {
namespace {

/// Packs a staging log's [BlockMeta][payload] records into one stream per
/// destination, `dest(off)` naming each record's. A digested record's CRC
/// was taken by the copy into the log; it is charged to `proc` here, where
/// the sender ships it.
template <typename Dest>
mpi::PackedSend packStaged(const StagingLog& log, std::size_t n,
                           sim::Proc& proc, const Dest& dest) {
  std::vector<Bytes> counts(n, 0);
  log.forEachBlock([&](const BlockMeta& m, const std::byte*) {
    counts[dest(m.off)] += static_cast<Bytes>(sizeof(m)) + m.len;
  });
  mpi::PackedSend out(std::move(counts));
  log.forEachBlock([&](const BlockMeta& m, const std::byte* p) {
    if (m.has_crc != 0) chargeChecksum(proc, m.len);
    const std::size_t d = dest(m.off);
    out.append(d, &m, sizeof(m));
    out.append(d, p, m.len);
  });
  return out;
}

}  // namespace

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
  } else {
    // Two-sided ablation / node aggregation: stage locally until the next
    // collective exchange. With integrity on, each record's hop digest is
    // taken inside this copy, after the injection point above.
    for (const Extent& e : extents) {
      staged_.append(map_.baseOf(seg) + e.begin,
                     {level1_.data() + e.begin,
                      static_cast<std::size_t>(e.size())},
                     integrity_on_);
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
  scratch.resize(static_cast<std::size_t>(cfg_.segment_size));
  const Bytes len = preadSegment(seg, client_.size(fsfile_), scratch.data());
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

void File::independentFetch(SegmentId seg,
                            const std::vector<mpi::Window::GetBlock>& blocks) {
  TCIO_CHECK_MSG(cfg_.use_onesided,
                 "independent fetch requires one-sided mode");
  ++stats_.independent_fetches;
  // The segment is handled under one lock of its owner: shared to gather a
  // resident segment, exclusive when we may have to load-and-publish it.
  const Rank owner = ownerOf(seg);
  const std::int64_t slot = slotOnOwner(seg);
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
    return;
  }
  window_->unlock(owner);
  window_->lock(mpi::LockType::kExclusive, owner);
  std::vector<std::byte> scratch;  // outlives the unlock below (put source)
  ensureLoadedIndependent(seg, scratch);  // re-checks under the lock
  window_->getIndexed(owner, blocks);
  window_->unlock(owner);
}

void File::fetchPendingGroup() {
  if (pending_reads_.empty()) return;
  const SegmentId seg = pending_segment_;
  const std::int64_t slot = slotOnOwner(seg);
  std::vector<mpi::Window::GetBlock> blocks;
  pending_reads_.forEach([&](const ReadPiece& r) {
    TCIO_CHECK(map_.segmentOf(r.off) == seg);
    blocks.push_back({dataDisp(slot, map_.dispOf(r.off)), r.dst, r.len});
  });
  pending_reads_.clear();
  independentFetch(seg, blocks);
}

std::set<SegmentId> File::pendingSegments() const {
  std::set<SegmentId> segs;
  pending_reads_.forEach(
      [&](const ReadPiece& r) { segs.insert(map_.segmentOf(r.off)); });
  return segs;
}

void File::gatherPending() {
  // One shared-lock epoch and one coalesced get per owner, in ascending
  // owner order. Each owner's blocks are built from the runs just before its
  // get, so no array holds every read.
  if (comm_->world().checker() != nullptr) {
    noteTransfers(pendingSegments(), kOverlayOwner, "File::gatherPending");
  }
  const std::vector<std::pair<SegmentId, Rank>> moved = movedSegments();
  std::vector<mpi::Window::GetBlock> blocks;
  pending_reads_.forEachByOwner(
      {map_, moved},
      [&](const ReadPiece& r) {
        const SegmentId seg = map_.segmentOf(r.off);
        blocks.push_back(
            {dataDisp(slotOnOwner(seg), map_.dispOf(r.off)), r.dst, r.len});
      },
      [&](Rank owner) {
        window_->lock(mpi::LockType::kShared, owner);
        window_->getIndexed(owner, blocks);
        window_->unlock(owner);
        blocks.clear();
      });
}

void File::twoSidedGather() {
  // Requests travel to each block's owner; replies come back in request
  // order. The requester sums each owner's reply bytes from its own reads,
  // so only the request exchange needs a count step.
  const auto sp = static_cast<std::size_t>(comm_->size());
  const auto ownerIndex = [&](const ReadPiece& r) {
    return static_cast<std::size_t>(curOf(ownerOf(map_.segmentOf(r.off))));
  };
  std::vector<Bytes> meta_counts(sp, 0), reply_counts(sp, 0);
  pending_reads_.forEach([&](const ReadPiece& r) {
    const std::size_t owner = ownerIndex(r);
    meta_counts[owner] += sizeof(BlockMeta);
    reply_counts[owner] += r.len;
  });
  mpi::PackedSend req_meta(std::move(meta_counts));
  pending_reads_.forEach([&](const ReadPiece& r) {
    const BlockMeta m{r.off, r.len};
    req_meta.append(ownerIndex(r), &m, sizeof(m));
  });
  const mpi::SizedExchange got_meta = mpi::sizedAlltoallv(*comm_, req_meta);
  // Answer each requester from the local window.
  std::vector<Bytes> serve_counts(sp, 0);
  for (std::size_t s = 0; s < sp; ++s) {
    got_meta.forEachRecord<BlockMeta>(
        s, [&](const BlockMeta& b) { serve_counts[s] += b.len; });
  }
  mpi::PackedSend replies(std::move(serve_counts));
  std::set<SegmentId> served_segs;
  for (std::size_t s = 0; s < sp; ++s) {
    got_meta.forEachRecord<BlockMeta>(s, [&](const BlockMeta& b) {
      const SegmentId g = map_.segmentOf(b.off);
      replies.append(s,
                     window_->localRange(
                         dataDisp(slotOnOwner(g), map_.dispOf(b.off)), b.len),
                     b.len);
      served_segs.insert(g);
    });
  }
  // Requesters routed these reads here because this rank owns them.
  noteTransfers(served_segs, orig_rank_, "File::twoSidedGather");
  const mpi::SizedExchange payload =
      mpi::alltoallvCounted(*comm_, replies, std::move(reply_counts));
  // Scatter: replies from each owner arrive in my request order.
  std::vector<Offset> cursor(payload.displs.begin(), payload.displs.end());
  pending_reads_.forEach([&](const ReadPiece& r) {
    const std::size_t owner = ownerIndex(r);
    std::memcpy(r.dst, payload.data.data() + cursor[owner],
                static_cast<std::size_t>(r.len));
    cursor[owner] += r.len;
  });
  comm_->chargeCopy(static_cast<Bytes>(payload.data.size()));
}

void File::collectiveFetch() {
  ++stats_.collective_fetches;
  maybeCorruptWindow();
  // Liveness first (crash mode): a peer that died since the last collective
  // (or dies in its own residue flush right here) must be agreed dead — and
  // its segments taken over — before any plain collective below is entered,
  // or the survivors hang in it. The residue flush carries crash points
  // (kMidJournal/kMidRma); a rank killed by one unwinds, uncaptured.
  if (cfg_.crash.enabled) agreeLevel1Flush();
  // A read-only file has nothing to exchange: it skips both write-side
  // collectives (the access mode is uniform, so every rank skips them).
  if (writable()) {
    exchangeWrites();
    // Every writer's pending digests reach the segment owners before any
    // data is served below (one routed exchange — collectively aligned:
    // integrity is uniform across ranks, and in crash mode the agreement
    // above already shrank the communicator around any dead peers and
    // settled the owners).
    exchangeDigests();
  }
  // Union of needed segments across ranks (segment ids span the original
  // communicator's domain even after a crash shrink).
  const std::int64_t total_segs =
      cfg_.segments_per_rank * static_cast<std::int64_t>(orig_size_);
  std::vector<std::uint64_t> bitmap(bitWords(total_segs), 0);
  // A pending piece never crosses a segment boundary (recordRead splits).
  pending_reads_.forEach(
      [&](const ReadPiece& r) { setBit(bitmap, map_.segmentOf(r.off)); });
  comm_->allreduce(bitmap.data(), static_cast<std::int64_t>(bitmap.size()),
                   mpi::ReduceOp::kBitOr);
  const auto needed = [&](SegmentId g) { return testBit(bitmap, g); };
  // Owners load their needed, non-resident segments with large file reads.
  // The loads are purely local, so capture any FS failure and agree after
  // the existing barrier (an aligned point for every rank).
  if (check::Checker* ck = comm_->world().checker()) {
    // Every slot this rank is about to load (or serve) must be one the
    // checker's segment map assigns to it.
    comm_->proc().atomic([&] {
      for (const auto& [g, slot] : ownedSlots()) {
        if (needed(g)) {
          ck->onSegmentTransfer(name_, g, orig_rank_,
                                "File::collectiveFetch(owner load)");
        }
      }
    });
  }
  mpi::CapturedError load_err;
  try {
    loadOwnedSlots(client_.size(fsfile_), needed);
    // Integrity gate on the read path: every needed segment this rank owns
    // is re-verified against its digest ledger *before* any byte of it is
    // served to a reader — a corrupted window region is repaired from the
    // journal (or surfaces as an agreed IntegrityError), never propagated
    // into a user read buffer.
    if (integrity_on_) {
      for (const auto& [g, slot] : ownedSlots()) {
        if (needed(g)) verifySlot(g, slot);
      }
    }
  } catch (const std::exception& e) {
    load_err.capture(e);
  }
  comm_->barrier();
  collectiveAgreeOnError(load_err);
  twoSidedExchange() ? twoSidedGather() : gatherPending();
  pending_reads_.clear();
  pending_segment_ = -1;
}

void File::loadOwnedSlots(Bytes fsize,
                          const std::function<bool(SegmentId)>& needed) {
  std::byte* flags = localFlags();
  for (const auto& [g, slot] : ownedSlots()) {
    if (!needed(g)) continue;
    std::byte& dirty = flags[flagsDisp(slot, kDirtyFlag)];
    std::byte& loaded = flags[flagsDisp(slot, kLoadedFlag)];
    if (dirty != std::byte{0} || loaded != std::byte{0}) continue;
    // Nothing wrote the slot, so it reads as zero: the read lands straight
    // in it, and the slot's tail past the file's end stays zero unwritten.
    const Bytes len = segmentBytesBelow(g, fsize);
    std::byte* dst = window_->localOverwrite(dataDisp(slot, 0), len);
    try {
      preadSegment(g, fsize, dst);
    } catch (...) {
      // A failed read leaves the slot as it was, reading as zero.
      std::memset(dst, 0, static_cast<std::size_t>(len));
      throw;
    }
    loaded = kFlagSet;
  }
}

Bytes File::segmentBytesBelow(SegmentId g, Bytes fsize) const {
  return std::clamp<Bytes>(fsize - map_.baseOf(g), 0, cfg_.segment_size);
}

Bytes File::preadSegment(SegmentId g, Bytes fsize, std::byte* dst) {
  const Bytes len = segmentBytesBelow(g, fsize);
  if (len > 0) preadDegraded(map_.baseOf(g), dst, len);
  return len;
}

void File::noteTransfers(const std::set<SegmentId>& segs, Rank owner,
                         const char* site, bool dirty) {
  check::Checker* ck = comm_->world().checker();
  if (ck == nullptr || segs.empty()) return;
  comm_->proc().atomic([&] {
    for (const SegmentId g : segs) {
      const Rank o = owner == kOverlayOwner ? ownerOf(g) : owner;
      ck->onSegmentTransfer(name_, g, o, site);
      if (dirty) ck->noteDirty(name_, g);
    }
  });
}

bool File::exchangeStaged() {
  if (cfg_.node_aggregation) {
    nodeExchangeStagedWrites();
  } else if (twoSidedExchange()) {
    exchangeStagedWrites();
  } else {
    return false;
  }
  return true;
}

void File::exchangeWrites() {
  if (exchangeStaged() || cfg_.crash.enabled) return;
  // One-sided flush is local + RMA only: capture and agree so a faulted rank
  // cannot strand its peers in the next collective.
  agreeLevel1Flush();
}

void File::agreeLevel1Flush() {
  collectiveAgreeOnError(captureLocal([&] { flushLevel1(); }));
}

void File::exchangeStagedWrites() {
  flushLevel1();  // move any level-1 residue into the staging area
  // Each owner's records in one stream, shipped by one sized exchange.
  mpi::PackedSend per_owner = packStaged(
      staged_, static_cast<std::size_t>(comm_->size()), comm_->proc(),
      [&](Offset off) {
        return static_cast<std::size_t>(curOf(ownerOf(map_.segmentOf(off))));
      });
  // packStaged copied the log; its model charge goes after the exchange.
  staged_.clear();
  const mpi::SizedExchange got = mpi::sizedAlltoallv(*comm_, per_owner);
  per_owner = {};
  // Apply received blocks into the local window. Purely local work: capture
  // and agree (the segment-exchange agreement point) so a corrupt frame on
  // one rank surfaces on all of them instead of desynchronizing the job.
  const mpi::CapturedError err = captureLocal([&] {
    std::byte* flags = localFlags();
    std::set<SegmentId> applied_segs;
    Bytes applied = 0;
    for (std::size_t s = 0; s < got.counts.size(); ++s) {
      forEachBlock(got.from(s), [&](const BlockMeta& b, const std::byte* p) {
        const SegmentId g = map_.segmentOf(b.off);
        const std::int64_t slot = slotOnOwner(g);
        // The rank -> owner hop, verified inside the copy that applies it.
        chargeHop(b, comm_->proc(), stats_.integrity);
        noteHopCrc(b,
                   copyBlock(window_->localOverwrite(
                                 dataDisp(slot, map_.dispOf(b.off)), b.len),
                             b, p),
                   stats_.integrity);
        applied += b.len;
        flags[flagsDisp(slot, kDirtyFlag)] = kFlagSet;
        applied_segs.insert(g);
      });
    }
    // Peers routed these blocks here because this rank owns the segments.
    noteTransfers(applied_segs, orig_rank_, "File::exchangeStagedWrites",
                  /*dirty=*/true);
    comm_->chargeCopy(applied);
  });
  comm_->memory().release(staged_bytes_);
  staged_bytes_ = 0;
  collectiveAgreeOnError(err);
}

void File::nodeExchangeStagedWrites() {
  flushLevel1();  // move any level-1 residue into the staging area
  ++stats_.node_exchanges;
  // Stage records addressed to the *node* hosting each block's owner.
  mpi::PackedSend per_node = packStaged(
      staged_, static_cast<std::size_t>(node_map_->numNodes()), comm_->proc(),
      [&](Offset off) {
        return static_cast<std::size_t>(
            node_map_->nodeOf(curOf(ownerOf(map_.segmentOf(off)))));
      });
  // packStaged copied the log; its model charge goes after the exchange.
  staged_.clear();
  const std::int64_t puts_before = node_agg_->stats().internode_puts;
  const Bytes membus_before = node_agg_->stats().intranode_bytes;
  // Source-leader rewrite: merge adjacent same-segment extents contributed
  // by the node's ranks into single records. On interleaved patterns the
  // node's ranks own neighbouring stripes, so this collapses many tiny
  // per-rank extents into few large ones before they pay the NIC.
  const auto coalesce =
      [this](int, const std::vector<topo::NodeAggregator::RankBlob>& blobs) {
        std::vector<std::pair<BlockMeta, const std::byte*>> recs;
        Bytes payload = 0;
        for (const auto& rb : blobs) {
          forEachBlock(rb.data, [&](const BlockMeta& m, const std::byte* p) {
            // The rank -> source-leader hop is verified piece by piece, so
            // a flip in one contribution cannot hide inside a merged run;
            // its CRC is taken by the copy into the rewritten stream below.
            chargeHop(m, comm_->proc(), stats_.integrity);
            recs.emplace_back(m, p);
            payload += m.len;
          });
        }
        std::stable_sort(recs.begin(), recs.end(),
                         [](const auto& a, const auto& b) {
                           return a.first.off < b.first.off;
                         });
        // Run boundaries first, so the stream is allocated at its size.
        std::vector<std::size_t> run_ends;
        std::size_t i = 0;
        while (i < recs.size()) {
          // A merged run must stay inside one segment: its owner and slot
          // are derived from the run's first offset at apply time.
          const SegmentId seg = map_.segmentOf(recs[i].first.off);
          std::size_t j = i + 1;
          while (j < recs.size() &&
                 recs[j].first.off ==
                     recs[j - 1].first.off + recs[j - 1].first.len &&
                 map_.segmentOf(recs[j].first.off) == seg) {
            ++j;
          }
          run_ends.push_back(j);
          i = j;
        }
        mpi::RawBytes out(run_ends.size() * sizeof(BlockMeta) +
                          static_cast<std::size_t>(payload));
        std::byte* at = out.data();
        i = 0;
        for (const std::size_t j : run_ends) {
          std::byte* const meta_at = at;
          at += sizeof(BlockMeta);
          BlockMeta m{recs[i].first.off, 0};
          // Each piece's CRC of the bytes that arrived is taken inside its
          // copy; combined, they are the merged run's digest, which covers
          // the leader -> destination hop end to end.
          std::uint32_t c = 0;
          for (std::size_t k = i; k < j; ++k) {
            const BlockMeta& piece = recs[k].first;
            const std::uint32_t got = copyBlock(at, piece, recs[k].second);
            noteHopCrc(piece, got, stats_.integrity);
            if (piece.has_crc != 0) {
              c = crc32Combine(c, got, static_cast<std::size_t>(piece.len));
            }
            at += piece.len;
            m.len += piece.len;
          }
          if (integrity_on_) {
            m.crc = c;
            m.has_crc = 1;
            chargeChecksum(comm_->proc(), m.len);
          }
          std::memcpy(meta_at, &m, sizeof(m));
          i = j;
        }
        return out;
      };
  auto frames = node_agg_->exchange(std::move(per_node), coalesce);
  // Destination leaders apply the received blocks into node-local owners'
  // windows — membus epochs, one per owner. Leader-local work: capture and
  // agree after the barrier below so a leader-side fault becomes the same
  // typed error on every rank instead of a wedged job.
  const mpi::CapturedError err = captureLocal([&] {
    if (!node_agg_->isActiveLeader()) return;
    std::map<Rank, std::vector<mpi::Window::PutBlock>> by_owner;
    std::map<Rank, std::set<std::int64_t>> flagged;
    std::set<SegmentId> applied_segs;
    // The digest of each checked block and the CRC its put takes of the
    // bytes that arrived (a deque: the puts keep pointers into it).
    std::deque<std::pair<BlockMeta, std::uint32_t>> hops;
    Bytes applied = 0;
    for (const auto& from_node : frames) {
      for (const auto& rb : from_node) {
        forEachBlock(rb.data, [&](const BlockMeta& m, const std::byte* p) {
          const SegmentId g = map_.segmentOf(m.off);
          const Rank owner = ownerOf(g);  // window target: original rank
          const std::int64_t slot = slotOnOwner(g);
          auto& blocks = by_owner[owner];
          if (flagged[owner].insert(slot).second) {
            blocks.push_back({flagsDisp(slot, kDirtyFlag), &kFlagSet, 1});
          }
          // The inter-node NIC hop, verified at the destination leader
          // inside the put that applies the block.
          std::uint32_t* crc = nullptr;
          if (chargeHop(m, comm_->proc(), stats_.integrity)) {
            crc = &hops.emplace_back(m, 0).second;
          }
          blocks.push_back(
              {dataDisp(slot, map_.dispOf(m.off)), p, m.len, crc});
          applied += m.len;
          applied_segs.insert(g);
        });
      }
    }
    noteTransfers(applied_segs, kOverlayOwner,
                  "File::nodeExchangeStagedWrites", /*dirty=*/true);
    for (auto& [owner, blocks] : by_owner) {
      window_->lock(mpi::LockType::kShared, owner);
      window_->putIndexed(owner, blocks);
      window_->unlock(owner);
    }
    for (const auto& [m, got] : hops) noteHopCrc(m, got, stats_.integrity);
    stats_.intranode_bytes += applied;
  });
  frames = {};  // the apply epochs above copied every block
  // The apply epochs above must land before any rank inspects or drains its
  // window (owner loads in collectiveFetch, drainToFs at close).
  comm_->barrier();
  stats_.internode_messages_saved -=
      node_agg_->stats().internode_puts - puts_before;
  stats_.intranode_bytes +=
      node_agg_->stats().intranode_bytes - membus_before;
  comm_->memory().release(staged_bytes_);
  staged_bytes_ = 0;
  collectiveAgreeOnError(err);
}

}  // namespace tcio::core
