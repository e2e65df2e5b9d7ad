// core::File fail-stop crash tolerance (DESIGN.md §8.1, §8.2): liveness
// agreement, shrink and takeover, takeover-capacity growth, journal replay.
#include <algorithm>

#include "mpi/liveness.h"
#include "tcio/file_internal.h"

namespace tcio::core {

void File::collectiveAgreeOnError(const mpi::CapturedError& err) {
  auto [code, what] = agreeAndRecover(err);
  if (code != mpi::CapturedError::kNone) mpi::throwTyped(code, what);
}

Rank File::ownerOf(SegmentId g) const {
  const auto it = orphans_.find(g);
  return it == orphans_.end() ? map_.rankOf(g) : it->second.owner;
}

std::int64_t File::slotOnOwner(SegmentId g) const {
  const auto it = orphans_.find(g);
  return it == orphans_.end() ? map_.slotOf(g) : it->second.slot;
}

std::vector<std::pair<SegmentId, Rank>> File::movedSegments() const {
  std::vector<std::pair<SegmentId, Rank>> moved;
  moved.reserve(orphans_.size());
  for (const auto& [g, t] : orphans_) moved.emplace_back(g, t.owner);
  return moved;
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
    std::byte* mem = window_->localRange(0, window_->localSize());
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
    err = captureLocal([&] { handleDeaths(out.dead); });
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

std::vector<Journal::Parsed> File::readAllJournals() {
  std::vector<Journal::Parsed> logs;
  logs.reserve(static_cast<std::size_t>(orig_size_));
  for (Rank r = 0; r < static_cast<Rank>(orig_size_); ++r) {
    logs.push_back(Journal::readAndParse(client_, journalPath(name_, r)));
  }
  return logs;
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
  const std::vector<Journal::Parsed> logs = readAllJournals();
  for (const Journal::Parsed& log : logs) {
    stats_.degraded.journal_torn_records += log.torn_records;
    // A committed record whose body failed its frame CRC (silent corruption
    // on the journal device) was dropped by the parser: the write it held is
    // lost to replay exactly as if it had never been journaled. Reported,
    // never silently re-applied.
    stats_.degraded.unjournaled_segments_lost += log.corrupt_records;
  }
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
    std::byte* const seg_bytes =
        drained_ ? scratch.data()
                 : window_->localRange(dataDisp(slot, 0), cfg_.segment_size);
    bool any = false;
    for (const Journal::Parsed& log : logs) {
      for (const Journal::Record& rec : log.records) {
        if (rec.seg != g) continue;
        // The journals hold this session's writes only: they replay over the
        // bytes the file held at open, as the dead owner's slot did.
        if (!any) preadSegment(g, fsfile_.sizeAtOpen(), seg_bytes);
        std::memcpy(seg_bytes + rec.disp, rec.payload.data(),
                    rec.payload.size());
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
      localFlags()[flagsDisp(slot, kDirtyFlag)] = kFlagSet;
      if (ck != nullptr) {
        comm_->proc().atomic([&] {
          ck->onSegmentTransfer(name_, g, orig_rank_, "File::replayOrphans");
          ck->noteDirty(name_, g);
        });
      }
    }
  }
}

}  // namespace tcio::core
