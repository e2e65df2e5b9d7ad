#include "delegate/server.h"

#include <algorithm>
#include <cstring>

#include "check/checker.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/error.h"
#include "mpi/agreement.h"
#include "mpi/datatype.h"

namespace tcio::delegate {

namespace {
/// Virtual-time quantum for the nonblocking arrival probe (recvUntil with
/// deadline == now returns immediately; the poll value is never waited).
constexpr SimTime kProbePoll = 1.0e-9;
}  // namespace

Request parseRequest(std::span<const std::byte> msg) {
  Request q;
  TCIO_CHECK_MSG(msg.size() >= sizeof(q.h),
                 "delegate descriptor shorter than its header");
  std::memcpy(&q.h, msg.data(), sizeof(q.h));
  msg = msg.subspan(sizeof(q.h));
  const auto n_extents = static_cast<std::size_t>(q.h.n_extents);
  const auto name_len = static_cast<std::size_t>(q.h.name_len);
  TCIO_CHECK_MSG(q.h.n_extents >= 0 && q.h.name_len >= 0 &&
                     n_extents <= msg.size() / sizeof(WireExtent) &&
                     name_len <= msg.size() - n_extents * sizeof(WireExtent),
                 "delegate descriptor lengths overrun the received bytes");
  TCIO_CHECK_MSG((q.h.op != Op::kPut && q.h.op != Op::kGet) ||
                     q.h.n_extents == 1,
                 "a put or get descriptor carries exactly one extent");
  q.extents.resize(n_extents);
  const std::size_t extent_bytes = n_extents * sizeof(WireExtent);
  if (extent_bytes > 0) {
    std::memcpy(q.extents.data(), msg.data(), extent_bytes);
  }
  q.name.assign(reinterpret_cast<const char*>(msg.data() + extent_bytes),
                name_len);
  return q;
}

Server::Server(Session& session)
    : s_(&session), comm_(&session.comm()),
      client_(session.filesystem(), session.comm().proc()),
      me_(session.comm().rank()),
      arrival_(static_cast<std::size_t>(kMaxRequestBytes)) {
  const core::TcioConfig& cfg = s_->config();
  if (cfg.faults.enabled) client_.installFaultPlan(cfg.faults);
  client_.setRetryPolicy(cfg.retry);
  if (cfg.crash.enabled) {
    TCIO_CHECK_MSG(cfg.crash.journal,
                   "delegate crash tolerance requires journaling: adopted "
                   "shards are reconstructed exclusively from the WAL");
    crash_plan_ = std::make_unique<CrashPlan>(cfg.faults, me_);
  }
  integrity_on_ = integrityOn(cfg.integrity.enabled);
  corruption_ = std::make_unique<CorruptionPlan>(cfg.faults, me_);
  free_frames_.reserve(static_cast<std::size_t>(cfg.delegate.queue_capacity));
  for (std::int64_t i = cfg.delegate.queue_capacity - 1; i >= 0; --i) {
    free_frames_.push_back(i);
  }
}

void Server::run() {
  check::ScopedLabel phase(comm_->world().checker(), comm_->proc().rank(),
                           "delegate::Server::run");
  try {
    while (!shutdown_) {
      drainArrivals(/*block=*/!hasServiceable());
      serviceOne();
    }
  } catch (const RankCrashedError&) {
    // Fail-stop: the delegate goes silent. Clients detect the silence via
    // reply timeouts and run the adoption protocol.
  }
}

// -- Arrival side -------------------------------------------------------------

void Server::drainArrivals(bool block) {
  const Bytes capacity = static_cast<Bytes>(arrival_.size());
  if (block) {
    handleArrival(
        comm_->recv(arrival_.data(), capacity, mpi::kAnySource, kReqTag)
            .count);
  }
  for (;;) {
    mpi::RecvStatus st;
    const bool got =
        comm_->recvUntil(arrival_.data(), capacity, mpi::kAnySource, kReqTag,
                         comm_->proc().now(), kProbePoll, &st);
    if (!got) break;
    handleArrival(st.count);
  }
}

void Server::handleArrival(Bytes received) {
  Pending p{parseRequest(
      {arrival_.data(), static_cast<std::size_t>(received)})};

  switch (p.h.op) {
    case Op::kPutData: {
      // The payload for an admitted put is staged — mark it serviceable.
      auto& q = queues_[p.h.client];
      for (Pending& e : q) {
        if (e.h.op == Op::kPut && e.h.seq == p.h.seq) {
          e.ready = true;
          return;
        }
      }
      TCIO_CHECK_MSG(false, "kPutData for an unknown admitted put");
      return;
    }
    case Op::kGetAck:
      // aux carries the frame the client finished copying out of.
      freeFrame(p.h.aux);
      return;
    case Op::kPut:
    case Op::kGet:
      admitOrReject(std::move(p));
      return;
    default:
      // Control traffic bypasses admission and holds no frame.
      queues_[p.h.client].push_back(std::move(p));
      return;
  }
}

void Server::admitOrReject(Pending p) {
  if (data_queued_ >= s_->queueCapacity() || free_frames_.empty()) {
    ++stats_.rejections;
    reply(p.h.client, p.h.seq, ReplyKind::kBusy);
    return;
  }
  TCIO_CHECK_MSG(p.h.payload_bytes <= s_->frameBytes(),
                 "delegate request payload exceeds the staging frame");
  p.frame = free_frames_.back();
  free_frames_.pop_back();
  p.ready = p.h.op != Op::kPut;  // puts wait for the staged payload
  ++data_queued_;
  ++stats_.submissions;
  stats_.queue_high_watermark =
      std::max(stats_.queue_high_watermark, data_queued_);
  const std::int64_t frame = p.frame;
  const int client = p.h.client;
  const std::int64_t seq = p.h.seq;
  queues_[client].push_back(std::move(p));
  reply(client, seq, ReplyKind::kAccepted, frame);
}

void Server::reply(int client, std::int64_t seq, ReplyKind kind,
                   std::int64_t value, std::int64_t value2,
                   std::int32_t pad) {
  ReplyMsg r;
  r.kind = kind;
  r.pad = pad;
  r.seq = seq;
  r.value = value;
  r.value2 = value2;
  comm_->send(&r, sizeof(r), client, kRepTag);
}

// -- Service side -------------------------------------------------------------

bool Server::hasServiceable() const {
  for (const auto& [client, q] : queues_) {
    if (!q.empty() && q.front().ready) return true;
  }
  return false;
}

void Server::serviceOne() {
  // Round-robin over clients: one request per client per sweep, so a hot
  // client cannot monopolize the delegate. `queues_` is ordered by client,
  // so the sweep walks it from the cursor and wraps around once.
  const auto start = queues_.lower_bound(rr_next_);
  auto it = start;
  do {
    if (it == queues_.end()) {
      it = queues_.begin();
      if (it == start) return;
    }
    std::deque<Pending>& q = it->second;
    // An empty queue, or a put awaiting its payload, skips the client.
    if (!q.empty() && q.front().ready) {
      Pending p = std::move(q.front());
      q.pop_front();
      rr_next_ = it->first + 1;
      // A client with nothing queued leaves the map, so this sweep and
      // hasServiceable() walk only the clients that have queued work.
      if (q.empty()) queues_.erase(it);
      dispatch(p);
      return;
    }
    ++it;
  } while (it != start);
}

void Server::dispatch(Pending& p) {
  const SimTime t0 = comm_->proc().now();
  try {
    switch (p.h.op) {
      case Op::kOpen: serveOpen(p); break;
      case Op::kPut: servePut(p); break;
      case Op::kGet: serveGet(p); break;
      case Op::kFlush: reply(p.h.client, p.h.seq, ReplyKind::kFlushDone); break;
      case Op::kClose: serveClose(p); break;
      case Op::kAdopt: serveAdopt(p); break;
      case Op::kShutdown: serveShutdown(p); break;
      default: TCIO_CHECK_MSG(false, "unexpected op in the service queue");
    }
  } catch (const RankCrashedError&) {
    throw;  // fail-stop — never turn a crash into an error reply
  } catch (const std::exception& e) {
    // Local failure (e.g. retry-exhausted transient): typed error travels to
    // the requesting client, which rethrows it. The delegate keeps serving.
    mpi::CapturedError err;
    err.capture(e);
    std::string text = err.what.substr(0, 400);
    std::vector<std::byte> msg(sizeof(ReplyMsg) + text.size());
    ReplyMsg r;
    r.kind = ReplyKind::kError;
    r.seq = p.h.seq;
    r.value = err.code;
    r.value2 = static_cast<std::int64_t>(text.size());
    std::memcpy(msg.data(), &r, sizeof(r));
    std::memcpy(msg.data() + sizeof(r), text.data(), text.size());
    comm_->send(msg.data(), static_cast<Bytes>(msg.size()), p.h.client,
                kRepTag);
    if (p.frame >= 0) {
      freeFrame(p.frame);
      --data_queued_;
    }
  }
  stats_.service_time += comm_->proc().now() - t0;
}

Server::FileState& Server::fileFor(std::uint64_t key) {
  const auto it = files_.find(key);
  TCIO_CHECK_MSG(it != files_.end(), "delegate request for an unopened file");
  return it->second;
}

Server::SegBuf& Server::segBuf(FileState& f, SegmentId g) {
  SegBuf& sb = f.segs[g];
  if (sb.data.empty()) {
    sb.data.assign(static_cast<std::size_t>(s_->config().segment_size),
                   std::byte{0});
  }
  return sb;
}

void Server::noteAdoptedSegment(FileState& f, SegmentId g) {
  if (s_->naturalOwnerOf(g) == me_) return;
  if (check::Checker* ck = comm_->world().checker()) {
    comm_->proc().atomic([&] { ck->noteRemap(f.name, g, me_); });
  }
}

void Server::serveOpen(Pending& p) {
  FileState& f = files_[p.h.file_key];
  if (f.drained) f = FileState{};  // churn reopen: fresh session state
  if (f.opens == 0) {
    TCIO_CHECK(!p.name.empty());
    f.name = p.name;
    const auto flags = static_cast<unsigned>(p.h.aux);
    f.fsfile = client_.open(f.name, flags);
    if (check::Checker* ck = comm_->world().checker()) {
      comm_->proc().atomic([&] {
        ck->registerFile(f.name, s_->numDelegates(),
                         s_->config().segment_size,
                         s_->config().segments_per_rank, flags);
      });
    }
  } else {
    TCIO_CHECK_MSG(f.name == p.name, "file-key collision between names");
  }
  ++f.opens;
  reply(p.h.client, p.h.seq, ReplyKind::kOpenDone);
}

void Server::servePut(Pending& p) {
  crashPoint(CrashPoint::kAtCollective);
  FileState& f = fileFor(p.h.file_key);
  const WireExtent& e = p.extents.front();
  const SegmentId g = e.seg;
  const Bytes len = e.end - e.begin;
  TCIO_CHECK(len == p.h.payload_bytes);
  noteAdoptedSegment(f, g);
  crashPoint(CrashPoint::kMidRma);  // payload staged, nothing applied yet
  SegBuf& sb = segBuf(f, g);
  const std::span<std::byte> payload{
      s_->window().localRange(frameDisp(p.frame), len),
      static_cast<std::size_t>(len)};
  if (corruption_->fires(CorruptSite::kStagingFrame)) {
    corruption_->flipBit(payload);
  }
  // Verify the frame crossing against the digest the client took at staging
  // time, before a byte is journaled or applied. A mismatch is repairable
  // without the WAL: the source rank still holds the pristine payload, so it
  // re-stages into the same frame and resends kPutData (once).
  if (integrity_on_) {
    bool clean = true;
    if (e.has_crc != 0) {
      ++stats_.crc_checks;
      clean = crc32(payload) == e.crc;
      if (!clean) ++stats_.crc_mismatches;
    }
    core::chargeChecksum(comm_->proc(), len);
    if (!clean) {
      if (p.retries >= 1) {
        ++stats_.unrepairable;
        throw IntegrityError("delegate " + std::to_string(me_) +
                             ": put frame corrupt after a client re-stage");
      }
      ++p.retries;
      const int client = p.h.client;
      const std::int64_t seq = p.h.seq;
      const std::int64_t frame = p.frame;
      p.ready = false;  // serviceable again when the re-staged kPutData lands
      queues_[client].push_front(std::move(p));
      reply(client, seq, ReplyKind::kPutRetry, frame);
      return;
    }
    if (p.retries > 0) ++stats_.repaired;
  }
  // WAL first: a record is journaled before its bytes move into the shard
  // buffer and strictly before the acknowledgement, so an acknowledged put
  // always survives this delegate's death. The integrity pipeline journals
  // too — the WAL doubles as the shard's repair source (DESIGN.md §11).
  const bool journaling =
      (s_->config().crash.enabled && s_->config().crash.journal) ||
      integrity_on_;
  if (journaling && f.journal == nullptr) {
    f.journal = std::make_unique<core::Journal>(
        client_, core::journalPath(f.name, me_));
  }
  if (journaling &&
      !core::appendOrTear(*f.journal, crash_plan_.get(),
                          CrashPoint::kMidJournal, g, e.begin, payload)) {
    die();
  }
  const std::span<std::byte> dst{sb.data.data() + e.begin, payload.size()};
  std::memcpy(dst.data(), payload.data(), payload.size());
  if (integrity_on_ && e.has_crc != 0) sb.ledger.absorb(e.begin, dst, e.crc);
  sb.extents.push_back({e.begin, e.end});
  ++sb.raw_extents;
  comm_->chargeCopy(len);
  if (corruption_->fires(CorruptSite::kWindow)) {
    // Shard-buffer-at-rest flip, landing inside the extent just applied;
    // caught at the next ledger verification (get or drain) and healed by
    // WAL replay.
    corruption_->flipBit(dst);
  }
  if (check::Checker* ck = comm_->world().checker()) {
    comm_->proc().atomic([&] {
      ck->onSegmentTransfer(f.name, g, me_, "delegate::Server::servePut");
      ck->noteDirty(f.name, g);
    });
  }
  freeFrame(p.frame);
  --data_queued_;
  p.frame = -1;  // released — dispatch's error path must not free it again
  reply(p.h.client, p.h.seq, ReplyKind::kPutDone);
}

void Server::loadSegment(FileState& f, SegmentId g, SegBuf& sb) {
  const Bytes seg_size = s_->config().segment_size;
  const Offset base = g * seg_size;
  const Bytes fsize = client_.size(f.fsfile);
  const Bytes n = std::min<Bytes>(seg_size, std::max<Bytes>(0, fsize - base));
  if (n > 0) {
    std::vector<std::byte> scratch(static_cast<std::size_t>(n));
    client_.pread(f.fsfile, base, scratch.data(), n);
    if (sb.extents.empty()) {
      std::memcpy(sb.data.data(), scratch.data(),
                  static_cast<std::size_t>(n));
    } else {
      // Dirty bytes win: copy the FS image only outside buffered extents.
      const std::vector<Extent> dirty = mpi::normalizeOverlapping(sb.extents);
      Offset at = 0;
      for (const Extent& d : dirty) {
        const Offset stop = std::min<Offset>(d.begin, n);
        if (at < stop) {
          std::memcpy(sb.data.data() + at, scratch.data() + at,
                      static_cast<std::size_t>(stop - at));
        }
        at = std::max<Offset>(at, d.end);
      }
      if (at < n) {
        std::memcpy(sb.data.data() + at, scratch.data() + at,
                    static_cast<std::size_t>(n - at));
      }
    }
  }
  sb.loaded = true;
}

void Server::serveGet(Pending& p) {
  crashPoint(CrashPoint::kAtCollective);
  FileState& f = fileFor(p.h.file_key);
  const WireExtent& e = p.extents.front();
  const SegmentId g = e.seg;
  const Bytes total = e.end - e.begin;
  TCIO_CHECK(total == p.h.payload_bytes);
  SegBuf& sb = segBuf(f, g);
  if (!sb.loaded) loadSegment(f, g, sb);
  // Shard bytes are about to cross into the reply frame: re-verify the
  // segment's ledger first so corruption-at-rest never reaches a reader.
  if (integrity_on_) {
    core::verifyOrRepair(sb.ledger, g, sb.data, ownWal(f), comm_->proc(),
                         stats_, f.name);
  }
  std::byte* dst = s_->window().localOverwrite(frameDisp(p.frame), total);
  const std::span<const std::byte> src{sb.data.data() + e.begin,
                                       static_cast<std::size_t>(total)};
  // With integrity on, the staged reply is digested inside its copy, so
  // the client can verify its side of the RMA frame crossing (pad == 1
  // flags a valid value2 CRC).
  std::int64_t reply_crc = 0;
  std::int32_t has_reply_crc = 0;
  if (integrity_on_) {
    reply_crc = crc32Copy(dst, src);
    has_reply_crc = 1;
  } else {
    std::memcpy(dst, src.data(), src.size());
  }
  comm_->chargeCopy(total);
  if (integrity_on_) core::chargeChecksum(comm_->proc(), total);
  --data_queued_;  // queue slot freed; the frame is held until kGetAck
  p.frame = -1;    // ownership moved to the client — the error path must
                   // neither free the frame nor re-drop data_queued_
  reply(p.h.client, p.h.seq, ReplyKind::kGetData, total, reply_crc,
        has_reply_crc);
}

void Server::serveClose(Pending& p) {
  FileState& f = fileFor(p.h.file_key);
  ++f.closes;
  f.closers.push_back({p.h.client, p.h.seq});
  if (f.closes < f.opens) return;  // reply deferred until the drain
  const Bytes size = drainAndClose(f);
  for (const auto& [client, seq] : f.closers) {
    reply(client, seq, ReplyKind::kCloseDone, size);
  }
  f.closers.clear();
}

Bytes Server::drainAndClose(FileState& f) {
  check::Checker* ck = comm_->world().checker();
  Bytes local_max = 0;
  for (auto& [g, sb] : f.segs) {
    if (sb.extents.empty()) continue;
    // Last crossing before the store: scrub the whole shard segment against
    // its ledger so corruption-at-rest never reaches an OST.
    if (integrity_on_) {
      core::verifyOrRepair(sb.ledger, g, sb.data, ownWal(f), comm_->proc(),
                           stats_, f.name);
    }
    const std::vector<Extent> merged = mpi::normalizeOverlapping(sb.extents);
    const Offset base = g * s_->config().segment_size;
    for (const Extent& run : merged) {
      crashPoint(CrashPoint::kMidClose);
      client_.pwrite(f.fsfile, base + run.begin, sb.data.data() + run.begin,
                     run.size());
      ++stats_.batches;
    }
    stats_.batched_extents += sb.raw_extents;
    local_max = std::max<Bytes>(local_max, base + merged.back().end);
    if (ck != nullptr) {
      comm_->proc().atomic(
          [&] { ck->onDrain(f.name, g, me_, "delegate::Server::drain"); });
    }
  }
  if (f.journal != nullptr) f.journal->commit();
  // The file may already reach past this session's writes.
  const Bytes size = std::max(local_max, client_.close(f.fsfile));
  f.drained = true;
  if (ck != nullptr) {
    comm_->proc().atomic([&] { ck->onFileClosed(f.name, local_max, me_); });
  }
  return size;
}

void Server::serveAdopt(Pending& p) {
  // Two passes: the whole verdict is marked dead before any adopterOf()
  // runs, so when adjacent delegates die in the same agreement round the
  // adopter scan skips both and the shard lands on a live delegate.
  // Interleaving mark and adopt would hand d's shard to the also-dead d+1.
  std::set<int> fresh;
  for (const WireExtent& e : p.extents) {
    const int dead = static_cast<int>(e.seg);
    if (dead == me_) die();  // peers agreed I'm dead: self-fence
    if (s_->isDead(dead)) continue;
    s_->markDead(dead);
    ++stats_.delegates_crashed;
    death_order_.push_back(dead);
    fresh.insert(dead);
  }
  // Chain scan: adopt every dead delegate whose shard currently falls to
  // this server and whose WAL it has not replayed yet — not just this
  // round's victims. When an ADOPTER dies (possibly mid-re-append, leaving a
  // torn copy in its own WAL), the delegates it had adopted re-route to the
  // next live adopter, which must replay their ORIGINAL journals: the dead
  // adopter's WAL alone cannot be trusted to carry the chain. Replay runs in
  // death order so a record's gen n+1 copy always lands after its original;
  // duplicate applications are byte-identical and therefore idempotent.
  for (const int dead : death_order_) {
    if (s_->adopterOf(dead) != me_) continue;
    if (my_adopted_.count(dead) != 0) continue;
    if (fresh.count(dead) == 0) ++stats_.shards_readopted;
    adoptShard(dead);
  }
  reply(p.h.client, p.h.seq, ReplyKind::kAdoptDone);
}

void Server::adoptShard(int dead) {
  ++stats_.shards_adopted;
  my_adopted_.insert(dead);
  check::Checker* ck = comm_->world().checker();
  for (auto& [key, f] : files_) {
    if (f.name.empty()) continue;
    if (ck != nullptr) {
      comm_->proc().atomic([&] { ck->noteDeath(f.name, dead); });
    }
    const core::Journal::Parsed parsed =
        core::Journal::readAndParse(client_, core::journalPath(f.name, dead));
    if (parsed.records.empty()) continue;
    if (!f.drained) {
      // Replay into the shard buffers; the coming drain writes them out.
      // Each record is re-appended to this delegate's own WAL (generation
      // bumped) so the ledger gate's corruption repair can replay adopted
      // bytes from the local journal. Chain durability does NOT depend on
      // these copies: serveAdopt's death-order scan re-replays the original
      // owners' journals at the next adopter, so a death right here — torn
      // copy and all — loses nothing.
      if (f.journal == nullptr) {
        f.journal = std::make_unique<core::Journal>(
            client_, core::journalPath(f.name, me_));
      }
      f.journal->batchBegin();  // one device write for the adopted log
      for (const core::Journal::Record& r : parsed.records) {
        // Adopted copies (gen > 0) are not applied here: the death-order
        // chain scan replays the ORIGINAL owner's journal at whichever live
        // server that shard routes to, and applying the copy too would
        // double-drain the segment.
        if (r.gen > 0) continue;
        ++stats_.journal_records_replayed;
        // Cascade: an adopter dying mid-re-append tears the copy in this
        // WAL, and the parse scan at the NEXT adopter drops it.
        if (!core::appendOrTear(*f.journal, crash_plan_.get(),
                                CrashPoint::kMidRecovery, r.seg, r.disp,
                                r.payload, r.gen + 1)) {
          die();
        }
        SegBuf& sb = segBuf(f, r.seg);
        std::byte* dst = sb.data.data() + r.disp;
        if (integrity_on_) {
          sb.ledger.absorb(r.disp, {dst, r.payload.size()},
                           crc32Copy(dst, r.payload));
        } else {
          std::memcpy(dst, r.payload.data(), r.payload.size());
        }
        sb.extents.push_back(
            {r.disp, r.disp + static_cast<Offset>(r.payload.size())});
        ++sb.raw_extents;
        if (ck != nullptr) {
          comm_->proc().atomic([&] {
            ck->noteRemap(f.name, r.seg, me_);
            ck->noteDirty(f.name, r.seg);
          });
        }
      }
      f.journal->batchEnd();
    } else {
      // The file already drained here: write the dead shard's journaled
      // bytes straight to the file (merged runs, like a drain would).
      fs::FsFile ff = client_.open(f.name, fs::kWrite);
      std::map<SegmentId, std::pair<std::vector<std::byte>,
                                    std::vector<Extent>>> segs;
      for (const core::Journal::Record& r : parsed.records) {
        if (r.gen > 0) continue;  // copies: the chain scan replays originals
        ++stats_.journal_records_replayed;
        auto& [data, exts] = segs[r.seg];
        if (data.empty()) {
          data.assign(static_cast<std::size_t>(s_->config().segment_size),
                      std::byte{0});
        }
        std::memcpy(data.data() + r.disp, r.payload.data(),
                    r.payload.size());
        exts.push_back({r.disp, r.disp + static_cast<Offset>(
                                             r.payload.size())});
      }
      for (const auto& [g, rec] : segs) {
        const Offset base = g * s_->config().segment_size;
        for (const Extent& run : mpi::normalizeOverlapping(rec.second)) {
          client_.pwrite(ff, base + run.begin, rec.first.data() + run.begin,
                         run.size());
          ++stats_.batches;
        }
        if (ck != nullptr) {
          comm_->proc().atomic([&] {
            ck->noteRemap(f.name, g, me_);
            ck->noteDirty(f.name, g);
            ck->onDrain(f.name, g, me_, "delegate::Server::adopt");
          });
        }
      }
      client_.close(ff);
    }
  }
}

void Server::serveShutdown(Pending& p) {
  stats_.fs_transient_faults = client_.retryStats().transient_faults;
  stats_.fs_retries = client_.retryStats().retries;
  std::vector<std::byte> msg(sizeof(ReplyMsg) +
                             sizeof(core::TcioDelegateStats));
  ReplyMsg r;
  r.kind = ReplyKind::kShutdownDone;
  r.seq = p.h.seq;
  std::memcpy(msg.data(), &r, sizeof(r));
  std::memcpy(msg.data() + sizeof(r), &stats_, sizeof(stats_));
  comm_->send(msg.data(), static_cast<Bytes>(msg.size()), p.h.client,
              kRepTag);
  shutdown_ = true;
}

core::WalSource Server::ownWal(FileState& f) {
  if (f.journal == nullptr) return {};
  // With integrity on, every acknowledged put was journaled first, so
  // replaying the segment's records in append order reconstructs exactly
  // the bytes the ledger digests were taken over.
  return [this, &f] {
    return std::vector<core::Journal::Parsed>{core::Journal::readAndParse(
        client_, core::journalPath(f.name, me_))};
  };
}

Offset Server::frameDisp(std::int64_t frame) const {
  TCIO_CHECK(frame >= 0 && frame < s_->queueCapacity());
  return frame * s_->frameBytes();
}

void Server::freeFrame(std::int64_t frame) {
  TCIO_CHECK(frame >= 0);
  free_frames_.push_back(frame);
}

void Server::crashPoint(CrashPoint point) {
  if (crash_plan_ != nullptr && crash_plan_->fires(point)) die();
}

void Server::die() {
  throw RankCrashedError("delegate " + std::to_string(me_) +
                             " hit its scheduled fail-stop crash",
                         me_);
}

}  // namespace tcio::delegate
