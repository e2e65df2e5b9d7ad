#include "delegate/client.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/bits.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/error.h"
#include "mpi/agreement.h"
#include "sim/backoff.h"

namespace tcio::delegate {

namespace {

/// Admission livelock guard: a queue this persistently full means the
/// session is misconfigured (watermark 0, or a wedged delegate).
constexpr int kMaxBusyAttempts = 1 << 20;

/// Splits [off, off + n) on segment boundaries: `piece(g, in_seg, done,
/// take)` per segment touched, with `done` bytes of the range before it.
template <typename Piece>
void forEachSegmentPiece(Offset off, std::size_t n, Bytes seg_size,
                         Piece&& piece) {
  Offset pos = off;
  std::size_t done = 0;
  while (done < n) {
    const SegmentId g = pos / seg_size;
    const Offset in_seg = pos - g * seg_size;
    const Bytes take =
        std::min<Bytes>(seg_size - in_seg, static_cast<Bytes>(n - done));
    piece(g, in_seg, done, take);
    pos += take;
    done += static_cast<std::size_t>(take);
  }
}

}  // namespace

Channel::Channel(Session& session)
    : s_(&session), comm_(&session.comm()),
      integrity_on_(integrityOn(session.config().integrity.enabled)),
      reply_buf_(static_cast<std::size_t>(maxReplyBytes())),
      suspected_(bitWords(session.numDelegates()), 0) {
  TCIO_CHECK_MSG(!s_->isDelegate(), "Channel runs on client ranks only");
  // Busy-retry backoff: start well under a service quantum and cap at a few
  // simulated milliseconds so a drained queue is re-probed promptly.
  busy_policy_.max_attempts = kMaxBusyAttempts;
  busy_policy_.base_backoff = 50.0e-6;
  busy_policy_.backoff_multiplier = 2.0;
  busy_policy_.max_backoff = 5.0e-3;
  busy_policy_.jitter_fraction = 0.5;
}

// -- Wire helpers -------------------------------------------------------------

void Channel::sendOp(const PendingOp& op, std::int64_t seq) {
  RequestHeader h = requestHeader(op.op, comm_->rank(), seq, op.key);
  h.payload_bytes = op.payload_bytes;
  h.n_extents = 1;
  sendDescriptor(op.owner, h, {&op.extent, 1});
}

void Channel::sendDescriptor(int delegate, const RequestHeader& h,
                             std::span<const WireExtent> extents,
                             const std::string& name) {
  const std::span<const std::byte> parts[] = {
      std::as_bytes(std::span{&h, 1}), std::as_bytes(extents),
      std::as_bytes(std::span{name})};
  std::vector<std::byte> msg;
  msg.reserve(sizeof(h) + extents.size_bytes() + name.size());
  for (const std::span<const std::byte> part : parts) {
    msg.insert(msg.end(), part.begin(), part.end());
  }
  comm_->send(msg.data(), static_cast<Bytes>(msg.size()), delegate, kReqTag);
}

bool Channel::awaitReply(int delegate, std::int64_t seq, ReplyMsg* out) {
  mpi::RecvStatus st;
  if (!s_->recvReply(reply_buf_.data(), static_cast<Bytes>(reply_buf_.size()),
                     delegate, &st)) {
    suspect(delegate);
    return false;
  }
  const std::span<const std::byte> msg{reply_buf_.data(),
                                       static_cast<std::size_t>(st.count)};
  TCIO_CHECK_MSG(msg.size() >= sizeof(*out),
                 "delegate reply shorter than its header");
  std::memcpy(out, msg.data(), sizeof(*out));
  if (out->kind == ReplyKind::kError && out->seq == seq) {
    TCIO_CHECK_MSG(out->value2 >= 0 && static_cast<std::size_t>(out->value2) <=
                                           msg.size() - sizeof(*out),
                   "delegate error text overruns the received reply");
    const std::string text(
        reinterpret_cast<const char*>(msg.data() + sizeof(*out)),
        static_cast<std::size_t>(out->value2));
    mpi::throwTyped(static_cast<std::int32_t>(out->value), text);
  }
  TCIO_CHECK_MSG(out->seq == seq,
                 "delegate reply for another request — a client has one "
                 "request in flight per delegate");
  return true;
}

void Channel::suspect(int delegate) { setBit(suspected_, delegate); }

// -- Open ---------------------------------------------------------------------

void Channel::open(const std::string& name, unsigned flags) {
  const std::uint64_t key = fileKey(name);
  std::vector<std::pair<int, std::int64_t>> outstanding;
  for (const int d : s_->liveDelegates()) {
    // A suspect may still answer a request this client abandoned; that late
    // reply must never meet a new request.
    TCIO_CHECK_MSG(!testBit(suspected_, d),
                   "open with an unresolved delegate suspicion — flush or "
                   "close the files already open first");
    RequestHeader h = requestHeader(Op::kOpen, comm_->rank(), next_seq_++, key);
    h.name_len = static_cast<std::int32_t>(name.size());
    h.aux = static_cast<std::int64_t>(flags);
    sendDescriptor(d, h, {}, name);
    outstanding.emplace_back(d, h.seq);
  }
  for (const auto& [d, seq] : outstanding) {
    ReplyMsg r;
    TCIO_CHECK_MSG(awaitReply(d, seq, &r),
                   "delegate died during open — open before injecting "
                   "crashes (crash points fire on data ops)");
    TCIO_CHECK(r.kind == ReplyKind::kOpenDone);
  }
}

// -- Data requests ------------------------------------------------------------

bool Channel::awaitAdmission(const PendingOp& op, std::int64_t seq,
                             std::int64_t* frame) {
  for (int attempt = 1;; ++attempt) {
    ReplyMsg r;
    if (!awaitReply(op.owner, seq, &r)) return false;
    if (r.kind == ReplyKind::kAccepted) {
      *frame = r.value;
      return true;
    }
    TCIO_CHECK(r.kind == ReplyKind::kBusy);
    if (attempt >= busy_policy_.max_attempts) {
      throw DelegateBusyError("delegate admission retried " +
                                  std::to_string(attempt) +
                                  " times without a free queue slot",
                              op.owner);
    }
    ++s_->client_busy_retries;
    comm_->proc().advance(
        sim::backoffDelay(busy_policy_, attempt, comm_->proc().rng()));
    sendOp(op, seq);
  }
}

Channel::PendingOp Channel::dataOp(Op op, std::uint64_t key,
                                   const WireExtent& extent) {
  const Bytes len = extent.end - extent.begin;
  TCIO_CHECK_MSG(len <= s_->frameBytes(),
                 "one extent must fit the staging frame — split it");
  PendingOp p;
  p.op = op;
  p.key = key;
  p.owner = s_->ownerOfSegment(extent.seg);
  p.extent = extent;
  p.payload_bytes = len;
  return p;
}

void Channel::put(std::uint64_t key, const WireExtent& extent,
                  std::vector<std::byte> payload) {
  PendingOp op = dataOp(Op::kPut, key, extent);
  TCIO_CHECK(static_cast<Bytes>(payload.size()) == op.payload_bytes);
  op.payload = std::move(payload);
  // Digest the extent at staging time: the CRC rides the descriptor so the
  // delegate can verify the RMA frame crossing against the source bytes.
  if (integrity_on_) {
    op.extent.crc = crc32(op.payload);
    op.extent.has_crc = 1;
  }
  const std::int64_t seq = next_seq_++;
  if (testBit(suspected_, op.owner) || !deliverPut(op, seq)) {
    deferred_.push_back(std::move(op));
  }
}

bool Channel::deliverPut(const PendingOp& op, std::int64_t seq) {
  sendOp(op, seq);
  std::int64_t frame = -1;
  if (!awaitAdmission(op, seq, &frame)) return false;
  // Stage the payload into the granted frame with one passive-target epoch,
  // then tell the delegate the bytes are in place.
  mpi::Window& w = s_->window();
  const RequestHeader h =
      requestHeader(Op::kPutData, comm_->rank(), seq, op.key);
  for (;;) {
    w.lock(mpi::LockType::kShared, op.owner);
    w.put(op.owner, frame * s_->frameBytes(), op.payload.data(),
          op.payload_bytes);
    w.unlock(op.owner);
    sendDescriptor(op.owner, h, {});
    ReplyMsg r;
    // Acknowledgement lost to a death: the put may or may not have been
    // journaled; resubmitting is idempotent either way.
    if (!awaitReply(op.owner, seq, &r)) return false;
    if (r.kind != ReplyKind::kPutRetry) {
      TCIO_CHECK(r.kind == ReplyKind::kPutDone);
      return true;
    }
    // The delegate found the staged frame corrupt (a bit flipped across the
    // RMA crossing). This client still holds the pristine payload: re-stage
    // it into the same frame (r.value) and resend kPutData.
    frame = r.value;
  }
}

void Channel::get(std::uint64_t key, const WireExtent& extent,
                  std::byte* out) {
  const PendingOp op = dataOp(Op::kGet, key, extent);
  TCIO_CHECK_MSG(!testBit(suspected_, op.owner),
                 "reading from a crashed delegate is not supported — "
                 "resolve failures (flush) before reading");
  const std::int64_t seq = next_seq_++;
  sendOp(op, seq);
  std::int64_t frame = -1;
  TCIO_CHECK_MSG(awaitAdmission(op, seq, &frame),
                 "delegate died while serving a get");
  ReplyMsg r;
  TCIO_CHECK_MSG(awaitReply(op.owner, seq, &r),
                 "delegate died while serving a get");
  TCIO_CHECK(r.kind == ReplyKind::kGetData);
  TCIO_CHECK(r.value == op.payload_bytes);
  mpi::Window& w = s_->window();
  w.lock(mpi::LockType::kShared, op.owner);
  w.get(op.owner, frame * s_->frameBytes(), out, op.payload_bytes);
  w.unlock(op.owner);
  if (r.pad != 0) {
    // The delegate digested the staged reply (value2): verify our side of
    // the RMA crossing before the bytes reach the user buffer. One re-read
    // absorbs an in-flight flip — the frame is still held until kGetAck.
    const std::span<const std::byte> got{
        out, static_cast<std::size_t>(op.payload_bytes)};
    if (crc32(got) != static_cast<std::uint32_t>(r.value2)) {
      w.lock(mpi::LockType::kShared, op.owner);
      w.get(op.owner, frame * s_->frameBytes(), out, op.payload_bytes);
      w.unlock(op.owner);
      if (crc32(got) != static_cast<std::uint32_t>(r.value2)) {
        throw IntegrityError(
            "delegate get reply failed its frame CRC after a re-read");
      }
    }
  }
  RequestHeader h = requestHeader(Op::kGetAck, comm_->rank(), seq, op.key);
  h.aux = frame;
  sendDescriptor(op.owner, h, {});
}

// -- Flush / close ------------------------------------------------------------

std::vector<ReplyMsg> Channel::controlRound(Op op, std::uint64_t key,
                                            ReplyKind done) {
  std::vector<std::pair<int, std::int64_t>> outstanding;
  for (const int d : s_->liveDelegates()) {
    if (testBit(suspected_, d)) continue;
    const RequestHeader h = requestHeader(op, comm_->rank(), next_seq_++, key);
    sendDescriptor(d, h, {});
    outstanding.emplace_back(d, h.seq);
  }
  std::vector<ReplyMsg> replies;
  for (const auto& [d, seq] : outstanding) {
    ReplyMsg r;
    if (!awaitReply(d, seq, &r)) continue;  // suspected; resolved by caller
    TCIO_CHECK(r.kind == done);
    replies.push_back(r);
  }
  return replies;
}

void Channel::flushDelegates(std::uint64_t key) {
  controlRound(Op::kFlush, key, ReplyKind::kFlushDone);
}

Bytes Channel::closeFile(std::uint64_t key) {
  // A delegate that dies mid-drain is skipped: its adopter covers the shard.
  Bytes size = 0;
  for (const ReplyMsg& r : controlRound(Op::kClose, key,
                                        ReplyKind::kCloseDone)) {
    size = std::max<Bytes>(size, r.value);
  }
  return size;
}

// -- Crash protocol -----------------------------------------------------------

void Channel::resolveFailures() {
  if (!s_->crashEnabled()) return;
  mpi::Comm& cc = s_->clientComm();
  for (;;) {
    std::vector<std::uint64_t> sus = suspected_;
    cc.allreduce(sus.data(), static_cast<std::int64_t>(sus.size()),
                 mpi::ReduceOp::kBitOr);
    // The verdict: agreed suspects not yet dead, every one marked dead
    // before any adopter is computed.
    std::vector<WireExtent> dead_list;
    for (int d = 0; d < s_->numDelegates(); ++d) {
      if (testBit(sus, d) && !s_->isDead(d)) dead_list.push_back({d, 0, 0});
    }
    if (dead_list.empty()) break;
    for (const WireExtent& e : dead_list) {
      setBit(suspected_, e.seg);
      s_->markDead(static_cast<int>(e.seg));
    }
    if (cc.rank() == 0) {
      // Tell every delegate the verdict — the dead list rides in the extent
      // slots. Suspects get it too (a falsely-suspected delegate must
      // self-fence); only confirmed-live delegates owe a kAdoptDone.
      std::vector<std::pair<int, std::int64_t>> outstanding;
      for (int d = 0; d < s_->numDelegates(); ++d) {
        RequestHeader h = requestHeader(Op::kAdopt, comm_->rank(), next_seq_++);
        h.n_extents = static_cast<std::int32_t>(dead_list.size());
        sendDescriptor(d, h, dead_list);
        if (!s_->isDead(d)) outstanding.emplace_back(d, h.seq);
      }
      for (const auto& [d, seq] : outstanding) {
        ReplyMsg r;
        if (!awaitReply(d, seq, &r)) continue;  // next round agrees on it
        TCIO_CHECK(r.kind == ReplyKind::kAdoptDone);
      }
    }
    // Adoption (journal replay) must be complete everywhere before deferred
    // puts reach the new owners, or the replay could clobber fresher bytes.
    cc.barrier();
    resubmitDeferred();
  }
}

void Channel::resubmitDeferred() {
  std::vector<PendingOp> work = std::move(deferred_);
  deferred_.clear();
  for (PendingOp& op : work) {
    ++s_->client_deferred_resubmissions;
    put(op.key, op.extent, std::move(op.payload));
  }
}

// -- DFile --------------------------------------------------------------------

DFile::DFile(Channel& ch, std::string name, unsigned flags)
    : ch_(&ch), s_(&ch.session()), name_(std::move(name)),
      key_(fileKey(name_)) {
  ch_->open(name_, flags);
}

void DFile::writeAt(Offset off, std::span<const std::byte> data) {
  TCIO_CHECK(!closed_);
  local_max_ = std::max<Bytes>(local_max_,
                               off + static_cast<Bytes>(data.size()));
  forEachSegmentPiece(
      off, data.size(), s_->config().segment_size,
      [&](SegmentId g, Offset in_seg, std::size_t done, Bytes take) {
        const auto bytes = data.subspan(done, static_cast<std::size_t>(take));
        ch_->put(key_, {g, in_seg, in_seg + take},
                 {bytes.begin(), bytes.end()});
      });
}

void DFile::readAt(Offset off, std::span<std::byte> out) {
  TCIO_CHECK(!closed_);
  forEachSegmentPiece(
      off, out.size(), s_->config().segment_size,
      [&](SegmentId g, Offset in_seg, std::size_t done, Bytes take) {
        ch_->get(key_, {g, in_seg, in_seg + take}, out.data() + done);
      });
}

void DFile::flush() {
  TCIO_CHECK(!closed_);
  ch_->resolveFailures();
  ch_->flushDelegates(key_);
  ch_->resolveFailures();
}

Bytes DFile::close() {
  TCIO_CHECK(!closed_);
  flush();
  closed_ = true;
  const Bytes remote_size = ch_->closeFile(key_);
  ch_->resolveFailures();
  Bytes size = std::max<Bytes>(local_max_, remote_size);
  s_->clientComm().allreduce(&size, 1, mpi::ReduceOp::kMax);
  return size;
}

}  // namespace tcio::delegate
