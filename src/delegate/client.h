// Client side of the delegate protocol (DESIGN.md §10).
//
// `Channel` is one client rank's connection to the delegate set: it frames
// descriptors, moves payload through the staging windows, retries kBusy
// rejections with simulated-time backoff, and — in crash mode — turns reply
// timeouts into the suspicion/agreement/adoption protocol. A data request
// carries one extent of one segment, and the client awaits each request's
// last reply before it sends the next one to that delegate, so every reply
// it receives answers the request it is waiting on. `DFile` layers the
// byte-offset file API on top: it splits accesses on segment boundaries
// and sends each piece straight to its shard owner (intra-node aggregation
// is core::File's, src/topo/).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "delegate/protocol.h"
#include "delegate/session.h"

namespace tcio::delegate {

class Channel {
 public:
  /// Client ranks only.
  explicit Channel(Session& session);

  Session& session() { return *s_; }

  // -- Synchronous operations -------------------------------------------------

  /// Opens `name` at every live delegate (each owns a shard of the file).
  void open(const std::string& name, unsigned flags);

  /// Writes `payload` into `extent` (one segment piece, at most one
  /// staging frame) at its current owner. A dead or suspected owner defers
  /// the put for resubmission at the next resolveFailures().
  void put(std::uint64_t key, const WireExtent& extent,
           std::vector<std::byte> payload);

  /// Reads `extent` (one segment piece) from its owner into `out`.
  void get(std::uint64_t key, const WireExtent& extent, std::byte* out);

  /// Per-delegate queue barrier: returns once every earlier request this
  /// client queued is serviced.
  void flushDelegates(std::uint64_t key);

  /// Sends kClose to every live delegate and collects the kCloseDone
  /// verdicts; returns the largest file size a delegate saw. NOT
  /// collective — DFile::close wraps it into the collective protocol.
  Bytes closeFile(std::uint64_t key);

  // -- Crash protocol ---------------------------------------------------------

  /// Collective over clientComm: agree on the suspected-dead set (kBitOr of
  /// the suspicion words), drive shard adoption on the survivors, resubmit
  /// every deferred put to the new owners, and repeat until a round adds no
  /// new deaths. No-op outside crash mode.
  void resolveFailures();

 private:
  /// One data request: its descriptor fields and, for a put, the payload.
  struct PendingOp {
    Op op = Op::kPut;
    std::uint64_t key = 0;
    int owner = -1;
    WireExtent extent;
    std::vector<std::byte> payload;  // puts: bytes to stage; gets: unused
    Bytes payload_bytes = 0;
  };

  /// A put or get of `extent`, routed to the segment's current owner.
  PendingOp dataOp(Op op, std::uint64_t key, const WireExtent& extent);
  /// Sends the descriptor of `op` (its op, key, payload size and extent)
  /// under sequence number `seq` to its owner.
  void sendOp(const PendingOp& op, std::int64_t seq);
  /// Serializes and sends one descriptor on kReqTag.
  void sendDescriptor(int delegate, const RequestHeader& h,
                      std::span<const WireExtent> extents,
                      const std::string& name = {});
  /// Awaits the reply to `seq` from `delegate`. Returns false on a liveness
  /// timeout (crash mode only), after marking the delegate suspected. A
  /// kError reply rethrows typed; any other reply must carry `seq`.
  bool awaitReply(int delegate, std::int64_t seq, ReplyMsg* out);
  /// Admission loop: resends the descriptor after each kBusy with
  /// exponential simulated-time backoff until kAccepted (or a timeout).
  bool awaitAdmission(const PendingOp& op, std::int64_t seq,
                      std::int64_t* frame);
  /// Sends the put, stages its payload and awaits kPutDone. Returns false
  /// when the owner timed out, so the caller defers the put.
  bool deliverPut(const PendingOp& op, std::int64_t seq);
  /// Sends `op` to every live, unsuspected delegate and awaits each reply,
  /// which must be of kind `done`. A delegate that times out is skipped
  /// (suspected; the caller resolves it). Returns the replies received.
  std::vector<ReplyMsg> controlRound(Op op, std::uint64_t key,
                                     ReplyKind done);
  void suspect(int delegate);
  void resubmitDeferred();

  Session* s_;
  mpi::Comm* comm_;
  bool integrity_on_ = false;
  std::int64_t next_seq_ = 1;
  std::vector<PendingOp> deferred_;
  /// Every reply is received here; awaitReply copies out what it keeps.
  mpi::RawBytes reply_buf_;
  /// Local suspicion bitmap over the delegates (common/bits.h). The agreed
  /// dead set is the Session's: resolveFailures marks it.
  std::vector<std::uint64_t> suspected_;
  RetryPolicy busy_policy_;
};

/// One open file in delegate mode: the Program-1 byte API routed through a
/// Channel. open/close are collective over the session's client ranks.
class DFile {
 public:
  DFile(Channel& ch, std::string name, unsigned flags);

  /// Writes [off, off+data.size()): one put per touched segment.
  void writeAt(Offset off, std::span<const std::byte> data);
  /// Reads [off, off+out.size()) from the shard owners.
  void readAt(Offset off, std::span<std::byte> out);

  /// A per-delegate queue barrier (plus failure resolution in crash mode).
  void flush();

  /// Collective over the session's clients. Drains every shard, closes the
  /// delegate-side file, and returns the agreed final size.
  Bytes close();

  const std::string& name() const { return name_; }

 private:
  Channel* ch_;
  Session* s_;
  std::string name_;
  std::uint64_t key_;
  Bytes local_max_ = 0;
  bool closed_ = false;
};

}  // namespace tcio::delegate
