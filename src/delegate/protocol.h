// Wire protocol of the I/O delegate request-queue server (DESIGN.md §10).
//
// Delegates and clients talk over two reserved user tags on the session's
// full communicator: descriptor messages (client -> delegate) on kReqTag and
// replies (delegate -> client) on kRepTag. Descriptors are small typed
// messages — a POD header, then one extent for a put or get, the dead list
// for kAdopt, or the file name for open — while bulk payload never rides
// the two-sided path: an admitted data request is assigned a staging
// *frame* in the delegate's RMA window and the payload moves with one
// passive-target put/get epoch. That split is what lets a delegate
// admit-or-reject thousands of clients per virtual second without copying
// a byte for the rejected ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "tcio/config.h"

namespace tcio::delegate {

/// Client -> delegate descriptors.
inline constexpr int kReqTag = 7601;
/// Delegate -> client replies.
inline constexpr int kRepTag = 7602;

enum class Op : std::int32_t {
  kOpen = 1,   // open `name` at this delegate (aux = fs::OpenFlags)
  kPut = 2,    // write one extent of one segment; payload follows via RMA
  kPutData = 3,  // payload is staged in the granted frame — service it
  kGet = 4,    // read one extent of one segment into a frame
  kGetAck = 5,   // client copied the frame out — free it
  kFlush = 6,  // per-client queue barrier: reply once my earlier work is done
  kClose = 7,  // close; the last close drains the shard and answers everyone
  kAdopt = 8,  // dead-delegate verdict: extents[i].seg list the dead indices
  kShutdown = 9,  // session teardown (client leader only)
};

enum class ReplyKind : std::int32_t {
  kAccepted = 1,  // admitted; value = staging frame index
  kBusy = 2,      // admission refused -> DelegateBusyError at the client
  kOpenDone = 3,
  kPutDone = 4,
  kGetData = 5,   // payload staged in the frame; value = payload bytes
  kFlushDone = 6,
  kCloseDone = 7,  // value = file size after this delegate's drain
  kAdoptDone = 8,
  kShutdownDone = 9,  // a TcioDelegateStats blob follows the header
  kError = 10,        // value = mpi::CapturedError code; message text follows
  kPutRetry = 11,     // frame CRC mismatch on arrival; re-stage the payload
};

/// One in-segment byte range [begin, end) of global segment `seg`. With the
/// integrity pipeline on (TcioConfig::integrity) a put extent also carries
/// the CRC32 of its payload bytes, computed at client staging time, so the
/// delegate can verify the RMA frame crossing before it copies a byte.
struct WireExtent {
  std::int64_t seg = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::uint32_t crc = 0;
  std::uint32_t has_crc = 0;  // 1 = `crc` covers [begin, end)'s payload
};

/// Fixed-size head of every descriptor message. `n_extents` WireExtents and
/// `name_len` name characters follow in the same message; a kPut or kGet
/// carries exactly one extent.
struct RequestHeader {
  Op op = Op::kOpen;
  std::int32_t client = -1;  // requester's rank on the session communicator
  std::int64_t seq = 0;      // per-client sequence number (echoed in replies)
  std::uint64_t file_key = 0;  // fileKey(name) for every op after kOpen
  std::int64_t payload_bytes = 0;
  std::int32_t n_extents = 0;
  std::int32_t name_len = 0;
  std::int64_t aux = 0;  // kOpen: fs::OpenFlags
};

/// One descriptor message as it arrived: the header and what follows it.
struct Request {
  RequestHeader h;
  std::vector<WireExtent> extents;
  std::string name;  // kOpen only
};

/// Parses the `msg.size()` received bytes of one descriptor. A message
/// shorter than its header, whose extent count or name length claims more
/// bytes than arrived, or a kPut/kGet whose extent count is not 1, fails a
/// TCIO_CHECK.
Request parseRequest(std::span<const std::byte> msg);

/// A descriptor header from `client`; the op-specific fields (payload and
/// extent counts, name length, aux) are the caller's to fill.
inline RequestHeader requestHeader(Op op, std::int32_t client,
                                   std::int64_t seq = 0,
                                   std::uint64_t file_key = 0) {
  RequestHeader h;
  h.op = op;
  h.client = client;
  h.seq = seq;
  h.file_key = file_key;
  return h;
}

/// Fixed-size head of every reply. kShutdownDone appends a TcioDelegateStats
/// blob; kError appends `value2` bytes of message text.
struct ReplyMsg {
  ReplyKind kind = ReplyKind::kError;
  std::int32_t pad = 0;
  std::int64_t seq = 0;
  std::int64_t value = 0;
  std::int64_t value2 = 0;
};

/// FNV-1a of the file name: the session-wide key every post-open descriptor
/// carries instead of the name string.
inline std::uint64_t fileKey(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Maximum extents per descriptor: the kAdopt verdict lists every dead
/// delegate, so a session has at most this many delegates.
inline constexpr std::int64_t kMaxWireExtents = 1024;

/// Upper bound of one descriptor message (recv capacity).
inline constexpr Bytes kMaxRequestBytes =
    static_cast<Bytes>(sizeof(RequestHeader)) +
    kMaxWireExtents * static_cast<Bytes>(sizeof(WireExtent)) + 256;

/// Upper bound of one reply message (header + stats blob or error text;
/// senders truncate to fit).
inline Bytes maxReplyBytes() {
  return static_cast<Bytes>(sizeof(ReplyMsg)) + 512;
}

}  // namespace tcio::delegate
