// Per-rank communicator facade: point-to-point messaging and collectives
// over the simulated network.
//
// Collectives are implemented on top of the same p2p primitives real MPI
// libraries use (dissemination barrier, binomial broadcast/reduce, ring
// allgather, fully-posted alltoallv), so their simulated cost scales the way
// the paper's arguments require (log P control collectives, bursty all-to-all
// data exchange).
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "mpi/request.h"
#include "mpi/world.h"
#include "sim/engine.h"

namespace tcio::mpi {

enum class ReduceOp { kSum, kMax, kMin, kBitOr };

/// One rank's handle on a communicator. The constructor builds COMM_WORLD;
/// `split` derives sub-communicators (MPI_Comm_split semantics). Cheap to
/// pass by reference through the I/O stack.
class Comm {
 public:
  Comm(World& world, sim::Proc& proc)
      : world_(&world), proc_(&proc), rank_(proc.rank()),
        size_(world.numRanks()) {}

  /// This rank's id within the communicator.
  Rank rank() const { return rank_; }
  int size() const { return size_; }
  /// Communicator context id (0 = COMM_WORLD).
  int context() const { return context_; }

  /// Simulation-global rank of communicator rank `r`.
  Rank worldRank(Rank r) const {
    TCIO_CHECK(r >= 0 && r < size_);
    return group_.empty() ? r : group_[static_cast<std::size_t>(r)];
  }

  sim::Proc& proc() { return *proc_; }
  World& world() { return *world_; }

  /// Per-rank simulated memory budget.
  MemoryTracker& memory() { return world_->memory(proc_->rank()); }

  /// Collective MPI_Comm_split: ranks passing the same `color` form a new
  /// communicator, ordered by (key, old rank). Every rank of this
  /// communicator must call it.
  Comm split(int color, int key);

  /// Collective MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): ranks hosted on
  /// the same physical node (per the network topology) form a new
  /// communicator, ordered by (key, old rank).
  Comm splitByNode(int key);

  /// Physical node hosting communicator rank `r` (topology query, no cost).
  int nodeOf(Rank r) const;

  // -- Point-to-point --------------------------------------------------------

  /// Blocking standard-mode send (buffered semantics: returns once the NIC
  /// accepted the message).
  void send(const void* buf, Bytes n, Rank dst, int tag);

  /// Blocking receive. `src` may be kAnySource, `tag` may be kAnyTag.
  RecvStatus recv(void* buf, Bytes capacity, Rank src, int tag);

  /// Blocking receive that hands over the message's own buffer instead of
  /// copying it into the caller's: an unexpected message's payload moves
  /// out of its envelope, and a receive posted first gets a fresh buffer of
  /// the message's size that the send copies into. Matching, truncation
  /// (`capacity`), finish time and engine events are those of recv.
  RawBytes recvOwned(Bytes capacity, Rank src, int tag,
                     RecvStatus* status = nullptr);

  /// Nonblocking variants.
  Request isend(const void* buf, Bytes n, Rank dst, int tag);
  Request irecv(void* buf, Bytes capacity, Rank src, int tag);

  /// Receive with a virtual-time deadline: blocks until a matching message
  /// arrives or this rank's clock reaches `deadline`. On success returns
  /// true and fills `out` like recv; on timeout returns false after
  /// cancelling the posted receive (no dangling buffer is left behind).
  /// Polls in `poll`-sized virtual-time steps — the liveness protocol's
  /// failure-detector primitive.
  bool recvUntil(void* buf, Bytes capacity, Rank src, int tag,
                 SimTime deadline, SimTime poll, RecvStatus* out = nullptr);

  /// Completes one request; returns the receive status (zeros for sends).
  RecvStatus wait(Request& req);
  void waitAll(std::span<Request> reqs);

  // -- Collectives -----------------------------------------------------------

  /// Dissemination barrier: ceil(log2 P) zero-byte exchange rounds.
  void barrier();

  /// Binomial-tree broadcast of `n` bytes from `root`.
  void bcast(void* buf, Bytes n, Rank root);

  /// Binomial reduce to `root` + binomial broadcast (works for any P).
  /// `combine(acc, in)` folds `count` elements of T.
  template <typename T>
  void allreduce(T* data, std::int64_t count, ReduceOp op) {
    allreduceBytes(data, count * static_cast<Bytes>(sizeof(T)),
                   [op, count](void* acc, const void* in) {
                     combineTyped<T>(static_cast<T*>(acc),
                                     static_cast<const T*>(in), count, op);
                   });
  }

  /// Gather `per` bytes from every rank to `root`'s `out` (rank order).
  void gather(const void* mine, Bytes per, void* out, Rank root);

  /// Ring allgather: every rank contributes `per` bytes; `out` receives
  /// P*per bytes ordered by rank.
  void allgather(const void* mine, Bytes per, void* out);

  /// Variable-size allgather: every rank contributes `n` bytes; `out[r]`
  /// receives rank r's contribution (implemented as a count allgather plus
  /// one broadcast per rank — log P rounds each).
  void allgatherv(const void* mine, Bytes n,
                  std::vector<std::vector<std::byte>>& out);

  /// Fully-posted all-to-all exchange with per-peer counts: the access
  /// pattern of ROMIO's two-phase data exchange (irecv all, isend all,
  /// waitall) — deliberately bursty.
  /// send/recv displacements are byte offsets into the respective buffers.
  void alltoallv(const void* sendbuf, std::span<const Bytes> sendcounts,
                 std::span<const Offset> senddispls, void* recvbuf,
                 std::span<const Bytes> recvcounts,
                 std::span<const Offset> recvdispls);

  /// Checker hook: records and cross-verifies this rank's next collective
  /// call on this communicator (see check/checker.h). Public so sibling
  /// layers (RMA window creation, error agreement) can label their own
  /// collective points. No-op when the checker is disabled.
  void checkCollective(check::CollOp op, Rank root, Bytes bytes,
                       const char* site);

  /// Charge local memory-copy time for `n` bytes (pack/unpack costs).
  void chargeCopy(Bytes n) {
    proc_->advance(static_cast<double>(n) / world_->config().memcpy_bandwidth);
  }

  /// Next internal tag block for a collective operation (per-rank counter;
  /// MPI semantics require identical collective call order on all ranks).
  int nextCollectiveTag() {
    const int seq = coll_seq_++;
    return kInternalTagBase + (seq % (1 << 16)) * 64;
  }

  /// Number of window-create calls so far (identifies windows collectively).
  std::size_t nextWindowSeq() { return win_seq_++; }

  /// Reserve a block of `n` consecutive context ids. NOT collective: exactly
  /// one rank calls it and broadcasts the base over an existing channel.
  /// Used to pre-allocate shrink contexts while every rank is still alive.
  int reserveContexts(int n) { return world_->allocateContexts(n); }

  /// Build the communicator of `survivors` (ranks of *this* communicator,
  /// ascending, must include the caller) on the pre-reserved `context`.
  /// NOT collective over this comm — dead ranks never call it; every
  /// survivor must call it with identical arguments (the liveness protocol
  /// guarantees an identical dead set). Collective-tag and window counters
  /// start fresh, so survivors stay in lockstep on the new comm.
  Comm shrink(const std::vector<Rank>& survivors, int context) const;

 private:
  void reduceBytes(void* data, Bytes n,
                   const std::function<void(void*, const void*)>& combine,
                   Rank root);

  /// Posts `pr` (matching an unexpected message at once if one waits).
  Request postRecv(std::shared_ptr<detail::PendingRecv> pr);

  /// wait() body; `track` controls per-request deadlock-checker registration
  /// (waitAll registers one AND-wait for the whole set instead).
  RecvStatus waitInternal(Request& req, bool track);

  /// Blocks until `pr` is matched. With `track`, a wait on a named source is
  /// registered with the deadlock checker (when enabled) under `site`.
  void waitRecv(const std::shared_ptr<detail::PendingRecv>& pr, bool track,
                const char* site);

  /// Sub-communicator constructor (used by split).
  Comm(World& world, sim::Proc& proc, std::vector<Rank> group, Rank rank,
       int context)
      : world_(&world), proc_(&proc), rank_(rank),
        size_(static_cast<int>(group.size())), context_(context),
        group_(std::move(group)) {}

  void allreduceBytes(void* data, Bytes n,
                      const std::function<void(void*, const void*)>& combine);

  template <typename T>
  static void combineTyped(T* acc, const T* in, std::int64_t count,
                           ReduceOp op) {
    for (std::int64_t i = 0; i < count; ++i) {
      switch (op) {
        case ReduceOp::kSum: acc[i] = acc[i] + in[i]; break;
        case ReduceOp::kMax: acc[i] = acc[i] < in[i] ? in[i] : acc[i]; break;
        case ReduceOp::kMin: acc[i] = in[i] < acc[i] ? in[i] : acc[i]; break;
        case ReduceOp::kBitOr:
          if constexpr (std::is_integral_v<T>) {
            acc[i] = acc[i] | in[i];
          } else {
            throw MpiError("kBitOr requires an integral type");
          }
          break;
      }
    }
  }

  World* world_;
  sim::Proc* proc_;
  Rank rank_;
  int size_;
  int context_ = 0;
  /// Communicator rank -> world rank; empty means identity (COMM_WORLD).
  std::vector<Rank> group_;
  int coll_seq_ = 0;
  std::size_t win_seq_ = 0;
};

/// The send side of sizedAlltoallv/alltoallvCounted: every destination's
/// bytes back to back in rank order, written once. Build it in two passes
/// over the same records: count each destination's bytes, construct the
/// send from those counts, then append each destination's bytes in order;
/// each append lands at that destination's cursor. The exchange checks that
/// every destination was filled exactly to its count.
class PackedSend {
 public:
  explicit PackedSend(std::vector<Bytes> counts);
  /// A send to no destination (also what a spent send is reset to).
  PackedSend() : PackedSend(std::vector<Bytes>{}) {}

  /// Copies `n` bytes from `src` to the next free bytes of `dst`'s part.
  void append(std::size_t dst, const void* src, Bytes n) {
    TCIO_CHECK_MSG(dst < cursor_.size() && n >= 0 &&
                       cursor_[dst] + n <= displs_[dst] + counts_[dst],
                   "PackedSend fill overruns its destination's count");
    if (n > 0) {
      std::memcpy(buf_.data() + cursor_[dst], src,
                  static_cast<std::size_t>(n));
    }
    cursor_[dst] += n;
  }

  /// True once every destination holds exactly its count.
  bool filled() const;
  std::span<const Bytes> counts() const { return counts_; }
  std::span<const Offset> displs() const { return displs_; }
  const std::byte* data() const { return buf_.data(); }

 private:
  std::vector<Bytes> counts_;
  std::vector<Offset> displs_;
  std::vector<Offset> cursor_;
  RawBytes buf_;
};

/// What sizedAlltoallv received: every source's bytes back to back in rank
/// order, with per-source byte counts and starting displacements.
struct SizedExchange {
  RawBytes data;
  std::vector<Bytes> counts;
  std::vector<Offset> displs;

  std::span<const std::byte> from(std::size_t src) const {
    return {data.data() + displs[src], static_cast<std::size_t>(counts[src])};
  }
  /// Calls fn(record) for each packed trivially copyable `T` that `src`
  /// sent, in send order. Each record is copied into a local, so the
  /// receive buffer needs no alignment and nothing is allocated. A source
  /// whose bytes are not a whole number of records fails a TCIO_CHECK.
  template <typename T, typename F>
  void forEachRecord(std::size_t src, F&& fn) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::span<const std::byte> raw = from(src);
    TCIO_CHECK_MSG(raw.size() % sizeof(T) == 0,
                   "exchange source sent a partial record");
    for (std::size_t at = 0; at < raw.size(); at += sizeof(T)) {
      T rec{};
      std::memcpy(&rec, raw.data() + at, sizeof(T));
      fn(rec);
    }
  }
};

/// Size-then-payload all-to-all, ROMIO's two-phase recipe: one alltoallv of
/// per-destination byte counts, then one alltoallv of the bytes themselves.
/// Destination d's part of `send` goes to rank d of `comm`, the caller
/// included. Collective.
SizedExchange sizedAlltoallv(Comm& comm, const PackedSend& send);

/// The payload step of sizedAlltoallv, for callers that already know how
/// many bytes each source sends: `recv_counts[s]` bytes arrive from rank s.
/// One alltoallv straight from `send`'s buffer. Collective.
SizedExchange alltoallvCounted(Comm& comm, const PackedSend& send,
                               std::vector<Bytes> recv_counts);

}  // namespace tcio::mpi
