#include "mpi/comm.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

namespace tcio::mpi {

namespace {

bool matches(const detail::PendingRecv& pr, Rank src, int tag, int context) {
  return pr.context == context &&
         (pr.want_src == kAnySource || pr.want_src == src) &&
         (pr.want_tag == kAnyTag || pr.want_tag == tag);
}

/// Sets `pr` up as a receive of up to `capacity` bytes into `buf` from `src`
/// with `tag`, on the communicator identified by `context`.
void initPendingRecv(detail::PendingRecv& pr, int context, void* buf,
                     Bytes capacity, Rank src, int tag) {
  pr.want_src = src;
  pr.want_tag = tag;
  pr.context = context;
  pr.buf = static_cast<std::byte*>(buf);
  pr.capacity = capacity;
}

/// A receive as initPendingRecv sets it up, not yet posted.
std::shared_ptr<detail::PendingRecv> newPendingRecv(int context, void* buf,
                                                    Bytes capacity, Rank src,
                                                    int tag) {
  auto pr = std::make_shared<detail::PendingRecv>();
  initPendingRecv(*pr, context, buf, capacity, src, tag);
  return pr;
}

}  // namespace

// -- Point-to-point (core logic runs inside atomic sections) -----------------

namespace {

/// Send logic; requires the caller to be inside an atomic section.
/// `src` is the sender's rank within the communicator identified by
/// `context`; `world_src`/`world_dst` address the physical network.
/// Returns the time the sender's CPU is free.
SimTime sendLocked(World& world, sim::Proc& proc, int context, Rank src,
                   Rank world_src, Rank world_dst, int tag, const void* buf,
                   Bytes n) {
  TCIO_CHECK_MSG(world_dst >= 0 && world_dst < world.numRanks(),
                 "send to invalid rank");
  TCIO_CHECK(n >= 0);
  const net::TransferTimes times =
      world.network().transfer(proc.now(), world_src, world_dst, n);
  detail::Mailbox& mb = world.mailbox(world_dst);
  // Try to match an already-posted receive (FIFO order, MPI matching rules).
  for (auto it = mb.posted.begin(); it != mb.posted.end(); ++it) {
    detail::PendingRecv& pr = **it;
    if (!matches(pr, src, tag, context)) continue;
    TCIO_CHECK_MSG(n <= pr.capacity, "message truncation in recv");
    if (pr.owned != nullptr) {
      *pr.owned = RawBytes(static_cast<std::size_t>(n));
      pr.buf = pr.owned->data();
    }
    if (n > 0) std::memcpy(pr.buf, buf, static_cast<std::size_t>(n));
    pr.src = src;
    pr.tag = tag;
    pr.received = n;
    proc.complete(pr.ev, times.delivered);
    mb.posted.erase(it);
    return times.sender_free;
  }
  // No receiver yet: stash as an unexpected message.
  detail::Envelope env;
  env.src = src;
  env.tag = tag;
  env.context = context;
  env.delivered = times.delivered;
  env.data = RawBytes(static_cast<std::size_t>(n));
  if (n > 0) std::memcpy(env.data.data(), buf, static_cast<std::size_t>(n));
  mb.unexpected.push_back(std::move(env));
  return times.sender_free;
}

/// Receive-posting logic; requires an atomic section. Returns true when an
/// unexpected message matched immediately (pr filled, event completed).
bool postRecvLocked(World& world, sim::Proc& proc, Rank world_dst,
                    std::shared_ptr<detail::PendingRecv> pr) {
  detail::Mailbox& mb = world.mailbox(world_dst);
  for (auto it = mb.unexpected.begin(); it != mb.unexpected.end(); ++it) {
    if (!matches(*pr, it->src, it->tag, it->context)) continue;
    const Bytes n = static_cast<Bytes>(it->data.size());
    TCIO_CHECK_MSG(n <= pr->capacity, "message truncation in recv");
    if (pr->owned != nullptr) {
      *pr->owned = std::move(it->data);
    } else if (n > 0) {
      std::memcpy(pr->buf, it->data.data(), it->data.size());
    }
    pr->src = it->src;
    pr->tag = it->tag;
    pr->received = n;
    proc.complete(pr->ev, it->delivered);
    mb.unexpected.erase(it);
    return true;
  }
  mb.posted.push_back(std::move(pr));
  return false;
}

}  // namespace

void Comm::send(const void* buf, Bytes n, Rank dst, int tag) {
  sim::Proc& p = *proc_;
  const SimTime free_at = p.atomic([&] {
    return sendLocked(*world_, p, context_, rank_, p.rank(), worldRank(dst),
                      tag, buf, n);
  });
  p.advanceTo(free_at);
}

RecvStatus Comm::recv(void* buf, Bytes capacity, Rank src, int tag) {
  Request req = irecv(buf, capacity, src, tag);
  return wait(req);
}

RawBytes Comm::recvOwned(Bytes capacity, Rank src, int tag,
                         RecvStatus* status) {
  RawBytes out;
  auto pr = newPendingRecv(context_, nullptr, capacity, src, tag);
  pr->owned = &out;
  Request req = postRecv(std::move(pr));
  const RecvStatus st = wait(req);
  if (status != nullptr) *status = st;
  return out;
}

Request Comm::isend(const void* buf, Bytes n, Rank dst, int tag) {
  sim::Proc& p = *proc_;
  auto st = std::make_shared<detail::ReqState>();
  p.atomic([&] {
    const SimTime free_at = sendLocked(*world_, p, context_, rank_, p.rank(),
                                       worldRank(dst), tag, buf, n);
    p.complete(st->ev, free_at);
  });
  return Request(std::move(st));
}

Request Comm::irecv(void* buf, Bytes capacity, Rank src, int tag) {
  return postRecv(newPendingRecv(context_, buf, capacity, src, tag));
}

Request Comm::postRecv(std::shared_ptr<detail::PendingRecv> pr) {
  sim::Proc& p = *proc_;
  auto st = std::make_shared<detail::ReqState>();
  st->recv = std::move(pr);
  auto& pr_ev_owner = st->recv;  // keep alive until matched
  p.atomic([&] {
    if (postRecvLocked(*world_, p, p.rank(), pr_ev_owner)) {
      p.complete(st->ev, pr_ev_owner->ev.time());
    }
  });
  return Request(std::move(st));
}

bool Comm::recvUntil(void* buf, Bytes capacity, Rank src, int tag,
                     SimTime deadline, SimTime poll, RecvStatus* out) {
  TCIO_CHECK_MSG(poll > 0, "recvUntil needs a positive poll quantum");
  sim::Proc& p = *proc_;
  auto pr = newPendingRecv(context_, buf, capacity, src, tag);
  // Poll the completion event in virtual-time steps instead of blocking:
  // a blocking wait on a message from a crashed rank would trip the
  // engine's deadlock detector; this failure-detector loop gives up at the
  // deadline instead. Polls are atomic sections, so the schedule stays in
  // global virtual-time order (deterministic).
  //
  // Each look is one section. The first also posts the receive, and the
  // one at the deadline also withdraws it, so a late sender cannot memcpy
  // into a buffer the caller is about to abandon. Folding the post and the
  // withdraw into their looks leaves the schedule as it was: a section
  // that completes only the caller's own receive event makes no other rank
  // runnable, so no rank could run between the separate sections.
  bool posted = false;
  for (;;) {
    const bool last = p.now() >= deadline;
    const bool ready = p.atomic([&] {
      if (!std::exchange(posted, true)) {
        postRecvLocked(*world_, p, p.rank(), pr);
      }
      if (pr->ev.ready()) return true;
      if (last) {
        auto& posts = world_->mailbox(p.rank()).posted;
        const auto it = std::find(posts.begin(), posts.end(), pr);
        TCIO_CHECK_MSG(it != posts.end(),
                       "recvUntil: pending receive neither ready nor posted");
        posts.erase(it);
      }
      return false;
    });
    if (ready) {
      p.advanceTo(pr->ev.time());
      if (out != nullptr) *out = {pr->src, pr->tag, pr->received};
      return true;
    }
    if (last) return false;
    p.advance(std::min(poll, deadline - p.now()));
  }
}

RecvStatus Comm::wait(Request& req) { return waitInternal(req, true); }

void Comm::waitRecv(const std::shared_ptr<detail::PendingRecv>& pr,
                    bool track, const char* site) {
  check::Checker* ck = track && pr->want_src != kAnySource
                           ? world_->checker()
                           : nullptr;
  if (ck != nullptr) {
    // Sends are eager/buffered, so a blocked receive means the peer never
    // sent: a cycle of blocked receives is a true deadlock.
    const Rank target = worldRank(pr->want_src);
    proc_->atomic([&] {
      // The closure keeps the receive state alive so the checker's stored
      // event pointer can never dangle.
      ck->beginWait(proc_->rank(),
                    [target, keep = pr] { return std::vector<Rank>{target}; },
                    &pr->ev, site);
    });
  }
  proc_->wait(pr->ev, site);
  if (ck != nullptr) {
    proc_->atomic([&] { ck->endWait(proc_->rank()); });
  }
}

RecvStatus Comm::waitInternal(Request& req, bool track_wait) {
  TCIO_CHECK_MSG(req.valid(), "wait on an empty Request");
  detail::ReqState& st = *req.state_;
  if (st.recv != nullptr) {
    // Wait on the underlying receive event (the request-level event is only
    // completed for immediate matches).
    waitRecv(st.recv, track_wait, "MPI_Recv");
    RecvStatus status{st.recv->src, st.recv->tag, st.recv->received};
    req.state_.reset();
    return status;
  }
  proc_->wait(st.ev, "MPI_Send");
  req.state_.reset();
  return {};
}

void Comm::waitAll(std::span<Request> reqs) {
  // Model the whole set as ONE AND-wait in the deadlock checker: the rank is
  // blocked only while some leg is pending, and only pending legs are
  // wait-for edges. Registering each wait() separately would claim we block
  // on legs whose message already arrived and false-cycle e.g. a client
  // blocked on a delegate reply plus an already-satisfied collective leg.
  check::Checker* ck = world_->checker();
  bool tracked = false;
  if (ck != nullptr) {
    std::vector<check::Checker::WaitEdge> edges;
    for (Request& r : reqs) {
      if (!r.valid() || r.state_->recv == nullptr) continue;
      const auto& pr = r.state_->recv;
      if (pr->want_src == kAnySource) continue;
      edges.push_back({worldRank(pr->want_src), &pr->ev, pr});
    }
    if (!edges.empty()) {
      tracked = true;
      proc_->atomic([&] {
        ck->beginWaitAll(proc_->rank(), std::move(edges), "MPI_Waitall");
      });
    }
  }
  for (Request& r : reqs) {
    if (r.valid()) waitInternal(r, false);
  }
  if (tracked) {
    proc_->atomic([&] { ck->endWait(proc_->rank()); });
  }
}

// -- Communicator management --------------------------------------------------

Comm Comm::split(int color, int key) {
  const int P = size();
  // Gather (color, key) from every rank of this communicator.
  struct Entry {
    int color;
    int key;
    Rank rank;  // rank within the parent communicator
  };
  const Entry mine{color, key, rank_};
  std::vector<Entry> all(static_cast<std::size_t>(P));
  allgather(&mine, sizeof(Entry), all.data());
  // Distinct colors, sorted, define the new context ids deterministically.
  std::vector<int> colors;
  for (const Entry& e : all) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  // Rank 0 of the parent allocates one context per color and broadcasts.
  int base = 0;
  if (rank_ == 0) {
    proc_->atomic([&] {
      base = world_->allocateContexts(static_cast<int>(colors.size()));
    });
  }
  bcast(&base, sizeof(base), 0);
  const auto color_index = static_cast<int>(
      std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());
  // Members of my color, ordered by (key, parent rank), as world ranks.
  std::vector<Entry> members;
  for (const Entry& e : all) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });
  std::vector<Rank> group;
  Rank my_new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(worldRank(members[i].rank));
    if (members[i].rank == rank_) my_new_rank = static_cast<Rank>(i);
  }
  TCIO_CHECK(my_new_rank >= 0);
  if (check::Checker* ck = world_->checker()) {
    proc_->atomic([&] {
      ck->registerComm(base + color_index, static_cast<int>(members.size()));
    });
  }
  return Comm(*world_, *proc_, std::move(group), my_new_rank,
              base + color_index);
}

Comm Comm::shrink(const std::vector<Rank>& survivors, int context) const {
  TCIO_CHECK_MSG(!survivors.empty(), "shrink to an empty communicator");
  std::vector<Rank> group;
  group.reserve(survivors.size());
  Rank my_new_rank = -1;
  Rank prev = -1;
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    const Rank r = survivors[i];
    TCIO_CHECK_MSG(r > prev && r >= 0 && r < size_,
                   "shrink survivors must be ascending ranks of this comm");
    prev = r;
    group.push_back(worldRank(r));
    if (r == rank_) my_new_rank = static_cast<Rank>(i);
  }
  TCIO_CHECK_MSG(my_new_rank >= 0, "shrink caller must be a survivor");
  if (check::Checker* ck = world_->checker()) {
    proc_->atomic([&] {
      ck->registerComm(context, static_cast<int>(group.size()));
    });
  }
  return Comm(*world_, *proc_, std::move(group), my_new_rank, context);
}

int Comm::nodeOf(Rank r) const {
  return world_->network().nodeOf(worldRank(r));
}

Comm Comm::splitByNode(int key) { return split(nodeOf(rank_), key); }

// -- Collectives --------------------------------------------------------------

void Comm::checkCollective(check::CollOp op, Rank root, Bytes bytes,
                           const char* site) {
  check::Checker* ck = world_->checker();
  if (ck == nullptr) return;
  proc_->atomic([&] {
    ck->onCollective(context_, rank_, proc_->rank(), op, root, bytes, site);
  });
}

void Comm::barrier() {
  checkCollective(check::CollOp::kBarrier, -1, check::kUncheckedBytes,
                  "Comm::barrier");
  const int P = size();
  const int tag = nextCollectiveTag();
  int round = 0;
  for (int step = 1; step < P; step <<= 1, ++round) {
    const Rank dst = (rank_ + step) % P;
    const Rank src = (rank_ - step % P + P) % P;
    Request s = isend(nullptr, 0, dst, tag + round);
    recv(nullptr, 0, src, tag + round);
    wait(s);
  }
}

void Comm::bcast(void* buf, Bytes n, Rank root) {
  checkCollective(check::CollOp::kBcast, root, n, "Comm::bcast");
  const int P = size();
  if (P == 1) return;
  const int tag = nextCollectiveTag();
  const int vr = (rank_ - root + P) % P;
  int mask = 1;
  while (mask < P) {
    if ((vr & mask) != 0) {
      const Rank src = ((vr - mask) + root) % P;
      recv(buf, n, src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < P) {
      const Rank dst = ((vr + mask) + root) % P;
      send(buf, n, dst, tag);
    }
    mask >>= 1;
  }
}

void Comm::reduceBytes(void* data, Bytes n,
                       const std::function<void(void*, const void*)>& combine,
                       Rank root) {
  checkCollective(check::CollOp::kReduce, root, n, "Comm::reduce");
  const int P = size();
  if (P == 1) return;
  const int tag = nextCollectiveTag();
  std::vector<std::byte> scratch(static_cast<std::size_t>(n));
  // Binomial reduce along virtual ranks rooted at `root`.
  const int vr = (rank_ - root + P) % P;
  int mask = 1;
  while (mask < P) {
    if ((vr & mask) == 0) {
      const int vpeer = vr | mask;
      if (vpeer < P) {
        recv(scratch.data(), n, (vpeer + root) % P, tag);
        combine(data, scratch.data());
        chargeCopy(n);
      }
    } else {
      const int vpeer = vr & ~mask;
      send(data, n, (vpeer + root) % P, tag);
      break;
    }
    mask <<= 1;
  }
}

void Comm::allreduceBytes(
    void* data, Bytes n,
    const std::function<void(void*, const void*)>& combine) {
  reduceBytes(data, n, combine, /*root=*/0);
  bcast(data, n, /*root=*/0);
}

void Comm::gather(const void* mine, Bytes per, void* out, Rank root) {
  checkCollective(check::CollOp::kGather, root, per, "Comm::gather");
  const int tag = nextCollectiveTag();
  if (rank_ == root) {
    auto* dst = static_cast<std::byte*>(out);
    std::memcpy(dst + static_cast<std::size_t>(rank_) * per, mine,
                static_cast<std::size_t>(per));
    chargeCopy(per);
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv(dst + static_cast<std::size_t>(r) * per, per, r, tag);
    }
  } else {
    send(mine, per, root, tag);
  }
}

void Comm::allgather(const void* mine, Bytes per, void* out) {
  checkCollective(check::CollOp::kAllgather, -1, per, "Comm::allgather");
  const int P = size();
  auto* dst = static_cast<std::byte*>(out);
  std::memcpy(dst + static_cast<std::size_t>(rank_) * per, mine,
              static_cast<std::size_t>(per));
  chargeCopy(per);
  if (P == 1) return;
  const int tag = nextCollectiveTag();
  const Rank right = (rank_ + 1) % P;
  const Rank left = (rank_ - 1 + P) % P;
  int cur = rank_;  // block we forward next
  for (int step = 0; step < P - 1; ++step) {
    const int incoming = (cur - 1 + P) % P;
    Request s = isend(dst + static_cast<std::size_t>(cur) * per, per, right,
                      tag + (step % 32));
    recv(dst + static_cast<std::size_t>(incoming) * per, per, left,
         tag + (step % 32));
    wait(s);
    cur = incoming;
  }
}

void Comm::allgatherv(const void* mine, Bytes n,
                      std::vector<std::vector<std::byte>>& out) {
  const int P = size();
  std::vector<Bytes> counts(static_cast<std::size_t>(P), 0);
  allgather(&n, sizeof(Bytes), counts.data());
  out.assign(static_cast<std::size_t>(P), {});
  for (int r = 0; r < P; ++r) {
    auto& buf = out[static_cast<std::size_t>(r)];
    buf.resize(static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]));
    if (r == rank_ && n > 0) {
      std::memcpy(buf.data(), mine, static_cast<std::size_t>(n));
      chargeCopy(n);
    }
    if (!buf.empty()) bcast(buf.data(), static_cast<Bytes>(buf.size()), r);
  }
}

void Comm::alltoallv(const void* sendbuf, std::span<const Bytes> sendcounts,
                     std::span<const Offset> senddispls, void* recvbuf,
                     std::span<const Bytes> recvcounts,
                     std::span<const Offset> recvdispls) {
  // Per-peer counts legitimately differ across ranks; only the op kind and
  // call position are part of the matching signature.
  checkCollective(check::CollOp::kAlltoallv, -1, check::kUncheckedBytes,
                  "Comm::alltoallv");
  const int P = size();
  TCIO_CHECK(static_cast<int>(sendcounts.size()) == P);
  TCIO_CHECK(static_cast<int>(recvcounts.size()) == P);
  const auto* sbase = static_cast<const std::byte*>(sendbuf);
  auto* rbase = static_cast<std::byte*>(recvbuf);
  const int tag = nextCollectiveTag();
  sim::Proc& p = *proc_;

  // Self-exchange is a local copy. Receive buffers need not be zero-filled,
  // so a self receive the send does not cover is an error, not zeros.
  const auto self = static_cast<std::size_t>(rank_);
  TCIO_CHECK_MSG(sendcounts[self] == recvcounts[self],
                 "alltoallv self send and receive counts differ");
  if (sendcounts[self] > 0) {
    std::memcpy(rbase + recvdispls[self], sbase + senddispls[self],
                static_cast<std::size_t>(sendcounts[self]));
    chargeCopy(sendcounts[self]);
  }

  // Post every receive, then every send, in one atomic section each — this
  // is the synchronized burst the two-phase exchange creates in practice.
  // The receives live in one block; each posted handle aliases its entry.
  std::size_t nrecv = 0;
  for (int r = 0; r < P; ++r) {
    if (r != rank_ && recvcounts[static_cast<std::size_t>(r)] > 0) ++nrecv;
  }
  const auto block = std::make_shared<detail::PendingRecv[]>(nrecv);
  p.atomic([&] {
    std::size_t i = 0;
    for (int r = 0; r < P; ++r) {
      const auto at = static_cast<std::size_t>(r);
      if (r == rank_ || recvcounts[at] == 0) continue;
      // Matched receives are already complete; waiting on them is free.
      initPendingRecv(block[i], context_, rbase + recvdispls[at],
                      recvcounts[at], r, tag);
      postRecvLocked(*world_, p, p.rank(),
                     std::shared_ptr<detail::PendingRecv>(block, &block[i]));
      ++i;
    }
  });
  SimTime free_at = p.now();
  p.atomic([&] {
    for (int r = 0; r < P; ++r) {
      if (r == rank_ || sendcounts[static_cast<std::size_t>(r)] == 0) continue;
      const SimTime f = sendLocked(
          *world_, p, context_, rank_, p.rank(), worldRank(r), tag,
          sbase + senddispls[static_cast<std::size_t>(r)],
          sendcounts[static_cast<std::size_t>(r)]);
      free_at = std::max(free_at, f);
    }
  });
  p.advanceTo(free_at);
  for (std::size_t i = 0; i < nrecv; ++i) {
    waitRecv(std::shared_ptr<detail::PendingRecv>(block, &block[i]), true,
             "MPI_Alltoallv");
    TCIO_CHECK_MSG(block[i].received == block[i].capacity,
                   "alltoallv peer sent fewer bytes than the receive count");
  }
}

PackedSend::PackedSend(std::vector<Bytes> counts)
    : counts_(std::move(counts)), displs_(counts_.size()) {
  Bytes total = 0;
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    TCIO_CHECK(counts_[d] >= 0);
    displs_[d] = total;
    total += counts_[d];
  }
  cursor_ = displs_;
  buf_ = RawBytes(static_cast<std::size_t>(total));
}

bool PackedSend::filled() const {
  for (std::size_t d = 0; d < counts_.size(); ++d) {
    if (cursor_[d] != displs_[d] + counts_[d]) return false;
  }
  return true;
}

namespace {

/// An exchange's send is one part per rank of `comm`, each filled exactly.
void checkSend(const Comm& comm, const PackedSend& send) {
  TCIO_CHECK(send.counts().size() == static_cast<std::size_t>(comm.size()));
  TCIO_CHECK_MSG(send.filled(),
                 "PackedSend underfilled: a destination holds fewer bytes "
                 "than its count");
}

}  // namespace

SizedExchange sizedAlltoallv(Comm& comm, const PackedSend& send) {
  checkSend(comm, send);
  const auto sp = static_cast<std::size_t>(comm.size());
  // Step 1: every rank learns how many bytes arrive from each peer.
  std::vector<Bytes> recv_sizes(sp), size_counts(sp, sizeof(Bytes));
  std::vector<Offset> size_displs(sp);
  for (std::size_t i = 0; i < sp; ++i) {
    size_displs[i] = static_cast<Offset>(i * sizeof(Bytes));
  }
  comm.alltoallv(send.counts().data(), size_counts, size_displs,
                 recv_sizes.data(), size_counts, size_displs);
  // Step 2: the bytes themselves.
  return alltoallvCounted(comm, send, std::move(recv_sizes));
}

SizedExchange alltoallvCounted(Comm& comm, const PackedSend& send,
                               std::vector<Bytes> recv_counts) {
  checkSend(comm, send);
  const auto sp = static_cast<std::size_t>(comm.size());
  TCIO_CHECK(recv_counts.size() == sp);
  SizedExchange out;
  out.counts = std::move(recv_counts);
  out.displs.resize(sp);
  Bytes recv_total = 0;
  for (std::size_t i = 0; i < sp; ++i) {
    TCIO_CHECK(out.counts[i] >= 0);
    out.displs[i] = recv_total;
    recv_total += out.counts[i];
  }
  out.data = RawBytes(static_cast<std::size_t>(recv_total));
  comm.alltoallv(send.data(), send.counts(), send.displs(), out.data.data(),
                 out.counts, out.displs);
  return out;
}

}  // namespace tcio::mpi
