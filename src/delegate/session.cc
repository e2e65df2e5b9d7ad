#include "delegate/session.h"

#include <algorithm>
#include <cstring>

#include "common/env.h"
#include "common/error.h"
#include "delegate/protocol.h"
#include "delegate/server.h"

namespace tcio::delegate {

int Session::effectiveDelegates(const core::TcioConfig& cfg, int comm_size) {
  if (cfg.delegate_ranks < 0) return 0;  // explicit opt-out beats the env
  std::int64_t d = cfg.delegate_ranks > 0
                       ? cfg.delegate_ranks
                       : envInt64("TCIO_DELEGATES", 0);
  const std::int64_t cap = std::min<std::int64_t>(kMaxWireExtents,
                                                  comm_size - 1);
  return static_cast<int>(std::clamp<std::int64_t>(d, 0, cap));
}

Session::Session(mpi::Comm& comm, fs::Filesystem& fsys, core::TcioConfig cfg)
    : comm_(&comm), fsys_(&fsys), cfg_(std::move(cfg)) {
  num_delegates_ = effectiveDelegates(cfg_, comm.size());
  TCIO_CHECK_MSG(num_delegates_ > 0,
                 "delegate::Session needs delegate_ranks > 0 (or "
                 "TCIO_DELEGATES) and at least one client rank");
  dead_.assign(static_cast<std::size_t>(num_delegates_), false);
  // Both collectives below must run on every session rank in this order.
  role_comm_ = std::make_unique<mpi::Comm>(
      comm.split(isDelegate() ? 0 : 1, /*key=*/0));
  const Bytes local = isDelegate()
                          ? cfg_.delegate.queue_capacity * frameBytes()
                          : 0;
  window_ = std::make_unique<mpi::Window>(mpi::Window::create(comm, local));
}

mpi::Comm& Session::clientComm() {
  TCIO_CHECK_MSG(!isDelegate(), "clientComm() called on a delegate rank");
  return *role_comm_;
}

int Session::ownerOfSegment(SegmentId g) const {
  int d = naturalOwnerOf(g);
  for (int i = 0; i < num_delegates_; ++i) {
    const int cand = (d + i) % num_delegates_;
    if (!dead_[static_cast<std::size_t>(cand)]) return cand;
  }
  TCIO_CHECK_MSG(false, "every delegate is dead");
  return -1;
}

int Session::adopterOf(int d) const {
  for (int i = 1; i <= num_delegates_; ++i) {
    const int cand = (d + i) % num_delegates_;
    if (!dead_[static_cast<std::size_t>(cand)]) return cand;
  }
  TCIO_CHECK_MSG(false, "every delegate is dead");
  return -1;
}

std::vector<int> Session::liveDelegates() const {
  std::vector<int> live;
  for (int d = 0; d < num_delegates_; ++d) {
    if (!dead_[static_cast<std::size_t>(d)]) live.push_back(d);
  }
  return live;
}

bool Session::recvReply(void* buf, Bytes capacity, int delegate,
                        mpi::RecvStatus* st) {
  if (!crashEnabled()) {
    *st = comm_->recv(buf, capacity, delegate, kRepTag);
    return true;
  }
  return comm_->recvUntil(buf, capacity, delegate, kRepTag,
                          comm_->proc().now() + cfg_.crash.liveness_window,
                          core::kLivenessPoll, st);
}

void Session::serve() {
  TCIO_CHECK(isDelegate());
  Server server(*this);
  server.run();
}

const core::TcioDelegateStats& Session::finish() {
  TCIO_CHECK(!isDelegate());
  if (finished_) return stats_;
  finished_ = true;
  mpi::Comm& cc = clientComm();
  cc.barrier();  // every client is done with its DFiles

  core::TcioDelegateStats merged;
  if (cc.rank() == 0) {
    // Shut down each live delegate and collect its stats blob. With crash
    // tolerance a delegate may die between the last data op and here; a
    // timeout marks it dead and its counters die with it (fail-stop).
    std::vector<std::byte> buf(static_cast<std::size_t>(maxReplyBytes()));
    for (int d = 0; d < num_delegates_; ++d) {
      if (isDead(d)) continue;
      const RequestHeader h = requestHeader(Op::kShutdown, comm_->rank());
      comm_->send(&h, sizeof(h), d, kReqTag);
      mpi::RecvStatus st;
      if (!recvReply(buf.data(), static_cast<Bytes>(buf.size()), d, &st)) {
        markDead(d);
        continue;
      }
      ReplyMsg r;
      TCIO_CHECK(st.count >=
                 static_cast<Bytes>(sizeof(r) +
                                    sizeof(core::TcioDelegateStats)));
      std::memcpy(&r, buf.data(), sizeof(r));
      TCIO_CHECK(r.kind == ReplyKind::kShutdownDone);
      core::TcioDelegateStats blob;
      std::memcpy(&blob, buf.data() + sizeof(r), sizeof(blob));
      merged.merge(blob);
    }
  }
  cc.bcast(&merged, sizeof(merged), /*root=*/0);

  // Dead-set agreement may be per-client partial at this point only on
  // ranks that never talked to the dead delegate; the bitmap was agreed at
  // the last collective resolve, so just count local knowledge.
  std::int64_t dead_count = 0;
  for (int d = 0; d < num_delegates_; ++d) dead_count += isDead(d) ? 1 : 0;
  std::int64_t client_counters[3] = {client_busy_retries,
                                     client_deferred_resubmissions,
                                     dead_count};
  cc.allreduce(client_counters, 2, mpi::ReduceOp::kSum);
  cc.allreduce(&client_counters[2], 1, mpi::ReduceOp::kMax);
  merged.busy_retries += client_counters[0];
  merged.deferred_resubmissions += client_counters[1];
  merged.delegates_crashed = client_counters[2];
  stats_ = merged;
  return stats_;
}

}  // namespace tcio::delegate
