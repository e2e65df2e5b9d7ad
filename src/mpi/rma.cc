#include "mpi/rma.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32.h"

namespace tcio::mpi {

namespace {

/// CPU time to process a lock/unlock request at the target.
constexpr SimTime kLockProcessing = 0.5e-6;

/// Grants as many queued requests as the lock state allows; `t` is the
/// virtual time the lock became available at the target. Must run inside an
/// atomic section of the granting rank.
void processQueueLocked(World& world, sim::Proc& p, detail::TargetLock& tl,
                        Rank world_target, SimTime t) {
  while (!tl.queue.empty()) {
    detail::LockRequest& head = *tl.queue.front();
    if (head.exclusive) {
      if (tl.exclusive_held || tl.shared_holders > 0) return;
      tl.exclusive_held = true;
      tl.holders.push_back(head.origin);
      const SimTime grant = std::max(t, head.arrived);
      const SimTime reply =
          world.network().control(grant, world_target, head.origin).delivered;
      p.complete(head.ev, reply);
      tl.queue.pop_front();
      return;  // exclusive blocks everything behind it
    }
    // Shared: grant the whole consecutive run of shared requests.
    if (tl.exclusive_held) return;
    ++tl.shared_holders;
    tl.holders.push_back(head.origin);
    const SimTime grant = std::max(t, head.arrived);
    const SimTime reply =
        world.network().control(grant, world_target, head.origin).delivered;
    p.complete(head.ev, reply);
    tl.queue.pop_front();
  }
}

}  // namespace

Window Window::create(Comm& comm, Bytes local_size) {
  TCIO_CHECK(local_size >= 0);
  // Window sizes may legitimately differ per rank; only the call position
  // is part of the matching signature.
  comm.checkCollective(check::CollOp::kWinCreate, -1, check::kUncheckedBytes,
                       "Window::create");
  const std::size_t seq = comm.nextWindowSeq();
  sim::Proc& p = comm.proc();
  detail::WinState* ws = nullptr;
  p.atomic([&] {
    ws = &comm.world().windowAt(comm.context(), seq, comm.size());
    ws->mem[static_cast<std::size_t>(comm.rank())] = LazyBytes(local_size);
    ++ws->registered;
  });
  // Registered: from here on the handle owns one release, also when the
  // budget charge or the barrier throws.
  Window win(comm, *ws);
  comm.memory().allocate(local_size, "RMA window (level-2 buffer)");
  comm.barrier();  // all ranks registered before any access
  return win;
}

Window::Window(Window&& other) noexcept
    : comm_(other.comm_),
      world_(other.world_),
      state_(std::exchange(other.state_, nullptr)),
      held_(std::move(other.held_)),
      rma_messages_(other.rma_messages_) {}

Window::~Window() {
  if (state_ != nullptr) world_->releaseWindow(*state_);
}

std::byte* Window::localRange(Offset disp, Bytes n) {
  checkLocalRange(disp, n);
  return memOf(comm_->rank()).range(disp, n);
}

std::byte* Window::localOverwrite(Offset disp, Bytes n) {
  checkLocalRange(disp, n);
  return memOf(comm_->rank()).overwrite(disp, n);
}

void Window::checkLocalRange(Offset disp, Bytes n) const {
  TCIO_CHECK_MSG(disp >= 0 && n >= 0 && disp + n <= localSize(),
                 "local window range outside its bounds");
}

Bytes Window::localSize() const {
  return state_->mem[static_cast<std::size_t>(comm_->rank())].size();
}

void Window::resizeLocal(Bytes new_size) {
  TCIO_CHECK(new_size >= 0);
  const Bytes old_size = localSize();
  if (new_size == old_size) return;
  comm_->proc().atomic([&] { memOf(comm_->rank()).resize(new_size); });
  if (new_size > old_size) {
    comm_->memory().allocate(new_size - old_size, "RMA window growth");
  } else {
    comm_->memory().release(old_size - new_size);
  }
}

void Window::releaseLocalHost() {
  comm_->proc().atomic([&] { memOf(comm_->rank()).release(); });
}

detail::TargetLock& Window::targetLock(Rank target) {
  TCIO_CHECK_MSG(target >= 0 && target < comm_->size(),
                 "lock target out of range");
  return state_->locks[static_cast<std::size_t>(target)];
}

void Window::lock(LockType type, Rank target) {
  TCIO_CHECK_MSG(held_.find(target) == held_.end(),
                 "lock already held on this target");
  sim::Proc& p = comm_->proc();
  World& world = comm_->world();
  check::Checker* ck = world.checker();
  const Rank tgt_world = comm_->worldRank(target);
  auto req = std::make_shared<detail::LockRequest>();
  req->origin = p.rank();  // world rank, for the grant reply
  req->exclusive = (type == LockType::kExclusive);
  p.atomic([&] {
    const SimTime arrived =
        world.network().control(p.now(), p.rank(), tgt_world).delivered +
        kLockProcessing;
    req->arrived = arrived;
    detail::TargetLock& tl = targetLock(target);
    const bool free_now =
        tl.queue.empty() && !tl.exclusive_held &&
        (!req->exclusive || tl.shared_holders == 0);
    if (free_now) {
      if (req->exclusive) {
        tl.exclusive_held = true;
      } else {
        ++tl.shared_holders;
      }
      tl.holders.push_back(p.rank());
      const SimTime reply =
          world.network().control(arrived, tgt_world, p.rank()).delivered;
      p.complete(req->ev, reply);
    } else {
      tl.queue.push_back(req);
      if (ck != nullptr) {
        // Wait-for edges: the current holders plus every request queued
        // ahead of ours. Re-evaluated at cycle-search time so a handoff
        // (holder unlocks, grant goes to an earlier request) never leaves a
        // stale edge.
        detail::TargetLock* tlp = &tl;
        ck->beginWait(p.rank(),
                      [tlp, req] {
                        std::vector<Rank> t = tlp->holders;
                        for (const auto& q : tlp->queue) {
                          if (q.get() == req.get()) break;
                          t.push_back(q->origin);
                        }
                        return t;
                      },
                      &req->ev, "MPI_Win_lock");
      }
    }
  });
  p.wait(req->ev, "MPI_Win_lock");
  if (ck != nullptr) {
    p.atomic([&] {
      ck->endWait(p.rank());
      ck->onEpochOpen(state_, p.rank(), tgt_world, req->exclusive,
                      "MPI_Win_lock");
    });
  }
  held_[target] = Epoch{type, 0.0};
}

void Window::unlock(Rank target) {
  auto it = held_.find(target);
  TCIO_CHECK_MSG(it != held_.end(), "unlock without a held lock");
  const Epoch epoch = it->second;
  held_.erase(it);
  sim::Proc& p = comm_->proc();
  World& world = comm_->world();
  check::Checker* ck = world.checker();
  const Rank tgt_world = comm_->worldRank(target);
  SimTime ack = 0;
  p.atomic([&] {
    // Close the checker epoch before any queued grant can open the next one
    // (the source-buffer CRC re-check runs here).
    if (ck != nullptr) {
      ck->onEpochClose(state_, p.rank(), tgt_world, "MPI_Win_unlock");
    }
    // MPI_Win_unlock returns after every epoch transfer completed at the
    // target; the release control message leaves after the last delivery.
    const SimTime t = std::max(p.now(), epoch.last_delivery);
    const SimTime release_arrived =
        world.network().control(t, p.rank(), tgt_world).delivered +
        kLockProcessing;
    detail::TargetLock& tl = targetLock(target);
    if (epoch.type == LockType::kExclusive) {
      TCIO_CHECK(tl.exclusive_held);
      tl.exclusive_held = false;
    } else {
      TCIO_CHECK(tl.shared_holders > 0);
      --tl.shared_holders;
    }
    const auto hit =
        std::find(tl.holders.begin(), tl.holders.end(), p.rank());
    TCIO_CHECK(hit != tl.holders.end());
    tl.holders.erase(hit);
    processQueueLocked(world, p, tl, tgt_world, release_arrived);
    ack = world.network()
              .control(release_arrived, tgt_world, p.rank())
              .delivered;
  });
  p.advanceTo(ack);
}

void Window::requireLocked(Rank target) const {
  if (held_.find(target) != held_.end()) return;
  if (check::Checker* ck = comm_->world().checker()) {
    ck->failOutsideEpoch(comm_->proc().rank(), comm_->worldRank(target),
                         "Window::requireLocked");
  }
  TCIO_CHECK_MSG(false, "one-sided access outside a lock epoch");
}

void Window::put(Rank target, Offset target_disp, const void* src, Bytes n) {
  const PutBlock b{target_disp, src, n};
  putIndexed(target, std::span<const PutBlock>(&b, 1));
}

void Window::get(Rank target, Offset target_disp, void* dst, Bytes n) {
  const GetBlock b{target_disp, dst, n};
  getIndexed(target, std::span<const GetBlock>(&b, 1));
}

void Window::putIndexed(Rank target, std::span<const PutBlock> blocks) {
  requireLocked(target);
  sim::Proc& p = comm_->proc();
  World& world = comm_->world();
  Bytes total = 0;
  for (const PutBlock& b : blocks) total += b.len;
  comm_->chargeCopy(total);  // datatype pack
  SimTime free_at = 0;
  p.atomic([&] {
    if (check::Checker* ck = world.checker()) {
      std::vector<check::Checker::PutBlockRef> refs;
      refs.reserve(blocks.size());
      for (const PutBlock& b : blocks) {
        refs.push_back({b.target_disp, b.len, b.src});
      }
      ck->onPut(state_, p.rank(), comm_->worldRank(target), refs, "MPI_Put");
    }
    const net::TransferTimes times = world.network().transfer(
        p.now(), p.rank(), comm_->worldRank(target), total, /*rdma=*/true);
    LazyBytes& mem = memOf(target);
    for (const PutBlock& b : blocks) {
      TCIO_CHECK_MSG(b.target_disp >= 0 && b.len >= 0 &&
                         b.target_disp + b.len <= mem.size(),
                     "put outside window bounds");
      if (b.len > 0) {
        std::byte* dst = mem.overwrite(b.target_disp, b.len);
        if (b.crc == nullptr) {
          std::memcpy(dst, b.src, static_cast<std::size_t>(b.len));
        } else {
          *b.crc = crc32Copy(dst, {static_cast<const std::byte*>(b.src),
                                   static_cast<std::size_t>(b.len)});
        }
      } else if (b.crc != nullptr) {
        *b.crc = 0;  // the CRC of no bytes
      }
    }
    held_[target].last_delivery =
        std::max(held_[target].last_delivery, times.delivered);
    free_at = times.sender_free;
  });
  ++rma_messages_;
  p.advanceTo(free_at);
}

void Window::getIndexed(Rank target, std::span<const GetBlock> blocks) {
  requireLocked(target);
  sim::Proc& p = comm_->proc();
  World& world = comm_->world();
  Bytes total = 0;
  for (const GetBlock& b : blocks) total += b.len;
  SimTime delivered = 0;
  p.atomic([&] {
    // The get request travels to the target, then data streams back.
    const SimTime req_arrived =
        world.network()
            .control(p.now(), p.rank(), comm_->worldRank(target))
            .delivered;
    const net::TransferTimes times = world.network().transfer(
        req_arrived, comm_->worldRank(target), p.rank(), total, /*rdma=*/true);
    LazyBytes& mem = memOf(target);
    for (const GetBlock& b : blocks) {
      TCIO_CHECK_MSG(b.target_disp >= 0 && b.len >= 0 &&
                         b.target_disp + b.len <= mem.size(),
                     "get outside window bounds");
      mem.read(b.target_disp, b.dst, b.len);
    }
    delivered = times.delivered;
  });
  ++rma_messages_;
  comm_->chargeCopy(total);  // datatype unpack
  p.advanceTo(delivered);
}

}  // namespace tcio::mpi
