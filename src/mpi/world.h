// Shared state of the simulated MPI job: mailboxes, RMA windows, per-rank
// memory budgets, and the network the job runs on.
//
// One `World` exists per simulated job. All mutation happens inside
// Proc::atomic() sections (enforced by the engine's active-rank discipline).
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "common/lazy_bytes.h"
#include "common/memory_tracker.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/engine.h"

namespace tcio::mpi {

/// Wildcards for point-to-point matching (MPI_ANY_SOURCE / MPI_ANY_TAG).
constexpr Rank kAnySource = -1;
constexpr int kAnyTag = -1;

/// Tags >= kInternalTagBase are reserved for collectives and window setup.
constexpr int kInternalTagBase = 1 << 28;

/// Cost knobs of the MPI layer itself (on top of the raw network).
struct MpiConfig {
  /// Bandwidth of local pack/unpack and buffer copies, bytes/s.
  double memcpy_bandwidth = 6.0e9;
};

/// A byte buffer whose bytes start indeterminate, for buffers that are
/// written in full before they are read: unlike std::vector<std::byte>, it
/// does not zero-fill first.
class RawBytes {
 public:
  RawBytes() = default;
  explicit RawBytes(std::size_t n)
      : bytes_(n > 0 ? std::make_unique_for_overwrite<std::byte[]>(n)
                     : nullptr),
        size_(n) {}

  std::byte* data() { return bytes_.get(); }
  const std::byte* data() const { return bytes_.get(); }
  std::size_t size() const { return size_; }

 private:
  std::unique_ptr<std::byte[]> bytes_;
  std::size_t size_ = 0;
};

namespace detail {

/// A message that arrived before a matching receive was posted.
struct Envelope {
  Rank src = -1;  // rank within the communicator's group
  int tag = 0;
  int context = 0;  // communicator context id — isolates communicators
  RawBytes data;    // the sender's bytes, copied once at the send
  SimTime delivered = 0;
};

/// A receive posted before its message arrived.
struct PendingRecv {
  Rank want_src = kAnySource;
  int want_tag = kAnyTag;
  int context = 0;
  std::byte* buf = nullptr;
  Bytes capacity = 0;
  /// Set for a receive that takes the message's own buffer
  /// (Comm::recvOwned): the match moves an unexpected envelope's payload
  /// into *owned, or, when the receive was posted first, copies the send
  /// into a fresh buffer there.
  RawBytes* owned = nullptr;
  // Filled by the matching send:
  Rank src = -1;
  int tag = 0;
  Bytes received = 0;
  sim::Event ev;
};

struct Mailbox {
  std::deque<Envelope> unexpected;
  std::deque<std::shared_ptr<PendingRecv>> posted;
};

/// One exclusive/shared lock queue per (window, target rank).
struct LockRequest {
  Rank origin = -1;
  bool exclusive = false;
  SimTime arrived = 0;
  sim::Event ev;
};

struct TargetLock {
  int shared_holders = 0;
  bool exclusive_held = false;
  std::deque<std::shared_ptr<LockRequest>> queue;
  /// World ranks currently granted this lock (maintained for the checker's
  /// wait-for-graph edges; cheap enough to track unconditionally).
  std::vector<Rank> holders;
};

/// Shared state of one RMA window across all ranks. Lives from the first
/// rank's create until the last registered rank releases its handle
/// (MPI_Win_free), so a crashed rank's memory outlives it while survivors
/// still hold the window.
struct WinState {
  int context = 0;  // registry key: (context, seq)
  std::size_t seq = 0;
  /// Per rank: the logical size bounds every access and is what the model
  /// charges; host bytes exist once written, zeroed lazily (LazyBytes).
  std::vector<LazyBytes> mem;
  std::vector<TargetLock> locks;  // per target rank
  int registered = 0;             // ranks that completed create
  int released = 0;               // handles released so far
};

}  // namespace detail

/// Shared state container. Construct once, then hand to per-rank `Comm`s.
class World {
 public:
  World(sim::Engine& engine, net::Network& network, MpiConfig cfg = {})
      : engine_(engine),
        network_(network),
        cfg_(cfg),
        mailboxes_(static_cast<std::size_t>(engine.numRanks())),
        memory_(static_cast<std::size_t>(engine.numRanks())) {
    if (check::Checker::enabled()) {
      checker_ = std::make_unique<check::Checker>(engine.numRanks());
    }
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Engine& engine() { return engine_; }
  net::Network& network() { return network_; }
  const MpiConfig& config() const { return cfg_; }
  int numRanks() const { return engine_.numRanks(); }

  detail::Mailbox& mailbox(Rank dst) {
    return mailboxes_[static_cast<std::size_t>(dst)];
  }

  /// Per-rank simulated memory budget (unlimited unless a bench sets one).
  MemoryTracker& memory(Rank r) { return memory_[static_cast<std::size_t>(r)]; }

  /// Window registry: windows are created collectively in program order
  /// within a communicator, so (context, seq) identifies one window across
  /// its group. `group_size` ranks contribute memory.
  detail::WinState& windowAt(int context, std::size_t seq, int group_size) {
    auto& slot = windows_[{context, seq}];
    if (slot == nullptr) {
      slot = std::make_unique<detail::WinState>();
      slot->context = context;
      slot->seq = seq;
      slot->mem.resize(static_cast<std::size_t>(group_size));
      slot->locks.resize(static_cast<std::size_t>(group_size));
    }
    return *slot;
  }

  /// Releases one rank's handle on `ws`; the last registered rank's release
  /// frees the window. Needs no atomic section: it is called from handle
  /// destructors, which also run while a failed job unwinds, and no rank
  /// can observe the window once every handle is gone.
  void releaseWindow(detail::WinState& ws) {
    if (++ws.released < ws.registered) return;
    if (checker_ != nullptr) checker_->onWindowFreed(&ws);
    windows_.erase({ws.context, ws.seq});
  }

  /// Windows still registered (not yet freed by their last handle).
  std::size_t liveWindows() const { return windows_.size(); }

  /// Host bytes allocated across every live window and rank (only ranks
  /// whose window memory was touched count).
  Bytes windowHostBytes() const {
    Bytes total = 0;
    for (const auto& [key, ws] : windows_) {
      for (const LazyBytes& m : ws->mem) total += m.allocatedBytes();
    }
    return total;
  }

  /// Allocates `n` fresh communicator context ids (called by one rank of a
  /// splitting communicator inside an atomic section; the value is then
  /// broadcast to the group).
  int allocateContexts(int n) {
    const int base = next_context_;
    next_context_ += n;
    return base;
  }

  /// Runtime correctness checker; null unless TCIO_CHECK is enabled. Every
  /// hook call is guarded by this null check, so the disabled cost is one
  /// load + branch per call site.
  check::Checker* checker() { return checker_.get(); }

 private:
  sim::Engine& engine_;
  net::Network& network_;
  MpiConfig cfg_;
  std::vector<detail::Mailbox> mailboxes_;
  std::vector<MemoryTracker> memory_;
  std::map<std::pair<int, std::size_t>, std::unique_ptr<detail::WinState>>
      windows_;
  int next_context_ = 1;  // 0 is COMM_WORLD
  std::unique_ptr<check::Checker> checker_;
};

}  // namespace tcio::mpi
