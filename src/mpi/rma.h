// MPI-2 one-sided communication: windows, passive-target lock/unlock,
// put/get, and indexed (MPI_Type_indexed-style) coalesced transfers.
//
// TCIO's level-2 buffers are windows. The paper's key point — one-sided
// transfers let each process move data end-to-end without a matching call on
// the peer — is modeled faithfully: put/get charge the network between origin
// and target and copy real bytes into/out of the target's window memory, with
// no target-side rank participation. Passive-target synchronization uses a
// lock-request protocol (queueing at the target, grant/release control
// messages), so lock contention costs real simulated time.
#pragma once

#include <span>
#include <unordered_map>

#include "common/types.h"
#include "mpi/comm.h"

namespace tcio::mpi {

enum class LockType { kExclusive, kShared };

/// Per-rank handle on a collectively created RMA window. It can be moved
/// but not copied or assigned; the destructor releases the handle
/// (MPI_Win_free), and the window's shared state and memory are freed when
/// the last rank of the group releases.
class Window {
 public:
  /// Collective: every rank contributes `local_size` bytes of window memory.
  /// Must be called by all ranks in the same program order. The memory reads
  /// as zero until written. Its host bytes are allocated by the first put or
  /// local access and zeroed lazily, a chunk at a time, where nothing wrote
  /// them (LazyBytes); a get never allocates. The model charges
  /// `local_size` now.
  static Window create(Comm& comm, Bytes local_size);

  Window(Window&& other) noexcept;
  Window& operator=(Window&&) = delete;
  ~Window();

  /// This rank's window memory at [disp, disp + n), every byte holding the
  /// window's content (what read as zero is zeroed now). The pointer stays
  /// valid until resizeLocal or releaseLocalHost; bytes outside the range
  /// may not be accessed through it.
  std::byte* localRange(Offset disp, Bytes n);
  /// As localRange, for a caller that writes all `n` bytes before anything
  /// reads them: nothing in the range is zeroed first.
  std::byte* localOverwrite(Offset disp, Bytes n);
  Bytes localSize() const;

  /// Non-collective, local-only resize of this rank's window memory
  /// (existing bytes are preserved; growth reads as zero). Legal because
  /// every RMA access bounds-checks the *target's* current size at access
  /// time inside the origin's atomic section — there is no cached remote
  /// size to invalidate. Callers that change the window's layout (TCIO's
  /// takeover-capacity growth) must themselves guarantee no peer addresses
  /// the old layout after the resize; TCIO does so by growing every
  /// survivor inside the same agreed recovery step.
  void resizeLocal(Bytes new_size);

  /// Non-collective, local-only: gives back this rank's host bytes. The
  /// memory then reads as zero, as before its first write, and the next
  /// write allocates it again; the logical size, the bounds and
  /// the model's memory charge stay. Whatever the bytes held is lost, so
  /// the caller must know that no peer's put since its last read matters
  /// (TCIO's node aggregator releases drained staging slots, whose zero
  /// headers already say "empty").
  void releaseLocalHost();

  /// Acquire the (window, target) lock. Blocks until granted; charges the
  /// request/grant control round-trip.
  void lock(LockType type, Rank target);

  /// Release the lock; blocks until all epoch transfers completed at the
  /// target (MPI_Win_unlock semantics).
  void unlock(Rank target);

  /// Contiguous put/get inside a lock epoch on `target`.
  void put(Rank target, Offset target_disp, const void* src, Bytes n);
  void get(Rank target, Offset target_disp, void* dst, Bytes n);

  /// One coalesced transfer of several disjoint blocks (the paper's
  /// MPI_Type_indexed + single one-sided call optimization): one network
  /// message carrying the sum of the block sizes. A block with `crc` set
  /// gets the CRC-32 of its bytes there, taken inside the copy into the
  /// target's memory (host work only: the model charges nothing for it).
  struct PutBlock {
    Offset target_disp = 0;
    const void* src = nullptr;
    Bytes len = 0;
    std::uint32_t* crc = nullptr;
  };
  void putIndexed(Rank target, std::span<const PutBlock> blocks);

  struct GetBlock {
    Offset target_disp = 0;
    void* dst = nullptr;
    Bytes len = 0;
  };
  void getIndexed(Rank target, std::span<const GetBlock> blocks);

  // Stats for tests/benches.
  std::int64_t oneSidedMessages() const { return rma_messages_; }

 private:
  Window(Comm& comm, detail::WinState& state)
      : comm_(&comm), world_(&comm.world()), state_(&state) {}

  void requireLocked(Rank target) const;
  void checkLocalRange(Offset disp, Bytes n) const;
  detail::TargetLock& targetLock(Rank target);
  LazyBytes& memOf(Rank r) {
    return state_->mem[static_cast<std::size_t>(r)];
  }

  Comm* comm_;
  /// Released through the World, not the Comm, so the handle may be
  /// destroyed after the communicator it was created on.
  World* world_;
  detail::WinState* state_;  // null once moved from
  /// Targets this rank currently holds a lock on, with the max delivery time
  /// of epoch transfers (unlock must wait for them).
  struct Epoch {
    LockType type = LockType::kExclusive;
    SimTime last_delivery = 0;
  };
  std::unordered_map<Rank, Epoch> held_;
  std::int64_t rma_messages_ = 0;
};

}  // namespace tcio::mpi
