// Deterministic discrete-event engine running every simulated rank as an M:1
// fiber on the thread that calls `Engine::run`.
//
// Execution model
// ---------------
// Every simulated MPI rank runs its body on its own fiber: an mmap'd 8 MiB
// stack, committed lazily as the rank touches it, with a PROT_NONE guard
// region below it so a stack overflow faults (see sim/fiber.h). Exactly one
// fiber runs at a time ("the active rank"), and it keeps running until it
// calls into the engine and the engine hands the turn to another rank; a
// handoff is a direct user-space context switch, with no lock, no condition
// variable and no system call. All interaction with shared simulation state
// (mailboxes, RMA windows, file-system queues, ...) must happen inside
// `Proc::atomic(fn)`. `atomic` first *gates*: the calling rank is suspended
// until it holds the minimum (virtual time, rank) key among all runnable
// ranks. Because shared state is only ever touched inside a gated section,
// every observable event executes in global virtual-time order — a
// conservative discrete-event simulation that is bit-deterministic.
//
// Between engine calls a rank may freely run real computation and advance its
// own clock with `advance()`; that is safe because local work cannot touch
// shared state.
//
// Blocking is expressed with `Event`: a module (inside `atomic`) registers
// the calling rank as a waiter, and some later rank (inside its own `atomic`)
// calls `Proc::complete(event, time)`. `Proc::wait` suspends until then and
// advances the waiter's clock to the completion time.
//
// If every live rank ends up blocked, the engine raises `DeadlockError`
// naming each rank's wait reason — simulated programs cannot hang silently.
// After a failure, every parked rank is resumed once more so that it unwinds
// (throwing `Aborted`) and the destructors on its stack run.
#pragma once

#include <algorithm>
#include <any>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/types.h"

namespace tcio::sim {

class Engine;
class Proc;

namespace detail {
class Fiber;
}

/// One-shot completion token connecting a blocked rank to the rank that will
/// unblock it. Owned by module data structures (message envelopes, lock
/// requests, ...). Fields are only touched by the active rank; user code only
/// passes Events to Proc::wait / Proc::complete.
class Event {
 public:
  bool ready() const { return ready_; }
  SimTime time() const { return time_; }

 private:
  friend class Engine;
  friend class Proc;
  bool ready_ = false;
  SimTime time_ = 0;
  std::vector<Rank> waiters_;
};

/// Per-rank facade handed to the rank body. All members must be called from
/// the owning rank's body only.
class Proc {
 public:
  Rank rank() const { return rank_; }
  int size() const;

  /// The rank whose body is running on the calling thread, or nullptr when
  /// called outside every rank body.
  static Proc* current();

  /// This rank's virtual clock, in seconds.
  SimTime now() const { return now_; }

  /// Charge `dt` seconds of local work (computation, memcpy, ...).
  void advance(SimTime dt) {
    TCIO_CHECK(dt >= 0);
    now_ += dt;
  }

  /// Move the clock forward to at least `t` (no-op if already past).
  void advanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Execute `fn` atomically at this rank's current virtual time, in global
  /// virtual-time order. `fn` must not call atomic/wait itself. Returns fn's
  /// result.
  template <typename F>
  auto atomic(F&& fn) -> decltype(fn()) {
    AtomicSection section(*this);
    return fn();
  }

  /// Mark `e` complete at time `t` and make its waiters runnable. Must be
  /// called inside atomic(). `t` must be >= the caller's gated time.
  void complete(Event& e, SimTime t);

  /// Block until `e` completes; advances this rank's clock to the completion
  /// time. `what` names the wait for deadlock diagnostics. Must NOT be
  /// called inside atomic().
  void wait(Event& e, const char* what);

  /// Deterministic per-rank random stream.
  Rng& rng() { return rng_; }

  /// One slot of rank-local storage for layers that have to find per-rank
  /// state without a handle (the Program 1 C API binds its context here).
  /// Empty at start; destroyed with the Engine.
  std::any& rankLocal() { return rank_local_; }

  Engine& engine() { return *engine_; }

 private:
  friend class Engine;
  Proc(Engine& engine, Rank rank, std::uint64_t seed)
      : engine_(&engine), rank_(rank), rng_(seed) {}

  /// RAII helper: gates on construction (waiting for virtual-time order) and
  /// marks the rank as inside atomic() until destruction.
  class AtomicSection {
   public:
    explicit AtomicSection(Proc& p);
    ~AtomicSection() { p_.in_atomic_ = false; }
    AtomicSection(const AtomicSection&) = delete;
    AtomicSection& operator=(const AtomicSection&) = delete;

   private:
    Proc& p_;
  };

  Engine* engine_;
  Rank rank_;
  SimTime now_ = 0;
  bool in_atomic_ = false;
  Rng rng_;
  std::any rank_local_;
};

/// The engine itself. Construct with the rank count, then `run(body)`;
/// `body(proc)` is executed once per rank, each on its own fiber, all on the
/// calling thread. `run` returns when every rank finished and rethrows the
/// first failure, if any.
class Engine {
 public:
  struct Config {
    int num_ranks = 1;
    /// Seed mixed into each rank's Rng.
    std::uint64_t seed = 1;
  };

  explicit Engine(Config cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs `body` on every rank. May be called once per Engine.
  void run(const std::function<void(Proc&)>& body);

  int numRanks() const { return cfg_.num_ranks; }

  /// Maximum virtual time over all ranks after run() finished — the
  /// simulated makespan.
  SimTime makespan() const;

  /// Total number of gated sections executed (simulation event count).
  std::int64_t eventCount() const { return event_count_; }

 private:
  friend class Proc;

  enum class State : std::uint8_t { kGated, kActive, kBlocked, kDone };

  struct RankRecord {
    State state = State::kGated;
    const char* wait_what = nullptr;
    /// Created by run(); released as soon as the rank is done.
    std::unique_ptr<detail::Fiber> fiber;
  };

  using GateKey = std::pair<SimTime, Rank>;

  /// Binary min-heap of the runnable ranks' keys, minimum (virtual time,
  /// rank) on top. Unlike std::priority_queue it can replace its top in
  /// place, so a handoff costs one sift instead of a push and a pop.
  class GateHeap {
   public:
    bool empty() const { return keys_.empty(); }
    const GateKey& top() const { return keys_.front(); }
    void push(GateKey k) {
      keys_.push_back(k);
      std::push_heap(keys_.begin(), keys_.end(), std::greater<>{});
    }
    void pop() {
      const GateKey last = keys_.back();
      keys_.pop_back();
      if (!keys_.empty()) replaceTop(last);
    }
    /// Puts `k` in place of the top and sifts it down.
    void replaceTop(GateKey k);

   private:
    std::vector<GateKey> keys_;
  };

  static void fiberMain(void* proc);
  void rankMain(Proc& p);
  void gate(Proc& p);
  void yield(Rank r);
  /// Switches from `r`'s fiber to the already activated `next` (the
  /// caller's context when `next` is -1).
  void switchTo(Rank r, Rank next);
  Rank dispatchNext();
  void finishRank(Rank r);
  void fail(std::exception_ptr ep);
  void checkAbort() const;

  Config cfg_;
  std::vector<RankRecord> records_;
  std::vector<std::unique_ptr<Proc>> procs_;
  /// Runnable ranks.
  GateHeap gated_;
  /// The context that called run(); ranks return to it when they finish.
  std::unique_ptr<detail::Fiber> caller_;
  const std::function<void(Proc&)>* body_ = nullptr;
  Rank active_ = -1;
  Rank exited_ = -1;  // finished rank whose fiber the caller must release
  int done_count_ = 0;
  bool abort_ = false;
  std::exception_ptr failure_;
  std::vector<SimTime> final_times_;
  std::int64_t event_count_ = 0;
  bool ran_ = false;
};

/// Thrown into parked ranks to unwind them after another rank failed. User
/// code should not catch it (catch-all handlers in rank bodies must rethrow).
struct Aborted {};

}  // namespace tcio::sim
