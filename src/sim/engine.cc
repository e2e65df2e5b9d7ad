#include "sim/engine.h"

#include <algorithm>
#include <sstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "sim/fiber.h"

namespace tcio::sim {
namespace {

// The rank whose fiber is running on this thread (Proc::current).
thread_local Proc* t_current = nullptr;

/// Keeps freed heap in the process. Every rank allocates and frees on the
/// one thread that runs the job, from one malloc arena. By default glibc
/// returns each large freed block to the kernel (trim, or munmap above the
/// mmap threshold), and the next rank to allocate that size faults the same
/// pages back in. A 1 GiB trim threshold and blocks up to 32 MiB served
/// from the heap let freed pages be reused instead. Set once per process.
void keepFreedHeap() {
#if defined(__GLIBC__)
  static const bool kSet = [] {
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    return true;
  }();
  static_cast<void>(kSet);
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Proc
// ---------------------------------------------------------------------------

int Proc::size() const { return engine_->numRanks(); }

Proc* Proc::current() { return t_current; }

Proc::AtomicSection::AtomicSection(Proc& p) : p_(p) {
  p.engine_->gate(p);
  p.in_atomic_ = true;
}

void Proc::complete(Event& e, SimTime t) {
  Engine& eng = *engine_;
  TCIO_CHECK_MSG(eng.active_ == rank_, "complete() outside atomic()");
  TCIO_CHECK_MSG(!e.ready_, "event completed twice");
  e.ready_ = true;
  e.time_ = t;
  for (Rank w : e.waiters_) {
    Engine::RankRecord& rec = eng.records_[w];
    TCIO_CHECK(rec.state == Engine::State::kBlocked);
    rec.state = Engine::State::kGated;
    rec.wait_what = nullptr;
    Proc& pw = *eng.procs_[w];
    pw.now_ = std::max(pw.now_, t);
    eng.gated_.push({pw.now_, w});
  }
  e.waiters_.clear();
}

void Proc::wait(Event& e, const char* what) {
  Engine& eng = *engine_;
  eng.checkAbort();
  TCIO_CHECK_MSG(!in_atomic_, "wait() inside atomic()");
  if (e.ready_) {
    advanceTo(e.time_);
    return;
  }
  TCIO_CHECK_MSG(eng.active_ == rank_, "wait() by a non-active rank");
  Engine::RankRecord& rec = eng.records_[rank_];
  rec.state = Engine::State::kBlocked;
  rec.wait_what = what;
  e.waiters_.push_back(rank_);
  eng.yield(rank_);
  // complete() already advanced our clock and re-gated us; we are active now.
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(Config cfg) : cfg_(cfg) {
  TCIO_CHECK(cfg_.num_ranks >= 1);
  keepFreedHeap();
  records_ = std::vector<RankRecord>(static_cast<std::size_t>(cfg_.num_ranks));
  final_times_.assign(static_cast<std::size_t>(cfg_.num_ranks), 0.0);
  procs_.reserve(static_cast<std::size_t>(cfg_.num_ranks));
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    // Mix the rank into the seed so streams are independent.
    const std::uint64_t seed =
        cfg_.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(r) + 1;
    procs_.emplace_back(std::unique_ptr<Proc>(new Proc(*this, r, seed)));
  }
}

Engine::~Engine() = default;

void Engine::run(const std::function<void(Proc&)>& body) {
  TCIO_CHECK_MSG(!ran_, "Engine::run may only be called once");
  ran_ = true;
  body_ = &body;
  caller_ = std::make_unique<detail::Fiber>();
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    records_[r].fiber =
        std::make_unique<detail::Fiber>(&Engine::fiberMain, procs_[r].get());
    gated_.push({0.0, r});
  }
  // Non-null when this job runs inside another engine's rank body.
  Proc* const outer = t_current;
  const auto resume = [&](Rank r) {
    caller_->switchTo(*records_[r].fiber);
    t_current = outer;
    if (exited_ >= 0) {
      records_[exited_].fiber.reset();
      exited_ = -1;
    }
  };
  // Ranks hand the turn to each other directly. Control comes back here
  // only when a rank finishes (its stack can then be released) or when the
  // job aborts.
  for (Rank r = dispatchNext(); r >= 0; r = dispatchNext()) resume(r);
  if (abort_) {
    // Resume every parked rank once more: it throws Aborted where it is
    // suspended, so the destructors on its stack run, and then exits.
    for (Rank r = 0; r < cfg_.num_ranks; ++r) {
      if (records_[r].state != State::kDone) resume(r);
    }
  }
  for (const RankRecord& rec : records_) {
    TCIO_CHECK_MSG(rec.state == State::kDone,
                   "Engine::run returned with a rank still parked");
  }
  body_ = nullptr;
  if (failure_) std::rethrow_exception(failure_);
}

void Engine::fiberMain(void* proc) {
  Proc& p = *static_cast<Proc*>(proc);
  p.engine_->rankMain(p);
}

void Engine::rankMain(Proc& p) {
  const Rank r = p.rank_;
  detail::Fiber& self = *records_[r].fiber;
  self.started();
  t_current = &p;
  // A rank first entered only to unwind a failed job has nothing to run.
  if (!abort_) {
    try {
      (*body_)(p);
    } catch (const Aborted&) {
      // Unwound after another rank's failure.
    } catch (...) {
      fail(std::current_exception());
    }
  }
  finishRank(r);
  exited_ = r;
  self.exitTo(*caller_);
}

void Engine::finishRank(Rank r) {
  records_[r].state = State::kDone;
  ++done_count_;
  final_times_[r] = procs_[r]->now_;
  if (active_ == r) active_ = -1;
}

SimTime Engine::makespan() const {
  SimTime m = 0;
  for (SimTime t : final_times_) m = std::max(m, t);
  return m;
}

void Engine::gate(Proc& p) {
  const Rank r = p.rank_;
  checkAbort();
  TCIO_CHECK_MSG(active_ == r, "atomic() by a non-active rank");
  TCIO_CHECK_MSG(!p.in_atomic_, "atomic() inside atomic()");
  ++event_count_;
  const GateKey key{p.now_, r};
  // Fast path: we are already the minimum runnable rank — keep running.
  if (gated_.empty() || key < gated_.top()) return;
  // Hand off to the earlier rank: our key takes its place on top of the heap
  // and sinks once, where queueing ourselves and then dispatching the top
  // would sift twice. The next rank is still the (time, rank) minimum.
  const Rank next = gated_.top().second;
  gated_.replaceTop(key);
  records_[r].state = State::kGated;
  records_[next].state = State::kActive;
  active_ = next;
  switchTo(r, next);
}

void Engine::yield(Rank r) {
  TCIO_CHECK(active_ == r);
  active_ = -1;
  switchTo(r, dispatchNext());
}

void Engine::switchTo(Rank r, Rank next) {
  // Nobody else can run: the job aborted, and the caller unwinds the ranks.
  detail::Fiber& to = next >= 0 ? *records_[next].fiber : *caller_;
  records_[r].fiber->switchTo(to);
  t_current = procs_[r].get();
  checkAbort();
}

Rank Engine::dispatchNext() {
  TCIO_CHECK(active_ == -1);
  if (abort_) return -1;
  if (!gated_.empty()) {
    const Rank r = gated_.top().second;
    gated_.pop();
    records_[r].state = State::kActive;
    active_ = r;
    return r;
  }
  if (done_count_ == cfg_.num_ranks) return -1;  // everyone finished
  // No runnable rank and somebody is still alive: they are all blocked.
  std::ostringstream os;
  os << "simulated deadlock: all live ranks are blocked —";
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    if (records_[r].state == State::kBlocked) {
      os << " rank " << r << " waiting on "
         << (records_[r].wait_what != nullptr ? records_[r].wait_what : "?")
         << ";";
    }
  }
  fail(std::make_exception_ptr(DeadlockError(os.str())));
  return -1;
}

void Engine::GateHeap::replaceTop(GateKey k) {
  // Sift down from the root: move the smaller child up into the hole until
  // `k` is no larger than both children.
  const std::size_t n = keys_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && keys_[child + 1] < keys_[child]) ++child;
    if (!(keys_[child] < k)) break;
    keys_[hole] = keys_[child];
    hole = child;
  }
  keys_[hole] = k;
}

void Engine::fail(std::exception_ptr ep) {
  if (!failure_) failure_ = std::move(ep);
  abort_ = true;
}

void Engine::checkAbort() const {
  if (abort_) throw Aborted{};
}

}  // namespace tcio::sim
