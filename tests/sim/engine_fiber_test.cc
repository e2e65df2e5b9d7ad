// Regression tests for the engine's fiber mechanics: suspension and resumption
// through wait(), unwinding of parked ranks, per-rank stacks, stack release,
// and per-rank C++ exception state.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace tcio::sim {
namespace {

Engine::Config cfg(int p) {
  Engine::Config c;
  c.num_ranks = p;
  return c;
}

TEST(EngineFiberTest, BlockedRankResumesAndFinishes) {
  Engine eng(cfg(3));
  Event ev;
  std::vector<int> finished(3, 0);
  std::vector<std::pair<SimTime, Rank>> log;
  eng.run([&](Proc& p) {
    if (p.rank() == 1) {
      p.advance(3.0);
      p.atomic([&] {
        log.emplace_back(p.now(), p.rank());
        p.complete(ev, p.now());
      });
    } else {
      p.wait(ev, "rank 1's completion");
      EXPECT_DOUBLE_EQ(p.now(), 3.0);
      p.advance(1.5 * (p.rank() + 1));
      p.atomic([&] { log.emplace_back(p.now(), p.rank()); });
    }
    finished[static_cast<std::size_t>(p.rank())] = 1;
  });
  EXPECT_EQ(finished, std::vector<int>({1, 1, 1}));
  EXPECT_EQ(eng.eventCount(), 3);
  EXPECT_DOUBLE_EQ(eng.makespan(), 3.0 + 1.5 * 3);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], std::make_pair(3.0, 1));
  EXPECT_EQ(log[1], std::make_pair(4.5, 0));
  EXPECT_EQ(log[2], std::make_pair(7.5, 2));
}

// Counts destructions of objects living on rank stacks.
struct StackGuard {
  explicit StackGuard(int& n) : destroyed(n) {}
  ~StackGuard() { ++destroyed; }
  StackGuard(const StackGuard&) = delete;
  StackGuard& operator=(const StackGuard&) = delete;
  int& destroyed;
};

TEST(EngineFiberTest, FailureUnwindsParkedRanks) {
  Engine eng(cfg(4));
  Event never;
  int destroyed = 0;
  EXPECT_THROW(eng.run([&](Proc& p) {
                 StackGuard guard(destroyed);
                 switch (p.rank()) {
                   case 0:
                   case 1:
                     p.wait(never, "never");  // parked blocked
                     break;
                   case 2:
                     p.advance(10.0);
                     p.atomic([] {});  // parked gated behind rank 3
                     break;
                   default:
                     p.advance(1.0);
                     p.atomic([] {});
                     throw FsError("rank 3 fails");
                 }
                 ADD_FAILURE() << "rank " << p.rank() << " ran past the abort";
               }),
               FsError);
  EXPECT_EQ(destroyed, 4);
}

TEST(EngineFiberTest, DeadlockUnwindsEveryRank) {
  Engine eng(cfg(5));
  Event never;
  int destroyed = 0;
  EXPECT_THROW(eng.run([&](Proc& p) {
                 StackGuard guard(destroyed);
                 p.advance(static_cast<double>(p.rank()));
                 p.atomic([] {});
                 p.wait(never, "never");
               }),
               DeadlockError);
  EXPECT_EQ(destroyed, 5);
}

TEST(EngineFiberTest, RanksNotYetStartedAreRetiredWithoutRunning) {
  Engine eng(cfg(6));
  int entered = 0;
  EXPECT_THROW(eng.run([&](Proc& p) {
                 ++entered;
                 if (p.rank() == 0) throw MpiError("rank 0 fails at once");
               }),
               MpiError);
  EXPECT_EQ(entered, 1);
}

TEST(EngineFiberTest, RankBodyMayUseMegabytesOfStack) {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  const int P = 4;
  Engine eng(cfg(P));
  std::vector<int> intact(P, 0);
  eng.run([&](Proc& p) {
    volatile unsigned char buf[kBytes];
    const auto fill = static_cast<unsigned char>(p.rank() + 1);
    for (std::size_t i = 0; i < kBytes; i += 512) buf[i] = fill;
    buf[kBytes - 1] = fill;
    // Every other rank runs (and fills its own buffer) before this resumes.
    p.advance(1.0);
    p.atomic([] {});
    bool ok = buf[kBytes - 1] == fill;
    for (std::size_t i = 0; i < kBytes; i += 512) ok = ok && buf[i] == fill;
    intact[static_cast<std::size_t>(p.rank())] = ok ? 1 : 0;
  });
  EXPECT_EQ(intact, std::vector<int>(P, 1));
}

// Number of mappings in this process's address space.
int mappingCount() {
  std::ifstream maps("/proc/self/maps");
  int n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(EngineFiberTest, StacksAreReleasedOnEveryPath) {
  const int P = 256;
  Event never;
  const auto cycle = [&] {
    { Engine idle(cfg(P)); }  // constructed and destroyed without run()
    {
      Engine ok(cfg(P));
      ok.run([](Proc& p) { p.atomic([] {}); });
    }
    {
      Engine failed(cfg(P));
      EXPECT_THROW(failed.run([&](Proc& p) {
                     if (p.rank() == P - 1) throw FsError("last rank fails");
                     p.wait(never, "never");
                   }),
                   FsError);
    }
  };
  cycle();  // let the allocator reach its steady state first
  const int before = mappingCount();
  for (int i = 0; i < 3; ++i) cycle();
  // A leaked stack adds at least one mapping per rank.
  EXPECT_LT(mappingCount() - before, P / 4);
}

// Suspends its rank from a destructor (during unwinding, when an exception
// is in flight) and records what std::uncaught_exceptions() says on resume.
struct GateOnDestroy {
  GateOnDestroy(Proc& p, int& uncaught) : proc(p), uncaught_out(uncaught) {}
  ~GateOnDestroy() {
    proc.advance(5.0);
    proc.atomic([] {});
    uncaught_out = std::uncaught_exceptions();
  }
  GateOnDestroy(const GateOnDestroy&) = delete;
  GateOnDestroy& operator=(const GateOnDestroy&) = delete;
  Proc& proc;
  int& uncaught_out;
};

TEST(EngineFiberTest, ExceptionStateIsPerRank) {
  // The two ranks alternate: each suspends inside a catch handler while the
  // other throws and catches, then rank 0 suspends mid-unwind while rank 1
  // asks how many exceptions are in flight.
  Engine eng(cfg(2));
  std::string rethrown0, rethrown1;
  int uncaught0 = -1, uncaught1 = -1;
  eng.run([&](Proc& p) {
    if (p.rank() == 0) {
      try {
        throw std::runtime_error("rank 0");
      } catch (...) {
        p.advance(1.0);
        p.atomic([] {});  // rank 1 throws and catches meanwhile
        try {
          throw;
        } catch (const std::runtime_error& e) {
          rethrown0 = e.what();
        }
      }
      try {
        GateOnDestroy g(p, uncaught0);
        throw std::logic_error("unwinding");
      } catch (const std::logic_error&) {
      }
    } else {
      try {
        throw std::out_of_range("rank 1");
      } catch (...) {
        p.advance(2.0);
        p.atomic([] {});  // rank 0 rethrows its own exception meanwhile
        try {
          throw;
        } catch (const std::out_of_range& e) {
          rethrown1 = e.what();
        }
      }
      // Rank 0 is suspended in a destructor, mid-unwind, right now.
      uncaught1 = std::uncaught_exceptions();
      p.advance(10.0);
      p.atomic([] {});
    }
  });
  EXPECT_EQ(rethrown0, "rank 0");
  EXPECT_EQ(rethrown1, "rank 1");
  EXPECT_EQ(uncaught0, 1);
  EXPECT_EQ(uncaught1, 0);
}

}  // namespace
}  // namespace tcio::sim
