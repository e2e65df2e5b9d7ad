// Tests for the runtime correctness checker (src/check/): each seeded
// protocol violation must be caught with a rank-attributed diagnostic, and
// healthy runs must pass with the hook counters proving the verifiers
// actually ran.
#include "check/checker.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "mpi/comm.h"
#include "mpi/rma.h"
#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio {
namespace {

using check::CheckFailure;
using check::Checker;
using mpi::Comm;
using mpi::LockType;
using mpi::Window;

// Enable the checker for this whole binary before the first World is built
// (Checker::enabled() caches the env var on first use).
const bool kCheckerEnabled = [] {
  ::setenv("TCIO_CHECK", "1", /*overwrite=*/1);
  return true;
}();

void expectContains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "diagnostic \"" << msg << "\" lacks \"" << needle << "\"";
}

// -- Collective matching ------------------------------------------------------

TEST(CheckerCollectiveTest, SkippedCollectiveDiagnosesDivergentRank) {
  mpi::JobConfig jc;
  jc.num_ranks = 4;
  try {
    mpi::runJob(jc, [&](Comm& comm) {
      if (comm.rank() != 2) comm.barrier();  // rank 2 skips the collective
      int x = 0;
      comm.bcast(&x, sizeof(x), 0);
    });
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "collective mismatch");
    expectContains(msg, "rank 2");
    expectContains(msg, "bcast");
    expectContains(msg, "barrier");
  }
}

TEST(CheckerCollectiveTest, RootMismatchCaught) {
  mpi::JobConfig jc;
  jc.num_ranks = 3;
  try {
    mpi::runJob(jc, [&](Comm& comm) {
      int x = 0;
      comm.bcast(&x, sizeof(x), comm.rank() == 1 ? 1 : 0);
    });
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "collective mismatch");
    expectContains(msg, "rank 1");
    expectContains(msg, "root=");
  }
}

TEST(CheckerCollectiveTest, HealthyCollectivesPassAndAreCounted) {
  mpi::JobConfig jc;
  jc.num_ranks = 4;
  mpi::runJob(jc, [&](Comm& comm, mpi::World& world) {
    std::int64_t v = comm.rank();
    comm.allreduce(&v, 1, mpi::ReduceOp::kSum);
    EXPECT_EQ(v, 0 + 1 + 2 + 3);
    comm.barrier();
    Comm sub = comm.split(comm.rank() % 2, 0);
    std::int64_t s = sub.rank();
    sub.allreduce(&s, 1, mpi::ReduceOp::kMax);
    comm.barrier();
    if (comm.rank() == 0) {
      Checker* ck = world.checker();
      ASSERT_NE(ck, nullptr);
      EXPECT_GT(ck->stats().collectives_checked, 0);
      EXPECT_EQ(ck->violations(), 0);
    }
  });
}

TEST(CheckerCollectiveTest, MatchingUserTagsPassAndAreCounted) {
  mpi::JobConfig jc;
  jc.num_ranks = 4;
  mpi::runJob(jc, [&](Comm& comm, mpi::World& world) {
    // Every rank stamps the same phase ordinal; the matcher verifies the
    // tag alongside the MPI signature and counts the comparison.
    for (std::int64_t phase = 0; phase < 3; ++phase) {
      check::ScopedUserTag tag(world.checker(), comm.rank(), phase);
      comm.barrier();
    }
    comm.barrier();  // untagged: matches anything, not counted
    if (comm.rank() == 0) {
      Checker* ck = world.checker();
      ASSERT_NE(ck, nullptr);
      // 3 tagged barriers, 3 verifying ranks each (the recorder records).
      EXPECT_EQ(ck->stats().tags_checked, 9);
      EXPECT_EQ(ck->violations(), 0);
    }
  });
}

TEST(CheckerCollectiveTest, UserTagMismatchDiagnosesDesyncedPhase) {
  mpi::JobConfig jc;
  jc.num_ranks = 3;
  try {
    mpi::runJob(jc, [&](Comm& comm, mpi::World& world) {
      // Rank 1 believes it is in a different application phase; the barrier
      // signatures (op/root/bytes) still line up, so only the tag catches it.
      const std::int64_t phase = comm.rank() == 1 ? 9002 : 7001;
      check::ScopedUserTag tag(world.checker(), comm.rank(), phase);
      comm.barrier();
    });
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "user tag mismatch");
    expectContains(msg, "barrier");
    expectContains(msg, "(actual)");
    expectContains(msg, "(expected)");
    // Both phases appear regardless of which rank recorded first.
    expectContains(msg, "7001");
    expectContains(msg, "9002");
  }
}

TEST(CheckerCollectiveTest, UntaggedRankMatchesAnyTag) {
  mpi::JobConfig jc;
  jc.num_ranks = 4;
  mpi::runJob(jc, [&](Comm& comm, mpi::World& world) {
    // Only even ranks are tagged: every pairing involves an untagged side
    // at least once, so nothing throws and the scoped tag restores cleanly.
    if (comm.rank() % 2 == 0) {
      check::ScopedUserTag tag(world.checker(), comm.rank(), 42);
      comm.barrier();
    } else {
      comm.barrier();
    }
    comm.barrier();
    if (comm.rank() == 0) {
      Checker* ck = world.checker();
      ASSERT_NE(ck, nullptr);
      EXPECT_EQ(ck->userTag(0), Checker::kNoUserTag);  // scope restored
      EXPECT_EQ(ck->violations(), 0);
    }
  });
}

// -- RMA epoch machine --------------------------------------------------------

TEST(CheckerRmaTest, PutOutsideEpochCaughtWithRank) {
  mpi::JobConfig jc;
  jc.num_ranks = 2;
  try {
    mpi::runJob(jc, [&](Comm& comm) {
      Window win = Window::create(comm, 64);
      if (comm.rank() == 1) {
        const int v = 7;
        win.put(0, 0, &v, sizeof(v));  // no lock epoch: must be rejected
      }
      comm.barrier();
    });
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "rank 1");
    expectContains(msg, "outside a lock epoch");
  }
}

TEST(CheckerRmaTest, SourceBufferReuseBeforeUnlockCaught) {
  mpi::JobConfig jc;
  jc.num_ranks = 2;
  try {
    mpi::runJob(jc, [&](Comm& comm) {
      Window win = Window::create(comm, 64);
      if (comm.rank() == 0) {
        std::int64_t v = 41;
        win.lock(LockType::kShared, 1);
        win.put(1, 0, &v, sizeof(v));
        v = 42;  // reuse before unlock: MPI forbids this
        win.unlock(1);
      }
    });
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "rank 0");
    expectContains(msg, "source");
    expectContains(msg, "before closing the epoch");
  }
}

TEST(CheckerRmaTest, ConflictingOverlappingPutsCaught) {
  mpi::JobConfig jc;
  jc.num_ranks = 3;
  try {
    mpi::runJob(jc, [&](Comm& comm) {
      Window win = Window::create(comm, 64);
      if (comm.rank() != 0) win.lock(LockType::kShared, 0);
      comm.barrier();  // both epochs on target 0 are open now
      if (comm.rank() != 0) {
        const std::int32_t v = comm.rank();  // differing payloads
        win.put(0, 0, &v, sizeof(v));
      }
      comm.barrier();  // keep both epochs open across both puts
      if (comm.rank() != 0) win.unlock(0);
      comm.barrier();
    });
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "conflicting overlapping RMA puts");
    expectContains(msg, "rank 1");
    expectContains(msg, "rank 2");
  }
}

TEST(CheckerRmaTest, IdenticalOverlappingPutsAreBenign) {
  mpi::JobConfig jc;
  jc.num_ranks = 3;
  mpi::runJob(jc, [&](Comm& comm, mpi::World& world) {
    Window win = Window::create(comm, 64);
    if (comm.rank() != 0) win.lock(LockType::kShared, 0);
    comm.barrier();
    // Same payload from both origins. The put source must outlive the
    // epoch: the checker re-reads it at unlock.
    const std::int32_t v = 1;
    if (comm.rank() != 0) win.put(0, 0, &v, sizeof(v));
    comm.barrier();  // keep both epochs open across both puts
    if (comm.rank() != 0) win.unlock(0);
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_GT(world.checker()->stats().benign_overlaps, 0);
      EXPECT_EQ(world.checker()->violations(), 0);
    }
  });
}

TEST(CheckerRmaTest, HealthyEpochsPassAndAreCounted) {
  mpi::JobConfig jc;
  jc.num_ranks = 2;
  mpi::runJob(jc, [&](Comm& comm, mpi::World& world) {
    Window win = Window::create(comm, 64);
    const Rank peer = 1 - comm.rank();
    std::int64_t v = comm.rank() + 100;
    win.lock(LockType::kExclusive, peer);
    win.put(peer, 0, &v, sizeof(v));
    win.unlock(peer);
    comm.barrier();
    std::int64_t got = 0;
    win.lock(LockType::kShared, comm.rank());
    win.get(comm.rank(), 0, &got, sizeof(got));
    win.unlock(comm.rank());
    EXPECT_EQ(got, peer + 100);
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_GT(world.checker()->stats().epochs_opened, 0);
      EXPECT_GT(world.checker()->stats().puts_checked, 0);
      EXPECT_EQ(world.checker()->violations(), 0);
    }
  });
}

TEST(CheckerRmaTest, FreedWindowLeavesNoEpochRecords) {
  // Windows are freed with their last handle, so the next window may reuse
  // the freed state's address. Every other round drops the handles with an
  // exclusive epoch still open, as a crashed rank's unwinding does; a stale
  // record would then be reported as a conflicting grant in the next round.
  constexpr int kRounds = 40;
  mpi::JobConfig jc;
  jc.num_ranks = 3;
  mpi::runJob(jc, [&](Comm& comm, mpi::World& world) {
    const Rank target = (comm.rank() + 1) % comm.size();
    for (int round = 0; round < kRounds; ++round) {
      {
        Window win = Window::create(comm, 64);
        const std::int64_t v = round;
        win.lock(LockType::kExclusive, target);
        win.put(target, 8 * comm.rank(), &v, sizeof(v));
        if (round % 2 == 0) win.unlock(target);
      }
      comm.barrier();
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(world.checker()->stats().epochs_opened, kRounds * 3);
      EXPECT_EQ(world.checker()->violations(), 0);
      EXPECT_EQ(world.liveWindows(), 0u);
    }
  });
}

// -- Wait-for-graph deadlock detection ----------------------------------------

TEST(CheckerDeadlockTest, RecvCycleReportedInsteadOfEngineTimeout) {
  mpi::JobConfig jc;
  jc.num_ranks = 2;
  try {
    mpi::runJob(jc, [&](Comm& comm) {
      int x = 0;
      // Each rank receives from the other; nobody sends: a true deadlock.
      comm.recv(&x, sizeof(x), 1 - comm.rank(), /*tag=*/5);
    });
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "wait-for cycle");
    expectContains(msg, "rank 0");
    expectContains(msg, "rank 1");
    expectContains(msg, "MPI_Recv");
  }
}

TEST(CheckerDeadlockTest, WaitAllWithSatisfiablePartnerIsNotACycle) {
  // Regression: waitAll is an AND-wait. Rank 0 blocks on BOTH an isend to 1
  // and an irecv from 1 while rank 1 is still blocked receiving from 0 — a
  // per-request model would draw 0 -> 1 and 1 -> 0 and report a cycle, but
  // rank 0's in-flight isend satisfies rank 1, so the run must complete.
  mpi::JobConfig jc;
  jc.num_ranks = 2;
  mpi::runJob(jc, [&](Comm& comm) {
    int in = 0;
    int out = comm.rank() + 41;
    if (comm.rank() == 0) {
      std::vector<mpi::Request> reqs;
      reqs.push_back(comm.isend(&out, sizeof(out), 1, /*tag=*/9));
      reqs.push_back(comm.irecv(&in, sizeof(in), 1, /*tag=*/9));
      comm.waitAll(reqs);
      EXPECT_EQ(in, 42);
    } else {
      comm.recv(&in, sizeof(in), 0, /*tag=*/9);
      EXPECT_EQ(in, 41);
      comm.send(&out, sizeof(out), 0, /*tag=*/9);
    }
  });
}

TEST(CheckerDeadlockTest, WaitAllReceiveCycleStillCaught) {
  // A genuine AND-wait deadlock: each rank's waitAll contains an irecv the
  // other will never satisfy — the checker must name the cycle, not let the
  // engine time out.
  mpi::JobConfig jc;
  jc.num_ranks = 2;
  try {
    mpi::runJob(jc, [&](Comm& comm) {
      int x = 0;
      std::vector<mpi::Request> reqs;
      reqs.push_back(comm.irecv(&x, sizeof(x), 1 - comm.rank(), /*tag=*/6));
      comm.waitAll(reqs);
    });
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "wait-for cycle");
    expectContains(msg, "rank 0");
    expectContains(msg, "rank 1");
  }
}

// -- TCIO segment ownership (checker unit level) ------------------------------

constexpr unsigned kRw = fs::kRead | fs::kWrite;

TEST(CheckerOwnershipTest, TransferToNonOwnedSlotCaught) {
  Checker ck(2);
  ck.registerFile("f", /*num_ranks=*/2, /*segment_size=*/1024,
                  /*segments_per_rank=*/4, kRw);
  ck.onSegmentTransfer("f", /*g=*/2, /*dest=*/0, "test");  // 2 % 2 == 0: ok
  try {
    // Segment 3 belongs to rank 3 % 2 == 1; landing it on rank 0 is the
    // seeded "write to a non-owned slot" violation.
    ck.onSegmentTransfer("f", /*g=*/3, /*dest=*/0, "tests/flush");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "segment 3");
    expectContains(msg, "rank 0");
    expectContains(msg, "owns it to rank 1");
    expectContains(msg, "tests/flush");
  }
}

TEST(CheckerOwnershipTest, TakeoverRemapChangesExpectedOwner) {
  Checker ck(4);
  ck.registerFile("f", 4, 1024, 4, kRw);
  ck.noteDeath("f", 1);
  ck.noteRemap("f", /*g=*/5, /*new_owner=*/2);  // 5 % 4 == 1 died
  ck.onSegmentTransfer("f", 5, 2, "replay");    // new owner: fine
  EXPECT_THROW(ck.onSegmentTransfer("f", 5, 1, "stale"), CheckFailure);
}

TEST(CheckerOwnershipTest, DoubleDrainCaught) {
  Checker ck(2);
  ck.registerFile("f", 2, 1024, 4, kRw);
  ck.noteDirty("f", 0);
  ck.onDrain("f", 0, 0, "close");
  try {
    ck.onDrain("f", 0, 0, "close");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    expectContains(e.what(), "drained twice");
  }
}

TEST(CheckerOwnershipTest, MissingDrainFailsCoverageAtClose) {
  Checker ck(2);
  ck.registerFile("f", 2, 1024, 4, kRw);
  ck.registerFile("f", 2, 1024, 4, kRw);
  ck.noteDirty("f", 0);
  ck.noteDirty("f", 1);
  ck.onDrain("f", 0, 0, "close");
  ck.onFileClosed("f", /*final_size=*/2048, 0);
  try {
    ck.onFileClosed("f", /*final_size=*/2048, 1);  // segment 1 never drained
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "dirty segment 1");
    expectContains(msg, "never written back");
  }
}

TEST(CheckerOwnershipTest, TruncatedAndLostSegmentsAreExemptFromCoverage) {
  Checker ck(2);
  ck.registerFile("f", 2, 1024, 4, kRw);
  ck.registerFile("f", 2, 1024, 4, kRw);
  ck.noteDirty("f", 0);
  ck.noteDirty("f", 2);  // beyond final size: truncated away
  ck.noteDirty("f", 1);
  ck.noteSegmentLost("f", 1);  // journaling off, owner died
  ck.onDrain("f", 0, 0, "close");
  ck.onFileClosed("f", /*final_size=*/1024, 0);
  ck.onFileClosed("f", /*final_size=*/1024, 1);  // must not throw
  EXPECT_EQ(ck.violations(), 0);
}

// -- One access mode per open ------------------------------------------------

TEST(CheckerOpenModeTest, DivergentOpenFlagsCaught) {
  Checker ck(2);
  ck.registerFile("f", 2, 1024, 4, kRw);
  try {
    ck.registerFile("f", 2, 1024, 4, fs::kRead);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "file 'f'");
    expectContains(msg, "divergent open flags");
  }
}

TEST(CheckerOpenModeTest, ReopenInAnotherModeStartsAFreshSession) {
  Checker ck(2);
  ck.registerFile("f", 2, 1024, 4, kRw);
  ck.registerFile("f", 2, 1024, 4, kRw);
  ck.onFileClosed("f", /*final_size=*/0, 0);
  ck.onFileClosed("f", /*final_size=*/0, 1);
  ck.registerFile("f", 2, 1024, 4, fs::kRead);  // must not throw
  ck.registerFile("f", 2, 1024, 4, fs::kRead);
  EXPECT_EQ(ck.violations(), 0);
}

TEST(CheckerOpenModeTest, TcioOpenWithDivergentModeNamesTheFile) {
  // A read-only file skips the write-side collectives, so a rank that opens
  // in another mode than its peers would leave them waiting; the checker
  // stops the open instead, before any collective that depends on the mode.
  fs::Filesystem fsys(fs::FsConfig{});
  mpi::JobConfig jc;
  jc.num_ranks = 3;
  core::TcioConfig cfg;
  cfg.segment_size = 256;
  cfg.segments_per_rank = 4;
  try {
    mpi::runJob(jc, [&](Comm& comm) {
      core::File(comm, fsys, "mode.dat", fs::kWrite | fs::kCreate, cfg)
          .close();
      core::File f(comm, fsys, "mode.dat",
                   comm.rank() == 1 ? fs::kRead : kRw, cfg);
      std::int64_t v = 0;
      f.readAt(0, &v, sizeof v);
      f.fetch();
      f.close();
    });
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    expectContains(msg, "file 'mode.dat'");
    expectContains(msg, "divergent open flags");
  }
}

}  // namespace
}  // namespace tcio
