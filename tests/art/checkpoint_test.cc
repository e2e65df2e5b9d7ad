#include "art/checkpoint.h"

#include <gtest/gtest.h>

#include "fs/client.h"
#include "mpi/runtime.h"

namespace tcio::art {

// Each case's ctest name ends in what this prints. Argument-dependent lookup
// finds it only in Backend's own namespace, not in the anonymous one.
static void PrintTo(Backend b, std::ostream* os) {
  switch (b) {
    case Backend::kTcio: *os << "tcio"; return;
    case Backend::kVanillaMpiio: *os << "vanilla_mpiio"; return;
    case Backend::kFilePerProcess: *os << "file_per_process"; return;
  }
}

namespace {

fs::FsConfig fsCfg() {
  fs::FsConfig c;
  c.num_osts = 4;
  c.stripe_size = 4096;
  return c;
}

mpi::JobConfig job(int p) {
  mpi::JobConfig c;
  c.num_ranks = p;
  return c;
}

CheckpointConfig cpCfg(Backend b) {
  CheckpointConfig c;
  c.backend = b;
  c.tcio.segment_size = 4096;
  c.tcio.segments_per_rank = 8;
  return c;
}

std::vector<FttTree> makeTrees(int rank, int size, std::int64_t num_trees) {
  std::vector<FttTree> trees;
  for (std::int64_t id : treesOfRank(num_trees, rank, size)) {
    trees.push_back(generateTree(5, id, TreeGenConfig{}));
  }
  return trees;
}

TEST(CheckpointTest, TreesOfRankRoundRobinPartition) {
  const auto r0 = treesOfRank(10, 0, 4);
  const auto r3 = treesOfRank(10, 3, 4);
  EXPECT_EQ(r0, (std::vector<std::int64_t>{0, 4, 8}));
  EXPECT_EQ(r3, (std::vector<std::int64_t>{3, 7}));
  // Partition covers everything exactly once.
  std::vector<bool> seen(10, false);
  for (int r = 0; r < 4; ++r) {
    for (auto id : treesOfRank(10, r, 4)) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(id)]);
      seen[static_cast<std::size_t>(id)] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

class CheckpointBackendTest : public ::testing::TestWithParam<Backend> {};
INSTANTIATE_TEST_SUITE_P(Backends, CheckpointBackendTest,
                         ::testing::Values(Backend::kTcio,
                                           Backend::kVanillaMpiio));

TEST_P(CheckpointBackendTest, DumpThenRestartRoundTrips) {
  const Backend backend = GetParam();
  fs::Filesystem fsys(fsCfg());
  const int P = 4;
  const std::int64_t ntrees = 10;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    const auto mine = makeTrees(comm.rank(), P, ntrees);
    dumpCheckpoint(comm, fsys, "art.chk", mine, ntrees, cpCfg(backend));
    const auto loaded = loadCheckpoint(comm, fsys, "art.chk", cpCfg(backend));
    ASSERT_EQ(loaded.size(), mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(loaded[i], mine[i]) << "tree index " << i;
    }
  });
}

TEST(CheckpointTest, BackendsProduceIdenticalFiles) {
  const int P = 4;
  const std::int64_t ntrees = 8;
  auto runBackend = [&](Backend b, const char* name) {
    fs::Filesystem fsys(fsCfg());
    mpi::runJob(job(P), [&](mpi::Comm& comm) {
      dumpCheckpoint(comm, fsys, name, makeTrees(comm.rank(), P, ntrees),
                     ntrees, cpCfg(b));
    });
    std::vector<std::byte> contents(
        static_cast<std::size_t>(fsys.peekSize(name)));
    fsys.peek(name, 0, contents);
    return contents;
  };
  EXPECT_EQ(runBackend(Backend::kTcio, "a.chk"),
            runBackend(Backend::kVanillaMpiio, "b.chk"));
}

TEST(CheckpointTest, TcioIsFasterThanVanillaForManySmallArrays) {
  const int P = 4;
  const std::int64_t ntrees = 16;
  auto timeBackend = [&](Backend b) {
    fs::Filesystem fsys(fsCfg());
    SimTime t = 0;
    mpi::runJob(job(P), [&](mpi::Comm& comm) {
      dumpCheckpoint(comm, fsys, "t.chk", makeTrees(comm.rank(), P, ntrees),
                     ntrees, cpCfg(b));
      comm.barrier();
      if (comm.rank() == 0) t = comm.proc().now();
    });
    return t;
  };
  const SimTime tcio_t = timeBackend(Backend::kTcio);
  const SimTime vanilla_t = timeBackend(Backend::kVanillaMpiio);
  EXPECT_LT(tcio_t * 3, vanilla_t);  // the paper reports up to ~100x
}

TEST(CheckpointTest, RestartAfterSimulationStepsMatches) {
  // Dump, advance, dump again; the second snapshot must reflect the
  // advanced state (regression against stale level-2 contents).
  fs::Filesystem fsys(fsCfg());
  const int P = 2;
  const std::int64_t ntrees = 4;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    auto mine = makeTrees(comm.rank(), P, ntrees);
    dumpCheckpoint(comm, fsys, "s0.chk", mine, ntrees, cpCfg(Backend::kTcio));
    Rng rng(static_cast<std::uint64_t>(comm.rank()) + 100);
    for (auto& t : mine) advanceTree(t, rng, TreeGenConfig{});
    dumpCheckpoint(comm, fsys, "s1.chk", mine, ntrees, cpCfg(Backend::kTcio));
    const auto loaded =
        loadCheckpoint(comm, fsys, "s1.chk", cpCfg(Backend::kTcio));
    ASSERT_EQ(loaded.size(), mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(loaded[i], mine[i]);
    }
  });
}

TEST(CheckpointTest, EmptyCheckpointIsValid) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    dumpCheckpoint(comm, fsys, "empty.chk", {}, 0, cpCfg(Backend::kTcio));
    const auto loaded =
        loadCheckpoint(comm, fsys, "empty.chk", cpCfg(Backend::kTcio));
    EXPECT_TRUE(loaded.empty());
  });
}

TEST(CheckpointTest, LoadRejectsNonCheckpointFile) {
  fs::Filesystem fsys(fsCfg());
  EXPECT_THROW(
      mpi::runJob(job(1),
                  [&](mpi::Comm& comm) {
                    fs::FsClient fc(fsys, comm.proc());
                    fs::FsFile f = fc.open("junk.dat", fs::kWrite | fs::kCreate);
                    const std::int64_t garbage = 0x1234;
                    fc.pwrite(f, 0, &garbage, 8);
                    fc.pwrite(f, 8, &garbage, 8);
                    fc.close(f);
                    loadCheckpoint(comm, fsys, "junk.dat",
                                   cpCfg(Backend::kTcio));
                  }),
      Error);
}

}  // namespace
}  // namespace tcio::art
