// Checkpoint integrity (CRC) and the file-per-process (N-N) backend.
#include <gtest/gtest.h>

#include "art/checkpoint.h"
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

std::vector<FttTree> makeTrees(int rank, int size, std::int64_t n) {
  std::vector<FttTree> trees;
  for (std::int64_t id : treesOfRank(n, rank, size)) {
    trees.push_back(generateTree(5, id, TreeGenConfig{}));
  }
  return trees;
}

TEST(FilePerProcessTest, DumpRestartRoundTrip) {
  fs::Filesystem fsys(fsCfg());
  const int P = 4;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    const auto mine = makeTrees(comm.rank(), P, 10);
    dumpCheckpoint(comm, fsys, "nn.chk", mine, 10,
                   cpCfg(Backend::kFilePerProcess));
    const auto loaded =
        loadCheckpoint(comm, fsys, "nn.chk", cpCfg(Backend::kFilePerProcess));
    ASSERT_EQ(loaded.size(), mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_EQ(loaded[i], mine[i]);
    }
  });
  // N files plus the meta file exist.
  EXPECT_TRUE(fsys.exists("nn.chk"));
  for (int r = 0; r < P; ++r) {
    EXPECT_TRUE(fsys.exists("nn.chk." + std::to_string(r)));
  }
}

TEST(FilePerProcessTest, RedecompositionAcrossRankCounts) {
  // Written by 6 ranks, restored by 3 — readers pull from foreign files.
  fs::Filesystem fsys(fsCfg());
  const std::int64_t ntrees = 9;
  mpi::runJob(job(6), [&](mpi::Comm& comm) {
    dumpCheckpoint(comm, fsys, "re.chk", makeTrees(comm.rank(), 6, ntrees),
                   ntrees, cpCfg(Backend::kFilePerProcess));
  });
  mpi::runJob(job(3), [&](mpi::Comm& comm) {
    const auto loaded =
        loadCheckpoint(comm, fsys, "re.chk", cpCfg(Backend::kFilePerProcess));
    const auto want_ids = treesOfRank(ntrees, comm.rank(), 3);
    ASSERT_EQ(loaded.size(), want_ids.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      const FttTree expect =
          generateTree(5, want_ids[i], TreeGenConfig{});
      EXPECT_EQ(loaded[i], expect);
    }
  });
}

class CrcBackendTest : public ::testing::TestWithParam<Backend> {};
INSTANTIATE_TEST_SUITE_P(Backends, CrcBackendTest,
                         ::testing::Values(Backend::kTcio,
                                           Backend::kVanillaMpiio,
                                           Backend::kFilePerProcess));

TEST_P(CrcBackendTest, CorruptionIsDetectedOnRestart) {
  const Backend backend = GetParam();
  const int P = 2;
  const std::int64_t ntrees = 4;
  auto dump = [&](fs::Filesystem& fsys) {
    mpi::runJob(job(P), [&](mpi::Comm& comm) {
      dumpCheckpoint(comm, fsys, "c.chk", makeTrees(comm.rank(), P, ntrees),
                     ntrees, cpCfg(backend));
    });
  };
  // Pin the stored-block checksum domain off: the corruption must survive to
  // restart so the checkpoint's own CRC catches it, not FS read-repair.
  fs::FsConfig fcfg = fsCfg();
  fcfg.integrity = -1;

  // Count the dump's write calls on a pristine file system (stripe count is
  // 1, so every call is exactly one OST request)...
  std::int64_t writes = 0;
  {
    fs::Filesystem clean(fcfg);
    dump(clean);
    writes = clean.stats().write_requests;
  }
  ASSERT_GT(writes, 0);

  // ...then repeat the dump with a seeded stored-block bit flip armed on the
  // final write — deep in the data region, inside CRC-covered tree payload.
  fs::Filesystem fsys(fcfg);
  FaultConfig faults;
  faults.seed = 20260809;
  faults.corruptions.push_back(
      {/*rank=*/-1, CorruptSite::kStoredBlock, /*after=*/writes - 1});
  fsys.installFaultPlan(faults);
  dump(fsys);
  EXPECT_EQ(fsys.stats().corruptions_injected, 1);

  EXPECT_THROW(
      mpi::runJob(job(P),
                  [&](mpi::Comm& comm) {
                    loadCheckpoint(comm, fsys, "c.chk", cpCfg(backend));
                  }),
      FsError);
}

TEST_P(CrcBackendTest, FlippedCellCountIsACrcMismatchNotAnAllocation) {
  // A flip in the high bytes of tree 0's level-0 cell count (2^40 + 1
  // cells): the restart parser must reject the count before allocating
  // from it, and the blob's CRC then names the corruption.
  const Backend backend = GetParam();
  const int P = 2;
  const std::int64_t ntrees = 4;
  fs::FsConfig fcfg = fsCfg();
  fcfg.integrity = -1;  // the checkpoint's own CRC must see the flip
  fs::Filesystem fsys(fcfg);
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    dumpCheckpoint(comm, fsys, "c.chk", makeTrees(comm.rank(), P, ntrees),
                   ntrees, cpCfg(backend));
  });
  // Tree 0's table entry: after magic and count in the shared file, after
  // the count in writer 0's file of the file-per-process backend.
  const bool per_process = backend == Backend::kFilePerProcess;
  const std::string file = per_process ? "c.chk.0" : "c.chk";
  Offset blob = 0;
  fsys.peek(file, per_process ? 8 : 16,
            {reinterpret_cast<std::byte*>(&blob), sizeof(blob)});
  std::int64_t cells = 0;  // after the 32-byte tree header
  fsys.peek(file, blob + 32,
            {reinterpret_cast<std::byte*>(&cells), sizeof(cells)});
  ASSERT_EQ(cells, 1);  // the root level
  const Offset cells_byte5 = blob + 32 + 5;
  std::byte b{};
  fsys.peek(file, cells_byte5, {&b, 1});
  b ^= std::byte{0x01};
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    fs::FsClient fc(fsys, comm.proc());
    fs::FsFile f = fc.open(file, fs::kWrite);
    fc.pwrite(f, cells_byte5, &b, 1);
    fc.close(f);
  });
  EXPECT_THROW(
      mpi::runJob(job(P),
                  [&](mpi::Comm& comm) {
                    loadCheckpoint(comm, fsys, "c.chk", cpCfg(backend));
                  }),
      FsError);
}

TEST(FilePerProcessTest, AvoidsSharedFileContention) {
  // N-N writes have no shared-file lock traffic at all.
  fs::Filesystem fsys(fsCfg());
  const int P = 8;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    dumpCheckpoint(comm, fsys, "nolock.chk",
                   makeTrees(comm.rank(), P, 16), 16,
                   cpCfg(Backend::kFilePerProcess));
  });
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(fsys.revocations("nolock.chk." + std::to_string(r)), 0);
  }
}

}  // namespace
}  // namespace tcio::art
