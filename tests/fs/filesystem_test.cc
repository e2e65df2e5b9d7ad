#include "fs/filesystem.h"

#include <gtest/gtest.h>

#include <vector>

#include "fs/client.h"
#include "mpi/runtime.h"

namespace tcio::fs {
namespace {

FsConfig testCfg() {
  FsConfig c;
  c.num_osts = 4;
  c.stripe_size = 1024;
  c.default_stripe_count = 1;
  return c;
}

mpi::JobConfig job(int p) {
  mpi::JobConfig c;
  c.num_ranks = p;
  return c;
}

/// Installs a fault plan whose only fault is write call `n` (0-based).
void failWriteCall(Filesystem& fs, std::int64_t n) {
  FaultConfig f;
  f.fail_write_call = n;
  fs.installFaultPlan(f);
}

TEST(FilesystemTest, CreateWriteReadBack) {
  Filesystem fs(testCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    FsFile f = fc.open("a.dat", kRead | kWrite | kCreate);
    const std::vector<int> data{10, 20, 30};
    fc.pwrite(f, 0, data.data(), 12);
    std::vector<int> out(3, 0);
    fc.pread(f, 0, out.data(), 12);
    EXPECT_EQ(out, data);
    EXPECT_EQ(fc.size(f), 12);
    fc.close(f);
    EXPECT_GT(comm.proc().now(), 0.0);  // I/O cost was charged
  });
  EXPECT_EQ(fs.peekSize("a.dat"), 12);
}

TEST(FilesystemTest, OpenMissingFileWithoutCreateFails) {
  Filesystem fs(testCfg());
  // Typed error: FileNotFound (a FsError subclass) carrying the path.
  try {
    mpi::runJob(job(1), [&](mpi::Comm& comm) {
      FsClient fc(fs, comm.proc());
      fc.open("nope.dat", kRead);
    });
    FAIL() << "open of a missing file without kCreate must throw";
  } catch (const FileNotFound& e) {
    EXPECT_EQ(e.path, "nope.dat");
    EXPECT_NE(std::string(e.what()).find("nope.dat"), std::string::npos);
  }
}

TEST(FilesystemTest, TruncateClearsContents) {
  Filesystem fs(testCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    FsFile f = fc.open("t.dat", kWrite | kCreate);
    const int v = 7;
    fc.pwrite(f, 0, &v, 4);
    fc.close(f);
    FsFile g = fc.open("t.dat", kRead | kWrite | kTruncate);
    EXPECT_EQ(fc.size(g), 0);
    fc.close(g);
  });
}

TEST(FilesystemTest, WrongModeRejected) {
  Filesystem fs(testCfg());
  EXPECT_THROW(mpi::runJob(job(1),
                           [&](mpi::Comm& comm) {
                             FsClient fc(fs, comm.proc());
                             FsFile f = fc.open("m.dat", kWrite | kCreate);
                             int v;
                             fc.pread(f, 0, &v, 4);
                           }),
               Error);
}

TEST(FilesystemTest, ConcurrentDisjointWritesAllLand) {
  Filesystem fs(testCfg());
  const int P = 8;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    FsFile f = fc.open("shared.dat", kWrite | kCreate);
    comm.barrier();
    std::vector<std::byte> mine(64, static_cast<std::byte>(comm.rank() + 1));
    fc.pwrite(f, comm.rank() * 64, mine.data(), 64);
    comm.barrier();
    fc.close(f);
  });
  std::vector<std::byte> all(static_cast<std::size_t>(P) * 64);
  fs.peek("shared.dat", 0, all);
  for (int r = 0; r < P; ++r) {
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(r * 64 + i)],
                static_cast<std::byte>(r + 1))
          << "rank " << r << " byte " << i;
    }
  }
}

TEST(FilesystemTest, InterleavedSmallWritesCauseLockPingPong) {
  Filesystem fs(testCfg());
  const int P = 4;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    FsFile f = fc.open("ping.dat", kWrite | kCreate);
    comm.barrier();
    // All ranks repeatedly write inside the same 1 KiB lock unit.
    for (int i = 0; i < 5; ++i) {
      const int v = comm.rank();
      fc.pwrite(f, comm.rank() * 4 + i * 16, &v, 4);
    }
    fc.close(f);
  });
  EXPECT_GT(fs.revocations("ping.dat"), 5);
}

TEST(FilesystemTest, StripingSpreadsAcrossOsts) {
  // Large transfer with stripes big enough to amortize per-request overhead:
  // 4-way striping must beat a single OST.
  auto timeWrite = [](int stripe_count) {
    FsConfig c = testCfg();
    c.stripe_size = 256 * 1024;
    c.default_stripe_count = stripe_count;
    Filesystem fs(c);
    SimTime dt = 0;
    mpi::runJob(job(1), [&](mpi::Comm& comm) {
      FsClient fc(fs, comm.proc());
      FsFile f = fc.open("striped.dat", kWrite | kCreate);
      std::vector<std::byte> big(4 * 1024 * 1024, std::byte{5});
      const SimTime t0 = comm.proc().now();
      fc.pwrite(f, 0, big.data(), static_cast<Bytes>(big.size()));
      dt = comm.proc().now() - t0;
      fc.close(f);
    });
    // Data must round-trip correctly regardless of striping.
    std::vector<std::byte> out(4 * 1024 * 1024);
    fs.peek("striped.dat", 0, out);
    for (auto b : out) {
      if (b != std::byte{5}) ADD_FAILURE() << "corrupt stripe data";
    }
    return dt;
  };
  EXPECT_LT(timeWrite(4), timeWrite(1));
}

TEST(FilesystemTest, CachedReadFasterThanColdRead) {
  FsConfig c = testCfg();
  c.cache_capacity_per_ost = 1_MiB;
  Filesystem fs(c);
  SimTime warm = 0;
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    FsFile f = fc.open("c.dat", kRead | kWrite | kCreate);
    std::vector<std::byte> data(256 * 1024, std::byte{1});
    fc.pwrite(f, 0, data.data(), static_cast<Bytes>(data.size()));
    const SimTime t0 = comm.proc().now();
    fc.pread(f, 0, data.data(), static_cast<Bytes>(data.size()));
    warm = comm.proc().now() - t0;
    fc.close(f);
  });

  FsConfig nc = testCfg();
  nc.cache_capacity_per_ost = 0;  // cache disabled
  Filesystem fs2(nc);
  SimTime cold = 0;
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs2, comm.proc());
    FsFile f = fc.open("c.dat", kRead | kWrite | kCreate);
    std::vector<std::byte> data(256 * 1024, std::byte{1});
    fc.pwrite(f, 0, data.data(), static_cast<Bytes>(data.size()));
    const SimTime t0 = comm.proc().now();
    fc.pread(f, 0, data.data(), static_cast<Bytes>(data.size()));
    cold = comm.proc().now() - t0;
    fc.close(f);
  });
  EXPECT_LT(warm, cold);
}

TEST(FilesystemTest, SmallWritesSlowerPerByteThanLargeWrites) {
  Filesystem fs(testCfg());
  SimTime small_time = 0, large_time = 0;
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    FsFile f = fc.open("s.dat", kWrite | kCreate);
    std::vector<std::byte> buf(64 * 1024, std::byte{2});
    SimTime t0 = comm.proc().now();
    for (int i = 0; i < 64; ++i) {
      fc.pwrite(f, i * 1024, buf.data(), 1024);
    }
    small_time = comm.proc().now() - t0;
    t0 = comm.proc().now();
    fc.pwrite(f, 0, buf.data(), 64 * 1024);
    large_time = comm.proc().now() - t0;
    fc.close(f);
  });
  EXPECT_GT(small_time, large_time * 5);
}

TEST(FilesystemTest, InjectedWriteFaultPropagates) {
  Filesystem fs(testCfg());
  failWriteCall(fs, 2);
  EXPECT_THROW(mpi::runJob(job(1),
                           [&](mpi::Comm& comm) {
                             FsClient fc(fs, comm.proc());
                             FsFile f = fc.open("fault.dat", kWrite | kCreate);
                             const int v = 1;
                             fc.pwrite(f, 0, &v, 4);
                             fc.pwrite(f, 4, &v, 4);
                             fc.pwrite(f, 8, &v, 4);  // third request faults
                           }),
               FsError);
}

TEST(FilesystemTest, InjectedWriteFaultIsTransientTyped) {
  Filesystem fs(testCfg());
  failWriteCall(fs, 0);
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    FsFile f = fc.open("typed.dat", kWrite | kCreate);
    const int v = 1;
    EXPECT_THROW(fc.pwrite(f, 0, &v, 4), TransientFsError);
    fc.pwrite(f, 0, &v, 4);  // one-shot: the retry goes through
    fc.close(f);
  });
}

TEST(FilesystemTest, RetryPolicyAbsorbsTransientFaults) {
  Filesystem fs(testCfg());
  failWriteCall(fs, 0);
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    RetryPolicy retry;
    retry.max_attempts = 3;
    fc.setRetryPolicy(retry);
    FsFile f = fc.open("retry.dat", kRead | kWrite | kCreate);
    const int v = 42;
    const SimTime before = comm.proc().now();
    fc.pwrite(f, 0, &v, 4);  // first attempt faults, retry succeeds
    EXPECT_GT(comm.proc().now(), before);  // backoff charged to sim time
    EXPECT_EQ(fc.retryStats().transient_faults, 1);
    EXPECT_EQ(fc.retryStats().retries, 1);
    EXPECT_EQ(fc.retryStats().giveups, 0);
    int out = 0;
    fc.pread(f, 0, &out, 4);
    EXPECT_EQ(out, 42);
    fc.close(f);
  });
}

TEST(FilesystemTest, PermanentOstFailureRemapsToSurvivors) {
  Filesystem fs(testCfg());
  FaultConfig fault;
  fault.enabled = true;
  fault.fail_ost = 0;
  fault.fail_ost_after_requests = 0;  // dead from the first request
  fs.installFaultPlan(fault);
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    // stripe over all 4 OSTs so offset 0 lands on the dead OST 0.
    FsFile f = fc.open("dead.dat", kRead | kWrite | kCreate,
                       /*stripe_count=*/4);
    std::vector<int> data(1024, 7);
    const Bytes n = static_cast<Bytes>(data.size() * sizeof(int));
    try {
      fc.pwrite(f, 0, data.data(), n);
      FAIL() << "write touching the dead OST must throw";
    } catch (const OstFailedError& e) {
      EXPECT_EQ(e.ost, 0);
    }
    // Degraded mode: remap the dead OST's chunks, then the write goes
    // through and reads back intact.
    EXPECT_GT(fc.remapFailedChunks(f, 0, n), 0);
    fc.pwrite(f, 0, data.data(), n);
    std::vector<int> out(data.size(), 0);
    fc.pread(f, 0, out.data(), n);
    EXPECT_EQ(out, data);
    fc.close(f);
  });
  EXPECT_GT(fs.stats().chunks_remapped, 0);
}

TEST(FilesystemTest, RecoveredOstRebalancesRemappedChunksHome) {
  Filesystem fs(testCfg());
  FaultConfig fault;
  fault.enabled = true;
  fault.fail_ost = 0;
  fault.fail_ost_after_requests = 0;     // dead from the first request
  fault.recover_ost_after_requests = 8;  // failover pair rejoins later
  fs.installFaultPlan(fault);
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    FsFile f = fc.open("reb.dat", kRead | kWrite | kCreate,
                       /*stripe_count=*/4);
    std::vector<int> data(1024, 7);
    const Bytes n = static_cast<Bytes>(data.size() * sizeof(int));
    EXPECT_THROW(fc.pwrite(f, 0, data.data(), n), OstFailedError);
    // Degraded mode while OST 0 is down: remap its chunks, write, read.
    EXPECT_GT(fc.remapFailedChunks(f, 0, n), 0);
    fc.pwrite(f, 0, data.data(), n);
    std::vector<int> out(data.size(), 0);
    // Keep issuing I/O until the request counter crosses the recovery
    // threshold; the first operation after that rebalances the remapped
    // chunks back to their home (striping-layout) OST.
    for (int i = 0; i < 8 && fs.stats().chunks_rebalanced == 0; ++i) {
      fc.pread(f, 0, out.data(), n);
    }
    EXPECT_GT(fs.stats().chunks_rebalanced, 0);
    // Contents survive the rebalance, and routing home is clean (no
    // OstFailedError now that the OST recovered).
    fc.pread(f, 0, out.data(), n);
    EXPECT_EQ(out, data);
    fc.close(f);
  });
  EXPECT_GT(fs.stats().chunks_remapped, 0);
}

TEST(FilesystemTest, StatsTrackRequests) {
  Filesystem fs(testCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    FsClient fc(fs, comm.proc());
    FsFile f = fc.open("st.dat", kRead | kWrite | kCreate);
    const int v = 9;
    fc.pwrite(f, 0, &v, 4);
    int out;
    fc.pread(f, 0, &out, 4);
    fc.close(f);
  });
  const FsStats s = fs.stats();
  EXPECT_EQ(s.write_requests, 1);
  EXPECT_EQ(s.read_requests, 1);
  EXPECT_EQ(s.bytes_written, 4);
  EXPECT_EQ(s.bytes_read, 4);
  EXPECT_EQ(s.opens, 1);
}

TEST(FilesystemTest, SharedFileManyClientsContendOnOneOst) {
  // With stripe_count=1 every client hits the same OST: aggregate write time
  // grows roughly linearly with client count.
  auto run = [](int P) {
    Filesystem fs(testCfg());
    SimTime makespan = 0;
    mpi::runJob(job(P), [&](mpi::Comm& comm) {
      FsClient fc(fs, comm.proc());
      FsFile f = fc.open("big.dat", kWrite | kCreate);
      comm.barrier();
      std::vector<std::byte> mine(128 * 1024, std::byte{1});
      fc.pwrite(f, comm.rank() * 128 * 1024, mine.data(),
                static_cast<Bytes>(mine.size()));
      comm.barrier();
      if (comm.rank() == 0) makespan = comm.proc().now();
    });
    return makespan;
  };
  const SimTime t2 = run(2);
  const SimTime t8 = run(8);
  EXPECT_GT(t8, t2 * 2.5);
}

}  // namespace
}  // namespace tcio::fs
