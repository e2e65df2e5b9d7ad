// Edge cases and documented-behaviour tests for the TCIO core.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "mpi/runtime.h"
#include "tcio/file.h"
#include "tcio/file_internal.h"

namespace tcio::core {
namespace {

fs::FsConfig fsCfg() {
  fs::FsConfig c;
  c.num_osts = 2;
  c.stripe_size = 1024;
  return c;
}

mpi::JobConfig job(int p) {
  mpi::JobConfig c;
  c.num_ranks = p;
  return c;
}

TcioConfig smallTcio(Bytes seg = 256, std::int64_t nseg = 16) {
  TcioConfig c;
  c.segment_size = seg;
  c.segments_per_rank = nseg;
  return c;
}

TEST(TcioEdgeTest, SingleRankJob) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    File f(comm, fsys, "solo.dat", fs::kRead | fs::kWrite | fs::kCreate,
           smallTcio());
    const std::int64_t v = 777;
    f.writeAt(100, &v, 8);
    f.flush();
    std::int64_t got = 0;
    f.readAt(100, &got, 8);
    f.fetch();
    EXPECT_EQ(got, 777);
    f.close();
  });
}

TEST(TcioEdgeTest, ZeroByteOperationsAreNoops) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    File f(comm, fsys, "zero.dat", fs::kRead | fs::kWrite | fs::kCreate,
           smallTcio());
    f.writeAt(0, nullptr, 0);
    f.readAt(0, nullptr, 0);
    EXPECT_EQ(f.stats().bytes_written, 0);
    EXPECT_EQ(f.stats().bytes_read, 0);
    f.close();
  });
  EXPECT_EQ(fsys.peekSize("zero.dat"), 0);
}

TEST(TcioEdgeTest, SingleWriteSpanningManySegmentsAndOwners) {
  fs::Filesystem fsys(fsCfg());
  const int P = 4;
  const Bytes total = 4096;  // 16 segments of 256 across 4 owners
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    File f(comm, fsys, "big.dat", fs::kWrite | fs::kCreate, smallTcio());
    if (comm.rank() == 0) {
      std::vector<std::byte> buf(static_cast<std::size_t>(total));
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::byte>(i % 251);
      }
      f.writeAt(0, buf.data(), total);
      EXPECT_EQ(f.stats().level1_flushes, total / 256 - 1);  // last in L1
    }
    f.close();
  });
  std::vector<std::byte> got(static_cast<std::size_t>(total));
  fsys.peek("big.dat", 0, got);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<std::byte>(i % 251));
  }
}

TEST(TcioEdgeTest, RewriteSameBytesLastWriterWinsWithinRank) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    File f(comm, fsys, "rw2.dat", fs::kWrite | fs::kCreate, smallTcio());
    if (comm.rank() == 0) {
      const std::int64_t a = 1, b = 2;
      f.writeAt(0, &a, 8);
      f.writeAt(0, &b, 8);  // same level-1 segment: overwrites in place
    }
    f.close();
  });
  std::int64_t v = 0;
  fsys.peek("rw2.dat", 0, {reinterpret_cast<std::byte*>(&v), 8});
  EXPECT_EQ(v, 2);
}

TEST(TcioEdgeTest, RewriteAcrossFlushBoundary) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    File f(comm, fsys, "rw3.dat", fs::kWrite | fs::kCreate,
           smallTcio(/*seg=*/64, /*nseg=*/8));
    if (comm.rank() == 0) {
      const std::int64_t a = 1;
      f.writeAt(0, &a, 8);
      f.writeAt(64, &a, 8);  // flushes segment 0
      const std::int64_t b = 9;
      f.writeAt(0, &b, 8);  // returns to segment 0: new level-1 epoch
    }
    f.close();
  });
  std::int64_t v = 0;
  fsys.peek("rw3.dat", 0, {reinterpret_cast<std::byte*>(&v), 8});
  EXPECT_EQ(v, 9);
}

TEST(TcioEdgeTest, SeekEndAfterWrites) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    File f(comm, fsys, "se.dat", fs::kWrite | fs::kCreate, smallTcio());
    const std::int64_t v = 5;
    f.writeAt(92, &v, 8);  // local max = 100
    f.seek(0, Whence::kEnd);
    EXPECT_EQ(f.tell(), 100);
    f.seek(-8, Whence::kCur);
    EXPECT_EQ(f.tell(), 92);
    f.close();
  });
}

TEST(TcioEdgeTest, OpenRejectsUnsupportedModeCombinations) {
  struct Mode {
    bool onesided, lazy, auto_fetch, node_agg;
  };
  // Every combination that needs a path the other settings switch off.
  const Mode rejected[] = {
      {false, false, false, false},  // two-sided eager reads
      {false, true, true, false},    // two-sided independent auto-fetch
      {false, true, false, true},    // node aggregation over two-sided
      {true, false, false, true},    // node aggregation with eager reads
      {true, true, true, true},      // node aggregation with auto-fetch
  };
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    for (const Mode& m : rejected) {
      TcioConfig cfg = smallTcio();
      cfg.use_onesided = m.onesided;
      cfg.lazy_reads = m.lazy;
      cfg.auto_fetch_on_segment_exit = m.auto_fetch;
      cfg.node_aggregation = m.node_agg;
      EXPECT_THROW(
          File(comm, fsys, "modes.dat", fs::kWrite | fs::kCreate, cfg), Error);
    }
  });
  EXPECT_FALSE(fsys.exists("modes.dat"));  // rejected before the FS open
}

TEST(TcioEdgeTest, ReadOnlyHandleRejectsWrites) {
  fs::Filesystem fsys(fsCfg());
  EXPECT_THROW(
      mpi::runJob(job(1),
                  [&](mpi::Comm& comm) {
                    {
                      File w(comm, fsys, "ro.dat", fs::kWrite | fs::kCreate,
                             smallTcio());
                      const int v = 1;
                      w.writeAt(0, &v, 4);
                      w.close();
                    }
                    File f(comm, fsys, "ro.dat", fs::kRead, smallTcio());
                    const int v = 2;
                    f.writeAt(0, &v, 4);
                  }),
      Error);
}

TEST(TcioEdgeTest, WriteOnlyHandleRejectsReads) {
  fs::Filesystem fsys(fsCfg());
  EXPECT_THROW(
      mpi::runJob(job(1),
                  [&](mpi::Comm& comm) {
                    File f(comm, fsys, "wo.dat", fs::kWrite | fs::kCreate,
                           smallTcio());
                    int v;
                    f.readAt(0, &v, 4);
                  }),
      Error);
}

TEST(TcioEdgeTest, OperationsAfterCloseRejected) {
  fs::Filesystem fsys(fsCfg());
  EXPECT_THROW(
      mpi::runJob(job(1),
                  [&](mpi::Comm& comm) {
                    File f(comm, fsys, "ac.dat", fs::kWrite | fs::kCreate,
                           smallTcio());
                    f.close();
                    const int v = 1;
                    f.writeAt(0, &v, 4);
                  }),
      Error);
}

TEST(TcioEdgeTest, DoubleCloseIsIdempotent) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    File f(comm, fsys, "dc.dat", fs::kWrite | fs::kCreate, smallTcio());
    const int v = 3;
    f.writeAt(comm.rank() * 4, &v, 4);
    f.close();
    EXPECT_NO_THROW(f.close());
  });
}

TEST(TcioEdgeTest, DestructorClosesOpenFile) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    {
      File f(comm, fsys, "dtor.dat", fs::kWrite | fs::kCreate, smallTcio());
      const std::int64_t v = comm.rank() + 40;
      f.writeAt(comm.rank() * 8, &v, 8);
      // No explicit close: the destructor is collective here because all
      // ranks destroy at the same program point.
    }
    comm.barrier();
  });
  std::int64_t v = 0;
  fsys.peek("dtor.dat", 8, {reinterpret_cast<std::byte*>(&v), 8});
  EXPECT_EQ(v, 41);
}

TEST(TcioEdgeTest, SegmentSizeLargerThanAllData) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(4), [&](mpi::Comm& comm) {
    // Everything fits in segment 0 (owned by rank 0).
    File f(comm, fsys, "one_seg.dat", fs::kWrite | fs::kCreate,
           smallTcio(/*seg=*/1 << 16, /*nseg=*/1));
    const std::int64_t v = comm.rank() * 3;
    f.writeAt(comm.rank() * 8, &v, 8);
    f.close();
  });
  for (int r = 0; r < 4; ++r) {
    std::int64_t v = 0;
    fsys.peek("one_seg.dat", r * 8, {reinterpret_cast<std::byte*>(&v), 8});
    EXPECT_EQ(v, r * 3);
  }
}

TEST(TcioEdgeTest, StatsBytesMatchData) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    File f(comm, fsys, "sb.dat", fs::kRead | fs::kWrite | fs::kCreate,
           smallTcio());
    std::vector<std::byte> buf(300, std::byte{1});
    f.writeAt(comm.rank() * 300, buf.data(), 300);
    f.flush();
    f.readAt(comm.rank() * 300, buf.data(), 300);
    f.fetch();
    EXPECT_EQ(f.stats().bytes_written, 300);
    EXPECT_EQ(f.stats().bytes_read, 300);
    EXPECT_EQ(f.stats().writes, 1);
    EXPECT_EQ(f.stats().reads, 1);
    f.close();
  });
}

/// A [BlockMeta][payload] stream of one record claiming `len` bytes and
/// carrying `carried`.
std::vector<std::byte> blockClaiming(Bytes len, std::size_t carried) {
  const BlockMeta m{64, len};
  std::vector<std::byte> s(sizeof(m) + carried, std::byte{3});
  std::memcpy(s.data(), &m, sizeof(m));
  return s;
}

TEST(BlockWalkerTest, WalksWellFormedRecords) {
  std::vector<std::byte> s = blockClaiming(5, 5);
  const std::vector<std::byte> t = blockClaiming(0, 0);
  s.insert(s.end(), t.begin(), t.end());
  std::vector<Bytes> lens;
  forEachBlock(s, [&](const BlockMeta& m, const std::byte*) {
    lens.push_back(m.len);
  });
  EXPECT_EQ(lens, (std::vector<Bytes>{5, 0}));
}

TEST(BlockWalkerTest, RejectsNegativeHugeAndTruncatedLengths) {
  const auto walk = [](const std::vector<std::byte>& s) {
    forEachBlock(s, [](const BlockMeta&, const std::byte*) {});
  };
  // A negative length used to pass the bounds check as a huge size_t that
  // wrapped pos + len, and the walker stepped backwards over the stream.
  EXPECT_THROW(walk(blockClaiming(-1, 8)), Error);
  EXPECT_THROW(walk(blockClaiming(-24, 8)), Error);
  EXPECT_THROW(walk(blockClaiming(std::numeric_limits<Bytes>::max(), 8)),
               Error);
  EXPECT_THROW(walk(blockClaiming(9, 8)), Error);  // one byte short
  std::vector<std::byte> cut = blockClaiming(0, 0);
  cut.pop_back();  // the record itself cut short
  EXPECT_THROW(walk(cut), Error);
}

}  // namespace
}  // namespace tcio::core
