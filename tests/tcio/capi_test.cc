// Tests for the paper's Program 1 C API surface.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mpi/runtime.h"
#include "tcio/capi.h"
#include "tcio/file.h"

namespace {

using namespace tcio;

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

core::TcioConfig smallTcio() {
  core::TcioConfig c;
  c.segment_size = 256;
  c.segments_per_rank = 16;
  return c;
}

TEST(CApiTest, OpenWithoutContextFails) {
  fs::Filesystem fsys(fsCfg());
  // A fresh rank has no context until it calls set_context.
  EXPECT_THROW(mpi::runJob(job(1),
                           [&](mpi::Comm&) {
                             tcio_open("nocontext.dat",
                                       TCIO_WRONLY | TCIO_CREATE);
                           }),
               Error);
}

TEST(CApiTest, SequentialWriteReadWithSeek) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    tcio_set_context(comm, fsys, smallTcio());
    {
      tcio_file* fh = tcio_open("seq.dat", TCIO_WRONLY | TCIO_CREATE);
      tcio_seek(fh, comm.rank() * 16, TCIO_SEEK_SET);
      const std::int32_t a[2] = {comm.rank() * 10, comm.rank() * 10 + 1};
      tcio_write(fh, a, 2, mpi::Datatype::int32());
      const double d = comm.rank() + 0.25;
      tcio_write(fh, &d, 1, mpi::Datatype::float64());
      tcio_close(fh);
    }
    {
      tcio_file* fh = tcio_open("seq.dat", TCIO_RDONLY);
      const int peer = (comm.rank() + 1) % 2;
      tcio_seek(fh, peer * 16, TCIO_SEEK_SET);
      std::int32_t a[2] = {};
      double d = 0;
      tcio_read(fh, a, 2, mpi::Datatype::int32());
      tcio_read(fh, &d, 1, mpi::Datatype::float64());
      tcio_fetch(fh);
      EXPECT_EQ(a[0], peer * 10);
      EXPECT_EQ(a[1], peer * 10 + 1);
      EXPECT_DOUBLE_EQ(d, peer + 0.25);
      tcio_close(fh);
    }
  });
}

TEST(CApiTest, WriteAtAndFlush) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(4), [&](mpi::Comm& comm) {
    tcio_set_context(comm, fsys, smallTcio());
    tcio_file* fh = tcio_open("wa.dat", TCIO_RDWR | TCIO_CREATE);
    const std::int64_t v = comm.rank() * 100;
    tcio_write_at(fh, comm.rank() * 8, &v, 1, mpi::Datatype::int64());
    tcio_flush(fh);
    // After flush, every rank can read everyone's data.
    for (int r = 0; r < 4; ++r) {
      std::int64_t got = -1;
      tcio_read_at(fh, r * 8, &got, 1, mpi::Datatype::int64());
      tcio_fetch(fh);
      EXPECT_EQ(got, r * 100);
    }
    tcio_close(fh);
  });
}

TEST(CApiTest, SeekWhenceVariants) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    tcio_set_context(comm, fsys, smallTcio());
    tcio_file* fh = tcio_open("sw.dat", TCIO_WRONLY | TCIO_CREATE);
    tcio_seek(fh, 100, TCIO_SEEK_SET);
    EXPECT_EQ(fh->tell(), 100);
    tcio_seek(fh, -40, TCIO_SEEK_CUR);
    EXPECT_EQ(fh->tell(), 60);
    const std::int32_t v = 1;
    tcio_write(fh, &v, 1, mpi::Datatype::int32());
    tcio_seek(fh, 0, TCIO_SEEK_END);
    EXPECT_EQ(fh->tell(), 64);
    tcio_close(fh);
  });
}

TEST(CApiTest, ModeConstantsMatchFsFlags) {
  EXPECT_EQ(TCIO_RDONLY, static_cast<int>(fs::kRead));
  EXPECT_EQ(TCIO_WRONLY, static_cast<int>(fs::kWrite));
  EXPECT_EQ(TCIO_RDWR, static_cast<int>(fs::kRead | fs::kWrite));
  EXPECT_EQ(TCIO_CREATE, static_cast<int>(fs::kCreate));
  EXPECT_EQ(TCIO_TRUNC, static_cast<int>(fs::kTruncate));
}

TEST(CApiTest, StatsReportHealthyRunAsZero) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    tcio_set_context(comm, fsys, smallTcio());
    tcio_file* fh = tcio_open("healthy.dat", TCIO_WRONLY | TCIO_CREATE);
    const std::int32_t v = comm.rank();
    tcio_write_at(fh, comm.rank() * 4, &v, 1, mpi::Datatype::int32());
    tcio_flush(fh);
    tcio_stats_t st;
    tcio_stats(fh, &st);
    EXPECT_EQ(st.degraded, 0);
    EXPECT_EQ(st.fs_transient_faults, 0);
    EXPECT_EQ(st.ranks_crashed, 0);
    EXPECT_EQ(st.journal_records_replayed, 0);
    tcio_close(fh);
  });
}

TEST(CApiTest, StatsSurfaceRetryAndDegradedCounters) {
  fs::Filesystem fsys(fsCfg());
  core::TcioConfig cfg = smallTcio();
  cfg.faults.enabled = true;
  cfg.faults.seed = 5;
  cfg.faults.fs_transient_write_rate = 0.5;
  cfg.retry.max_attempts = 8;
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    tcio_set_context(comm, fsys, cfg);
    tcio_file* fh = tcio_open("degraded.dat", TCIO_WRONLY | TCIO_CREATE);
    std::vector<std::byte> buf(1024, std::byte{0x11});
    fh->writeAt(comm.rank() * 1024, buf.data(), 1024);
    // Close drains level-2 to the OSTs — that is where the seeded transient
    // faults hit and the retry loop absorbs them. Those counters are only
    // observable through the closing stats variant: plain tcio_close frees
    // the handle before they could be read.
    tcio_stats_t st;
    tcio_close_stats(fh, &st);
    EXPECT_GT(st.fs_transient_faults, 0);
    EXPECT_EQ(st.fs_retries, st.fs_transient_faults);  // none exhausted
    EXPECT_EQ(st.fs_retry_giveups, 0);
    EXPECT_EQ(st.degraded, 1);
  });
}

TEST(CApiTest, TwoFilesConcurrently) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    tcio_set_context(comm, fsys, smallTcio());
    tcio_file* a = tcio_open("a.dat", TCIO_WRONLY | TCIO_CREATE);
    tcio_file* b = tcio_open("b.dat", TCIO_WRONLY | TCIO_CREATE);
    const std::int32_t va = 1 + comm.rank(), vb = 100 + comm.rank();
    tcio_write_at(a, comm.rank() * 4, &va, 1, mpi::Datatype::int32());
    tcio_write_at(b, comm.rank() * 4, &vb, 1, mpi::Datatype::int32());
    tcio_close(a);
    tcio_close(b);
  });
  std::int32_t v = 0;
  fsys.peek("a.dat", 4, {reinterpret_cast<std::byte*>(&v), 4});
  EXPECT_EQ(v, 2);
  fsys.peek("b.dat", 0, {reinterpret_cast<std::byte*>(&v), 4});
  EXPECT_EQ(v, 100);
}

TEST(CApiTest, ContextIsPerRankAcrossSuspensions) {
  // Both ranks bind before either opens; the barrier suspends each rank in
  // between, so a context shared by the thread would hand one rank's comm
  // to the other.
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    tcio_set_context(comm, fsys, smallTcio());
    comm.barrier();
    tcio_file* fh = tcio_open("ranked.dat", TCIO_WRONLY | TCIO_CREATE);
    EXPECT_EQ(&fh->comm(), &comm);
    const std::int32_t v = 7 + comm.rank();
    tcio_write_at(fh, comm.rank() * 4, &v, 1, mpi::Datatype::int32());
    tcio_close(fh);
  });
  std::int32_t got[2] = {};
  fsys.peek("ranked.dat", 0, {reinterpret_cast<std::byte*>(got), 8});
  EXPECT_EQ(got[0], 7);
  EXPECT_EQ(got[1], 8);
}

TEST(CApiTest, ContextEndsWithTheJob) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    tcio_set_context(comm, fsys, smallTcio());
  });
  EXPECT_THROW(mpi::runJob(job(1),
                           [&](mpi::Comm&) {
                             tcio_open("stale.dat", TCIO_WRONLY | TCIO_CREATE);
                           }),
               Error);
}

}  // namespace
