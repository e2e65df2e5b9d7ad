#include "mpiio/file.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi/runtime.h"

namespace tcio::io {
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

/// Builds the paper's Fig. 2 view for `rank` of `P` ranks, `len` etypes.
FileView fig2View(int rank, int P, std::int64_t len) {
  const std::array<std::int64_t, 2> lens{1, 1};
  const std::array<Offset, 2> displs{0, 4};
  const std::array<mpi::Datatype, 2> types{mpi::Datatype::int32(),
                                           mpi::Datatype::float64()};
  auto e = mpi::Datatype::structType(lens, displs, types).commit();
  auto f = mpi::Datatype::vector(len, 1, P, e).commit();
  return FileView(rank * 12, e, f);
}

TEST(MpioFileTest, IndependentContiguousWriteRead) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    MpioFile f = MpioFile::open(comm, fsys, "x.dat",
                                fs::kRead | fs::kWrite | fs::kCreate);
    std::vector<int> data(16);
    std::iota(data.begin(), data.end(), comm.rank() * 100);
    f.writeAt(comm.rank() * 64, data.data(), 64);
    comm.barrier();
    std::vector<int> got(16);
    f.readAt(comm.rank() * 64, got.data(), 64);
    EXPECT_EQ(got, data);
    f.close();
  });
  EXPECT_EQ(fsys.peekSize("x.dat"), 128);
}

TEST(MpioFileTest, ViewedIndependentWriteLandsInterleaved) {
  fs::Filesystem fsys(fsCfg());
  const int P = 2;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    MpioFile f = MpioFile::open(comm, fsys, "v.dat",
                                fs::kRead | fs::kWrite | fs::kCreate);
    const std::array<std::int64_t, 2> lens{1, 1};
    const std::array<Offset, 2> displs{0, 4};
    const std::array<mpi::Datatype, 2> types{mpi::Datatype::int32(),
                                             mpi::Datatype::float64()};
    auto e = mpi::Datatype::structType(lens, displs, types).commit();
    auto ft = mpi::Datatype::vector(3, 1, P, e).commit();
    f.setView(comm.rank() * 12, e, ft);
    // Payload: 3 etypes of (int, double).
    std::vector<std::byte> buf(36);
    for (int i = 0; i < 3; ++i) {
      const std::int32_t iv = comm.rank() * 10 + i;
      const double dv = comm.rank() + i * 0.5;
      std::memcpy(buf.data() + i * 12, &iv, 4);
      std::memcpy(buf.data() + i * 12 + 4, &dv, 8);
    }
    f.writeAt(0, buf.data(), 36);
    f.close();
  });
  // File layout: rank0 etype0, rank1 etype0, rank0 etype1, ...
  for (int slot = 0; slot < 6; ++slot) {
    const int rank = slot % 2;
    const int i = slot / 2;
    std::int32_t iv = 0;
    double dv = 0;
    std::vector<std::byte> raw(12);
    fsys.peek("v.dat", slot * 12, raw);
    std::memcpy(&iv, raw.data(), 4);
    std::memcpy(&dv, raw.data() + 4, 8);
    EXPECT_EQ(iv, rank * 10 + i) << "slot " << slot;
    EXPECT_DOUBLE_EQ(dv, rank + i * 0.5) << "slot " << slot;
  }
}

TEST(MpioFileTest, CollectiveWriteMatchesIndependentResult) {
  // Same Fig. 2 workload via write_all; the file bytes must be identical to
  // what the independent path produces.
  const int P = 4;
  const std::int64_t len = 8;
  auto runWith = [&](bool collective) {
    fs::Filesystem fsys(fsCfg());
    mpi::runJob(job(P), [&](mpi::Comm& comm) {
      // The independent reference must not use write data sieving: its
      // read-modify-write windows overlap other ranks' bytes and race
      // (exactly why real MPI-IO needs atomic mode for sieved writes).
      MpioConfig mc;
      mc.enable_data_sieving = false;
      MpioFile f = MpioFile::open(comm, fsys, "w.dat",
                                  fs::kRead | fs::kWrite | fs::kCreate, mc);
      FileView v = fig2View(comm.rank(), P, len);
      f.setView(v.displacement(), v.etype(), v.filetype());
      std::vector<std::byte> buf(static_cast<std::size_t>(len) * 12);
      for (std::int64_t i = 0; i < len; ++i) {
        const std::int32_t iv = comm.rank() * 1000 + static_cast<int>(i);
        const double dv = comm.rank() * 2.0 + static_cast<double>(i) * 0.25;
        std::memcpy(buf.data() + i * 12, &iv, 4);
        std::memcpy(buf.data() + i * 12 + 4, &dv, 8);
      }
      if (collective) {
        f.writeAtAll(0, buf.data(), static_cast<Bytes>(buf.size()));
      } else {
        f.writeAt(0, buf.data(), static_cast<Bytes>(buf.size()));
      }
      f.close();
    });
    std::vector<std::byte> contents(static_cast<std::size_t>(P * len * 12));
    fsys.peek("w.dat", 0, contents);
    return contents;
  };
  EXPECT_EQ(runWith(true), runWith(false));
}

TEST(MpioFileTest, CollectiveReadReturnsWrittenData) {
  const int P = 4;
  const std::int64_t len = 8;
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    MpioFile f = MpioFile::open(comm, fsys, "r.dat",
                                fs::kRead | fs::kWrite | fs::kCreate);
    FileView v = fig2View(comm.rank(), P, len);
    f.setView(v.displacement(), v.etype(), v.filetype());
    std::vector<std::byte> buf(static_cast<std::size_t>(len) * 12);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::byte>((comm.rank() * 37 + i) % 251);
    }
    f.writeAtAll(0, buf.data(), static_cast<Bytes>(buf.size()));
    comm.barrier();
    std::vector<std::byte> got(buf.size());
    f.readAtAll(0, got.data(), static_cast<Bytes>(got.size()));
    EXPECT_EQ(got, buf);
    f.close();
  });
}

TEST(MpioFileTest, CollectiveWriteUsesLargeFsRequests) {
  const int P = 4;
  const std::int64_t len = 64;
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    MpioFile f = MpioFile::open(comm, fsys, "agg.dat",
                                fs::kWrite | fs::kCreate);
    FileView v = fig2View(comm.rank(), P, len);
    f.setView(v.displacement(), v.etype(), v.filetype());
    std::vector<std::byte> buf(static_cast<std::size_t>(len) * 12,
                               std::byte{1});
    const TwoPhaseStats st =
        f.writeAtAll(0, buf.data(), static_cast<Bytes>(buf.size()));
    // Fully covered contiguous domain -> exactly one write per aggregator.
    EXPECT_EQ(st.fs_requests, 1);
    EXPECT_EQ(st.aggregator_buffer, len * 12);  // P*len*12 / P
    f.close();
  });
  EXPECT_EQ(fsys.stats().write_requests, P);
}

TEST(MpioFileTest, AggregatorBufferChargedAgainstBudget) {
  const int P = 2;
  mpi::JobConfig c = job(P);
  c.memory_budget_per_rank = 1000;
  fs::Filesystem fsys(fsCfg());
  EXPECT_THROW(
      mpi::runJob(c,
                  [&](mpi::Comm& comm) {
                    MpioFile f = MpioFile::open(comm, fsys, "oom.dat",
                                                fs::kWrite | fs::kCreate);
                    // 2 ranks x 2000 B domain -> 2000 B aggregator buffer
                    // each: over the 1000 B budget.
                    std::vector<std::byte> buf(2000, std::byte{1});
                    f.writeAtAll(comm.rank() * 2000, buf.data(), 2000);
                    f.close();
                  }),
      OutOfMemoryBudget);
}

TEST(MpioFileTest, CollectiveWriteWithHolesWritesOnlyCoveredRuns) {
  const int P = 2;
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    MpioFile f = MpioFile::open(comm, fsys, "holes.dat",
                                fs::kWrite | fs::kCreate);
    // Rank r writes 8 bytes at r*1000 — a huge hole in the middle.
    std::vector<std::byte> buf(8, static_cast<std::byte>(comm.rank() + 1));
    f.writeAtAll(comm.rank() * 1000, buf.data(), 8);
    f.close();
  });
  std::vector<std::byte> a(8), b(8), hole(8);
  fsys.peek("holes.dat", 0, a);
  fsys.peek("holes.dat", 1000, b);
  fsys.peek("holes.dat", 500, hole);
  EXPECT_EQ(a[0], std::byte{1});
  EXPECT_EQ(b[0], std::byte{2});
  EXPECT_EQ(hole[0], std::byte{0});  // untouched
}

/// Strided pattern of the sieving tests: 64 pieces of 8 bytes at stride 64
/// over a 4 KiB file of background bytes. A 1 KiB sieve buffer covers 16
/// pieces (15 * 64 + 8 <= 1024), so the access spans 4 sieve windows.
constexpr std::int64_t kSievePieces = 64;
constexpr Bytes kSmallSieve = 1024;
constexpr std::int64_t kSieveWindows = 4;

struct StridedAccess {
  std::vector<std::byte> bytes;  // file contents (write) or bytes read
  std::int64_t fs_calls = 0;     // this rank's FS calls during the access
};

/// One P=1 strided write or read through the pattern above.
StridedAccess stridedAccess(bool write, bool sieving, Bytes sieve_buffer) {
  fs::Filesystem fsys(fsCfg());
  StridedAccess out;
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    MpioConfig mc;
    mc.enable_data_sieving = sieving;
    mc.sieve_buffer = sieve_buffer;
    MpioFile f = MpioFile::open(comm, fsys, "strided.dat",
                                fs::kRead | fs::kWrite | fs::kCreate, mc);
    std::vector<std::byte> bg(4096);
    for (std::size_t i = 0; i < bg.size(); ++i) {
      bg[i] = static_cast<std::byte>(i % 199 + 1);
    }
    f.writeAt(0, bg.data(), static_cast<Bytes>(bg.size()));
    auto e = mpi::Datatype::byte().commit();
    auto ft = mpi::Datatype::vector(kSievePieces, 8, 64,
                                    mpi::Datatype::byte()).commit();
    f.setView(0, e, ft);
    std::vector<std::byte> buf(static_cast<std::size_t>(kSievePieces * 8));
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::byte>(i % 7 + 200);
    }
    const auto ops = [&] { return fsys.opsByClient().at(comm.proc().rank()); };
    const std::int64_t before = ops();
    if (write) {
      f.writeAt(0, buf.data(), static_cast<Bytes>(buf.size()));
    } else {
      f.readAt(0, buf.data(), static_cast<Bytes>(buf.size()));
    }
    out.fs_calls = ops() - before;
    if (!write) out.bytes = buf;
    f.close();
  });
  if (write) {
    out.bytes.resize(static_cast<std::size_t>(fsys.peekSize("strided.dat")));
    fsys.peek("strided.dat", 0, out.bytes);
  }
  return out;
}

TEST(MpioFileTest, DataSievingReducesRequestCountForStridedReads) {
  auto countRequests = [&](bool sieving) {
    fs::Filesystem fsys(fsCfg());
    mpi::runJob(job(1), [&](mpi::Comm& comm) {
      MpioConfig mc;
      mc.enable_data_sieving = sieving;
      MpioFile f = MpioFile::open(comm, fsys, "sieve.dat",
                                  fs::kRead | fs::kWrite | fs::kCreate, mc);
      std::vector<std::byte> init(4096, std::byte{7});
      f.writeAt(0, init.data(), 4096);
      // Strided view: 64 pieces of 8 bytes, stride 64.
      auto e = mpi::Datatype::byte().commit();
      auto ft = mpi::Datatype::vector(64, 8, 64, mpi::Datatype::byte()).commit();
      f.setView(0, e, ft);
      std::vector<std::byte> out(64 * 8);
      f.readAt(0, out.data(), static_cast<Bytes>(out.size()));
      for (auto v : out) EXPECT_EQ(v, std::byte{7});
      f.close();
    });
    return fsys.stats().read_requests;
  };
  const auto with = countRequests(true);
  const auto without = countRequests(false);
  EXPECT_LT(with, without / 8);

  // Several sieve windows: one pread per window, same bytes as unsieved.
  const StridedAccess sieved = stridedAccess(false, true, kSmallSieve);
  const StridedAccess plain = stridedAccess(false, false, kSmallSieve);
  EXPECT_EQ(sieved.bytes, plain.bytes);
  EXPECT_EQ(sieved.fs_calls, kSieveWindows);
  EXPECT_EQ(plain.fs_calls, kSievePieces);
}

TEST(MpioFileTest, SievedStridedWriteBytesCorrect) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    MpioFile f = MpioFile::open(comm, fsys, "sw.dat",
                                fs::kRead | fs::kWrite | fs::kCreate);
    std::vector<std::byte> bg(1024, std::byte{9});
    f.writeAt(0, bg.data(), 1024);
    auto e = mpi::Datatype::byte().commit();
    auto ft = mpi::Datatype::vector(8, 4, 16, mpi::Datatype::byte()).commit();
    f.setView(0, e, ft);
    std::vector<std::byte> pieces(32, std::byte{1});
    f.writeAt(0, pieces.data(), 32);
    f.close();
  });
  // Pattern: 4 bytes of 1 at k*16, background 9 elsewhere.
  std::vector<std::byte> out(128);
  fsys.peek("sw.dat", 0, out);
  for (int i = 0; i < 128; ++i) {
    const bool inside = (i % 16) < 4;
    EXPECT_EQ(out[static_cast<std::size_t>(i)],
              inside ? std::byte{1} : std::byte{9})
        << "byte " << i;
  }

  // Several sieve windows: a pread and a pwrite per window, and the file
  // ends up byte-identical to the unsieved path.
  const StridedAccess sieved = stridedAccess(true, true, kSmallSieve);
  const StridedAccess plain = stridedAccess(true, false, kSmallSieve);
  EXPECT_EQ(sieved.bytes, plain.bytes);
  EXPECT_EQ(sieved.fs_calls, 2 * kSieveWindows);
  EXPECT_EQ(plain.fs_calls, kSievePieces);
}

TEST(MpioFileTest, EmptyParticipantInCollectiveIsLegal) {
  const int P = 3;
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    MpioFile f = MpioFile::open(comm, fsys, "e.dat",
                                fs::kWrite | fs::kCreate);
    std::vector<std::byte> buf(16, static_cast<std::byte>(comm.rank()));
    // Rank 1 contributes nothing but must still participate.
    const Bytes n = comm.rank() == 1 ? 0 : 16;
    f.writeAtAll(comm.rank() * 16, buf.data(), n);
    f.close();
  });
  std::vector<std::byte> got(16);
  fsys.peek("e.dat", 32, got);
  EXPECT_EQ(got[0], std::byte{2});
}

TEST(MpioFileTest, AllEmptyCollectiveIsNoop) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    MpioFile f = MpioFile::open(comm, fsys, "n.dat",
                                fs::kWrite | fs::kCreate);
    f.writeAtAll(0, nullptr, 0);
    f.close();
  });
  EXPECT_EQ(fsys.peekSize("n.dat"), 0);
}

}  // namespace
}  // namespace tcio::io
