#include "tcio/file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mpi/runtime.h"
#include "tcio/capi.h"

namespace tcio::core {
namespace {

fs::FsConfig fsCfg() {
  fs::FsConfig c;
  c.num_osts = 4;
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

TEST(TcioFileTest, SingleRankWriteCloseReadBack) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    File f(comm, fsys, "one.dat", fs::kWrite | fs::kCreate, smallTcio());
    const std::vector<int> data{1, 2, 3, 4, 5};
    f.writeAt(0, data.data(), 20);
    f.close();
  });
  std::vector<int> out(5);
  fsys.peek("one.dat", 0, {reinterpret_cast<std::byte*>(out.data()), 20});
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(fsys.peekSize("one.dat"), 20);
}

TEST(TcioFileTest, PaperFig4Workflow) {
  // Two processes, two in-memory arrays (int, double), LEN=3, interleaved
  // round-robin into a shared file — the paper's running example.
  fs::Filesystem fsys(fsCfg());
  const int P = 2, LEN = 3;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    File f(comm, fsys, "fig4.dat", fs::kWrite | fs::kCreate,
           smallTcio(/*seg=*/36, /*nseg=*/4));
    const int r = comm.rank();
    std::vector<std::int32_t> ints{r * 10 + 1, r * 10 + 2, r * 10 + 3};
    std::vector<double> dbls{r + 0.1, r + 0.2, r + 0.3};
    const Bytes block = 12;  // int + double
    for (int i = 0; i < LEN; ++i) {
      Offset pos = r * block + static_cast<Offset>(i) * block * P;
      f.writeAt(pos, &ints[static_cast<std::size_t>(i)], 4);
      f.writeAt(pos + 4, &dbls[static_cast<std::size_t>(i)], 8);
    }
    f.close();
  });
  // File: slot k = rank k%2, element k/2.
  for (int slot = 0; slot < P * LEN; ++slot) {
    const int r = slot % P, i = slot / P;
    std::int32_t iv;
    double dv;
    std::vector<std::byte> raw(12);
    fsys.peek("fig4.dat", slot * 12, raw);
    std::memcpy(&iv, raw.data(), 4);
    std::memcpy(&dv, raw.data() + 4, 8);
    EXPECT_EQ(iv, r * 10 + i + 1);
    EXPECT_DOUBLE_EQ(dv, r + 0.1 * (i + 1));
  }
}

TEST(TcioFileTest, WriteSpanningSegmentsSplitsCorrectly) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    File f(comm, fsys, "span.dat", fs::kWrite | fs::kCreate,
           smallTcio(/*seg=*/128, /*nseg=*/8));
    if (comm.rank() == 0) {
      std::vector<std::byte> big(500);
      for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = static_cast<std::byte>(i % 251);
      }
      f.writeAt(100, big.data(), 500);  // spans segments 0..4
    }
    f.close();
  });
  std::vector<std::byte> out(500);
  fsys.peek("span.dat", 100, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<std::byte>(i % 251)) << i;
  }
}

TEST(TcioFileTest, WriteThenReadBackSameSessionViaFetch) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(4), [&](mpi::Comm& comm) {
    File f(comm, fsys, "rw.dat", fs::kRead | fs::kWrite | fs::kCreate,
           smallTcio());
    const std::int64_t v = comm.rank() * 111;
    f.writeAt(comm.rank() * 8, &v, 8);
    f.flush();
    // Every rank reads its right neighbour's value.
    const int peer = (comm.rank() + 1) % comm.size();
    std::int64_t got = -1;
    f.readAt(peer * 8, &got, 8);
    f.fetch();
    EXPECT_EQ(got, peer * 111);
    f.close();
  });
}

TEST(TcioFileTest, RestartDumpThenLoad) {
  // The ART pattern: dump a snapshot, close, reopen, restore.
  fs::Filesystem fsys(fsCfg());
  const int P = 4;
  const Bytes per_rank = 1000;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    File f(comm, fsys, "snap.dat", fs::kWrite | fs::kCreate, smallTcio());
    std::vector<std::byte> mine(static_cast<std::size_t>(per_rank));
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i] = static_cast<std::byte>((comm.rank() * 131 + i) % 251);
    }
    f.writeAt(comm.rank() * per_rank, mine.data(), per_rank);
    f.close();
  });
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    File f(comm, fsys, "snap.dat", fs::kRead, smallTcio());
    std::vector<std::byte> got(static_cast<std::size_t>(per_rank));
    f.readAt(comm.rank() * per_rank, got.data(), per_rank);
    f.fetch();
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], static_cast<std::byte>((comm.rank() * 131 + i) % 251));
    }
    f.close();
  });
}

TEST(TcioFileTest, LazyReadDoesNotMaterializeUntilFetch) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    {
      File w(comm, fsys, "lazy.dat", fs::kWrite | fs::kCreate, smallTcio());
      const std::int64_t v = 7777;
      if (comm.rank() == 0) w.writeAt(0, &v, 8);
      w.close();
    }
    File f(comm, fsys, "lazy.dat", fs::kRead, smallTcio());
    std::int64_t got = -1;
    f.readAt(0, &got, 8);
    EXPECT_EQ(got, -1);  // lazy: nothing landed yet
    f.fetch();
    EXPECT_EQ(got, 7777);
    f.close();
  });
}

TEST(TcioFileTest, CollectiveFetchServesOwnersInAnyReadOrder) {
  // Pending reads name their owners in descending, then interleaved order,
  // several per owner and some straddling two owners' segments; the
  // collective gather serves every byte to its own destination.
  constexpr Bytes kSeg = 64;
  constexpr Bytes kFile = 16 * kSeg;  // segment g is owned by rank g % 4
  const auto byteAt = [](Offset o) {
    return static_cast<std::byte>((o * 7 + 3) % 251);
  };
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(4), [&](mpi::Comm& comm) {
    const Bytes quarter = kFile / comm.size();
    {
      File w(comm, fsys, "order.dat", fs::kWrite | fs::kCreate,
             smallTcio(kSeg, 4));
      std::vector<std::byte> mine(static_cast<std::size_t>(quarter));
      for (Bytes i = 0; i < quarter; ++i) {
        mine[static_cast<std::size_t>(i)] = byteAt(comm.rank() * quarter + i);
      }
      w.writeAt(comm.rank() * quarter, mine.data(), quarter);
      w.close();
    }
    struct Read {
      Offset off;
      Bytes len;
    };
    std::vector<Read> reads;
    const Offset skew = comm.rank() * 5;
    for (std::int64_t g = 15; g >= 0; --g) {  // owners 3, 2, 1, 0, 3, ...
      reads.push_back({g * kSeg + skew, 8});
    }
    for (const std::int64_t g : {2, 0, 3, 1, 6, 4, 7, 5, 10, 8, 11, 9}) {
      reads.push_back({g * kSeg + 20 + skew, 12});
      reads.push_back({g * kSeg + 54, 20});  // runs into segment g + 1
    }
    File f(comm, fsys, "order.dat", fs::kRead, smallTcio(kSeg, 4));
    std::vector<std::vector<std::byte>> got;
    for (const Read& r : reads) {
      got.emplace_back(static_cast<std::size_t>(r.len), std::byte{0xee});
      f.readAt(r.off, got.back().data(), r.len);
    }
    f.fetch();
    EXPECT_EQ(f.stats().collective_fetches, 1);
    for (std::size_t k = 0; k < reads.size(); ++k) {
      for (Bytes i = 0; i < reads[k].len; ++i) {
        ASSERT_EQ(got[k][static_cast<std::size_t>(i)],
                  byteAt(reads[k].off + i))
            << "read " << k << " byte " << i;
      }
    }
    f.close();
  });
}

TEST(TcioFileTest, EagerReadAblationMaterializesImmediately) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    {
      File w(comm, fsys, "eager.dat", fs::kWrite | fs::kCreate, smallTcio());
      const std::int64_t v = 1234;
      if (comm.rank() == 0) w.writeAt(0, &v, 8);
      w.close();
    }
    TcioConfig cfg = smallTcio();
    cfg.lazy_reads = false;
    File f(comm, fsys, "eager.dat", fs::kRead, cfg);
    std::int64_t got = -1;
    f.readAt(0, &got, 8);
    EXPECT_EQ(got, 1234);  // already there
    f.close();
  });
}

TEST(TcioFileTest, AutoIndependentFetchOnSegmentChange) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    {
      File w(comm, fsys, "auto.dat", fs::kWrite | fs::kCreate,
             smallTcio(/*seg=*/64, /*nseg=*/8));
      if (comm.rank() == 0) {
        std::vector<std::int64_t> vals{10, 20, 30, 40};
        for (int i = 0; i < 4; ++i) {
          w.writeAt(i * 64, &vals[static_cast<std::size_t>(i)], 8);
        }
      }
      w.close();
    }
    TcioConfig rc = smallTcio(/*seg=*/64, /*nseg=*/8);
    rc.auto_fetch_on_segment_exit = true;  // the paper's literal trigger
    File f(comm, fsys, "auto.dat", fs::kRead, rc);
    std::int64_t a = -1, b = -1;
    f.readAt(0, &a, 8);    // pending in segment 0
    f.readAt(64, &b, 8);   // crosses to segment 1 -> segment-0 group resolves
    EXPECT_EQ(a, 10);
    EXPECT_EQ(b, -1);      // still pending
    EXPECT_EQ(f.stats().independent_fetches, 1);
    f.fetch();
    EXPECT_EQ(b, 20);
    f.close();
  });
}

// Fig. 5's read: each rank reads two arrays (4- and 8-byte elements) whose
// element i sits in 12-byte block i * P + rank. 1000-byte segments split
// some 8-byte elements across two segments.
struct Fig5ReadMode {
  const char* name;
  bool onesided = true;
  bool lazy = true;
  bool auto_fetch = false;
  bool node_agg = false;
};

struct Fig5ReadResult {
  std::size_t max_runs = 0;       // largest pending record on any rank
  std::size_t max_straddles = 0;  // most segment-straddling reads on a rank
};

Fig5ReadResult fig5Read(int P, const Fig5ReadMode& m) {
  constexpr std::int64_t kLen = 200;
  constexpr Bytes kSeg = 1000;
  const auto byteAt = [](Offset o) {
    return static_cast<std::byte>((o * 7 + 3) % 251);
  };
  const auto offsetOf = [P](int rank, std::int64_t i, int j) {
    return (i * P + rank) * 12 + (j == 0 ? 0 : 4);
  };
  const std::string name = std::string("fig5_") + m.name + ".dat";
  fs::Filesystem fsys(fsCfg());
  mpi::JobConfig jc = job(P);
  jc.net.ranks_per_node = 4;
  std::vector<std::size_t> runs(static_cast<std::size_t>(P));
  std::vector<std::size_t> straddles(static_cast<std::size_t>(P));
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    {
      File w(comm, fsys, name, fs::kWrite | fs::kCreate, smallTcio(kSeg, 3));
      for (std::int64_t i = 0; i < kLen; ++i) {
        for (int j = 0; j < 2; ++j) {
          const Bytes n = j == 0 ? 4 : 8;
          std::byte e[8];
          for (Bytes b = 0; b < n; ++b) e[b] = byteAt(offsetOf(r, i, j) + b);
          w.writeAt(offsetOf(r, i, j), e, n);
        }
      }
      w.close();
    }
    TcioConfig rc = smallTcio(kSeg, 3);
    rc.use_onesided = m.onesided;
    rc.lazy_reads = m.lazy;
    rc.auto_fetch_on_segment_exit = m.auto_fetch;
    rc.node_aggregation = m.node_agg;
    File f(comm, fsys, name, fs::kRead, rc);
    // Uninitialized destinations: a byte no piece lands on shows.
    auto ints = std::make_unique_for_overwrite<std::byte[]>(4 * kLen);
    auto dbls = std::make_unique_for_overwrite<std::byte[]>(8 * kLen);
    std::size_t straddling = 0;
    for (std::int64_t i = 0; i < kLen; ++i) {
      f.readAt(offsetOf(r, i, 0), ints.get() + 4 * i, 4);
      f.readAt(offsetOf(r, i, 1), dbls.get() + 8 * i, 8);
      const Offset last = offsetOf(r, i, 1) + 7;
      if (last / kSeg != offsetOf(r, i, 1) / kSeg) ++straddling;
    }
    runs[static_cast<std::size_t>(r)] = f.pendingReadRuns();
    straddles[static_cast<std::size_t>(r)] = straddling;
    f.fetch();
    for (std::int64_t i = 0; i < kLen; ++i) {
      for (Bytes b = 0; b < 4; ++b) {
        ASSERT_EQ(ints[static_cast<std::size_t>(4 * i + b)],
                  byteAt(offsetOf(r, i, 0) + b))
            << m.name << " rank " << r << " int " << i;
      }
      for (Bytes b = 0; b < 8; ++b) {
        ASSERT_EQ(dbls[static_cast<std::size_t>(8 * i + b)],
                  byteAt(offsetOf(r, i, 1) + b))
            << m.name << " rank " << r << " double " << i;
      }
    }
    f.close();
  });
  return {*std::max_element(runs.begin(), runs.end()),
          *std::max_element(straddles.begin(), straddles.end())};
}

TEST(TcioFileTest, Fig5ReadEveryModeLandsEveryByte) {
  const Fig5ReadMode modes[] = {
      {"onesided"},
      {"twosided", /*onesided=*/false},
      {"nodeagg", true, true, false, /*node_agg=*/true},
      {"autofetch", true, true, /*auto_fetch=*/true},
      {"eager", true, /*lazy=*/false},
  };
  for (const int P : {8, 32}) {
    for (const Fig5ReadMode& m : modes) {
      SCOPED_TRACE(std::string(m.name) + " P=" + std::to_string(P));
      const Fig5ReadResult res = fig5Read(P, m);
      if (m.lazy && !m.auto_fetch) {
        // The lazy record holds a run per array plus 2 or 3 per straddling
        // read: O(arrays + straddles), whatever P and the read count are.
        EXPECT_LE(res.max_runs, 2 + (5 * res.max_straddles + 1) / 2);
      }
      if (!m.lazy) {
        EXPECT_EQ(res.max_runs, 0u);
      }
    }
  }
}

TEST(TcioFileTest, ReopenWithoutTruncateKeepsBytesNotRewritten) {
  // Rank 0 writes 512 B of 0xAA and closes. A reopen without kTruncate
  // rewrites 4 B at offset 0: the other 508 B keep 0xAA in the file, and a
  // read in the same session sees them around the rewrite.
  constexpr Bytes kOld = 512;
  const auto expected = [](Offset off) {
    return off < 4 ? std::byte{0xBB} : std::byte{0xAA};
  };
  const Fig5ReadMode modes[] = {
      {"onesided"},
      {"twosided", /*onesided=*/false},
      {"nodeagg", true, true, false, /*node_agg=*/true},
      {"eager", true, /*lazy=*/false},
  };
  for (const unsigned flags : {fs::kRead | fs::kWrite, unsigned{fs::kWrite}}) {
    for (const Fig5ReadMode& m : modes) {
      SCOPED_TRACE(std::string(m.name) +
                   ((flags & fs::kRead) != 0 ? " read-write" : " write-only"));
      fs::Filesystem fsys(fsCfg());
      mpi::runJob(job(2), [&](mpi::Comm& comm) {
        {
          File w(comm, fsys, "reopen.dat", fs::kWrite | fs::kCreate,
                 smallTcio());
          const std::vector<std::byte> old(kOld, std::byte{0xAA});
          if (comm.rank() == 0) w.writeAt(0, old.data(), kOld);
          w.close();
        }
        TcioConfig c = smallTcio();
        c.use_onesided = m.onesided;
        c.lazy_reads = m.lazy;
        c.node_aggregation = m.node_agg;
        File f(comm, fsys, "reopen.dat", flags, c);
        const std::vector<std::byte> fresh(4, std::byte{0xBB});
        if (comm.rank() == 0) f.writeAt(0, fresh.data(), 4);
        if ((flags & fs::kRead) != 0) {
          f.flush();
          std::byte got[8];
          if (comm.rank() == 1) f.readAt(0, got, 8);
          f.fetch();
          if (comm.rank() == 1) {
            for (int b = 0; b < 8; ++b) {
              EXPECT_EQ(got[b], expected(b)) << "byte " << b;
            }
          }
        }
        f.close();
      });
      ASSERT_EQ(fsys.peekSize("reopen.dat"), kOld);
      std::vector<std::byte> file(kOld);
      fsys.peek("reopen.dat", 0, file);
      for (Bytes b = 0; b < kOld; ++b) {
        ASSERT_EQ(file[static_cast<std::size_t>(b)], expected(b))
            << "file byte " << b;
      }
    }
  }
}

TEST(TcioFileTest, NodeAggregatedFetchRunsNoLeaderExchange) {
  // Node aggregation covers writes only: a fetch reads through the
  // one-sided gather. Its one leader exchange is the write exchange every
  // collective call runs, empty here after the flush, so no byte crosses a
  // node's memory bus for the reads.
  constexpr int kP = 24;
  constexpr std::int64_t kLen = 64;
  const auto valueAt = [](std::int64_t block) {
    return static_cast<std::uint64_t>(block) * 0x9E3779B97F4A7C15ULL + 1;
  };
  fs::Filesystem fsys(fsCfg());
  mpi::JobConfig jc = job(kP);
  jc.net.ranks_per_node = 12;
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    TcioConfig c = smallTcio();
    c.node_aggregation = true;
    File f(comm, fsys, "nodeagg_rw.dat", fs::kRead | fs::kWrite | fs::kCreate,
           c);
    const int r = comm.rank();
    for (std::int64_t i = 0; i < kLen; ++i) {  // block i * P + rank
      const std::int64_t block = i * kP + r;
      const std::uint64_t v = valueAt(block);
      f.writeAt(block * 8, &v, 8);
    }
    f.flush();
    std::vector<std::uint64_t> all(kLen * kP, 0);
    for (std::size_t b = 0; b < all.size(); ++b) {
      f.readAt(static_cast<Offset>(b) * 8, &all[b], 8);
    }
    ASSERT_NE(f.nodeAggStats(), nullptr);
    const topo::NodeAggStats agg = *f.nodeAggStats();
    const Bytes membus = f.stats().intranode_bytes;
    f.fetch();
    EXPECT_EQ(f.nodeAggStats()->exchanges, agg.exchanges + 1);
    EXPECT_EQ(f.nodeAggStats()->internode_bytes, agg.internode_bytes);
    EXPECT_EQ(f.nodeAggStats()->intranode_bytes, agg.intranode_bytes);
    EXPECT_EQ(f.stats().intranode_bytes, membus);
    for (std::size_t b = 0; b < all.size(); ++b) {
      ASSERT_EQ(all[b], valueAt(static_cast<std::int64_t>(b)))
          << "rank " << r << " block " << b;
    }
    f.close();
  });
}

TEST(TcioFileTest, ReadOnlyFetchRunsNoWriteExchange) {
  // A file opened without fs::kWrite has nothing to send, so neither its
  // fetch nor its close runs the write exchange: the node leaders stay idle.
  constexpr int kP = 24;
  constexpr std::int64_t kLen = 64;
  const auto valueAt = [](std::int64_t block) {
    return static_cast<std::uint64_t>(block) * 0x9E3779B97F4A7C15ULL + 1;
  };
  fs::Filesystem fsys(fsCfg());
  mpi::JobConfig jc = job(kP);
  jc.net.ranks_per_node = 12;
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    TcioConfig c = smallTcio();
    c.node_aggregation = true;
    const int r = comm.rank();
    {
      File w(comm, fsys, "nodeagg_ro.dat", fs::kWrite | fs::kCreate, c);
      for (std::int64_t i = 0; i < kLen; ++i) {  // block i * P + rank
        const std::int64_t block = i * kP + r;
        const std::uint64_t v = valueAt(block);
        w.writeAt(block * 8, &v, 8);
      }
      w.close();
    }
    File f(comm, fsys, "nodeagg_ro.dat", fs::kRead, c);
    std::vector<std::uint64_t> all(kLen * kP, 0);
    for (std::size_t b = 0; b < all.size(); ++b) {
      f.readAt(static_cast<Offset>(b) * 8, &all[b], 8);
    }
    ASSERT_NE(f.nodeAggStats(), nullptr);
    f.fetch();
    EXPECT_EQ(f.nodeAggStats()->exchanges, 0);
    for (std::size_t b = 0; b < all.size(); ++b) {
      ASSERT_EQ(all[b], valueAt(static_cast<std::int64_t>(b)))
          << "rank " << r << " block " << b;
    }
    f.close();
    EXPECT_EQ(f.nodeAggStats()->exchanges, 0);
  });
}

TEST(TcioFileTest, Fig5PendingRecordDoesNotGrowWithP) {
  // The record holds two runs per rank plus a few per straddling read, at
  // either P; one entry per datum would be 400 per rank.
  for (const int P : {8, 32}) {
    const Fig5ReadResult res = fig5Read(P, {"count"});
    EXPECT_GE(res.max_straddles, 1u) << "P=" << P;
    EXPECT_LE(res.max_straddles, 2u) << "P=" << P;
    EXPECT_LE(res.max_runs, 8u) << "P=" << P;
  }
}

TEST(TcioFileTest, InterleavedManyRanksMatchesReferenceModel) {
  // Property test: the paper's benchmark pattern at several scales must
  // produce exactly the bytes a sequential reference model produces.
  for (const int P : {2, 4, 8}) {
    fs::Filesystem fsys(fsCfg());
    const int LEN = 32;
    const Bytes block = 12;
    std::vector<std::byte> reference(
        static_cast<std::size_t>(P * LEN * block));
    // Reference: rank r element i -> slot i*P + r.
    for (int r = 0; r < P; ++r) {
      for (int i = 0; i < LEN; ++i) {
        const std::int32_t iv = r * 1000 + i;
        const double dv = r * 3.0 + i;
        const std::size_t pos =
            static_cast<std::size_t>((i * P + r) * block);
        std::memcpy(reference.data() + pos, &iv, 4);
        std::memcpy(reference.data() + pos + 4, &dv, 8);
      }
    }
    mpi::runJob(job(P), [&](mpi::Comm& comm) {
      File f(comm, fsys, "ref.dat", fs::kWrite | fs::kCreate,
             smallTcio(/*seg=*/96, /*nseg=*/64));
      const int r = comm.rank();
      for (int i = 0; i < LEN; ++i) {
        const std::int32_t iv = r * 1000 + i;
        const double dv = r * 3.0 + i;
        const Offset pos = (static_cast<Offset>(i) * P + r) * block;
        f.writeAt(pos, &iv, 4);
        f.writeAt(pos + 4, &dv, 8);
      }
      f.close();
    });
    std::vector<std::byte> got(reference.size());
    fsys.peek("ref.dat", 0, got);
    EXPECT_EQ(got, reference) << "P=" << P;
  }
}

TEST(TcioFileTest, VariableSizedBlocksLikeArt) {
  // Dynamic block sizes — the case where OCIO file views cannot be used.
  fs::Filesystem fsys(fsCfg());
  const int P = 4;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    File f(comm, fsys, "var.dat", fs::kWrite | fs::kCreate,
           smallTcio(/*seg=*/128, /*nseg=*/64));
    // Rank r writes blocks of size 10+r*7 at offsets interleaved with a
    // running global cursor every rank can compute.
    Offset cursor = 0;
    for (int round = 0; round < 6; ++round) {
      for (int r = 0; r < P; ++r) {
        const Bytes len = 10 + r * 7 + round;
        if (r == comm.rank()) {
          std::vector<std::byte> data(static_cast<std::size_t>(len),
                                      static_cast<std::byte>(r * 40 + round));
          f.writeAt(cursor, data.data(), len);
        }
        cursor += len;
      }
    }
    f.close();
  });
  // Verify with the same cursor walk.
  Offset cursor = 0;
  for (int round = 0; round < 6; ++round) {
    for (int r = 0; r < P; ++r) {
      const Bytes len = 10 + r * 7 + round;
      std::vector<std::byte> got(static_cast<std::size_t>(len));
      fsys.peek("var.dat", cursor, got);
      for (auto b : got) {
        ASSERT_EQ(b, static_cast<std::byte>(r * 40 + round))
            << "round " << round << " rank " << r;
      }
      cursor += len;
    }
  }
}

TEST(TcioFileTest, TwoSidedAblationProducesIdenticalFile) {
  auto runMode = [&](bool onesided) {
    fs::Filesystem fsys(fsCfg());
    const int P = 4, LEN = 16;
    mpi::runJob(job(P), [&](mpi::Comm& comm) {
      TcioConfig cfg = smallTcio(/*seg=*/96, /*nseg=*/32);
      cfg.use_onesided = onesided;
      File f(comm, fsys, "mode.dat", fs::kWrite | fs::kCreate, cfg);
      for (int i = 0; i < LEN; ++i) {
        const std::int64_t v = comm.rank() * 100 + i;
        f.writeAt((static_cast<Offset>(i) * P + comm.rank()) * 8, &v, 8);
      }
      f.close();
    });
    std::vector<std::byte> contents(static_cast<std::size_t>(P * LEN * 8));
    fsys.peek("mode.dat", 0, contents);
    return contents;
  };
  EXPECT_EQ(runMode(true), runMode(false));
}

TEST(TcioFileTest, TwoSidedReadFetch) {
  fs::Filesystem fsys(fsCfg());
  const int P = 4;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    TcioConfig cfg = smallTcio();
    cfg.use_onesided = false;
    {
      File w(comm, fsys, "ts.dat", fs::kWrite | fs::kCreate, cfg);
      const std::int64_t v = comm.rank() + 50;
      w.writeAt(comm.rank() * 8, &v, 8);
      w.close();
    }
    File f(comm, fsys, "ts.dat", fs::kRead, cfg);
    const int peer = (comm.rank() + 2) % P;
    std::int64_t got = -1;
    f.readAt(peer * 8, &got, 8);
    f.fetch();
    EXPECT_EQ(got, peer + 50);
    f.close();
  });
}

// Messages a P=4 two-sided job puts on the network when every rank writes
// one element into every owner's segment. Each staged write exchange is one
// sized alltoallv of [BlockMeta][payload] records, and the fetch's reply
// exchange has no count step: each requester already knows how many bytes
// it asked every owner for.
TEST(TcioFileTest, TwoSidedExchangeMessageCounts) {
  const int P = 4;
  const auto run = [&](bool round_trip) {
    fs::Filesystem fsys(fsCfg());
    TcioConfig cfg = smallTcio();
    cfg.use_onesided = false;
    cfg.integrity.enabled = -1;  // no digest exchange under TCIO_INTEGRITY
    return mpi::runJob(job(P), [&](mpi::Comm& comm) {
      const auto r = static_cast<std::int64_t>(comm.rank());
      {
        File w(comm, fsys, "msgs.dat", fs::kWrite | fs::kCreate, cfg);
        for (SegmentId g = 0; g < P; ++g) {  // segment g is owned by rank g
          const std::int64_t v = g * 100 + r;
          w.writeAt(g * cfg.segment_size + r * 8, &v, 8);
        }
        if (!round_trip) w.flush();
        w.close();
      }
      if (!round_trip) return;
      File f(comm, fsys, "msgs.dat", fs::kRead, cfg);
      std::vector<std::int64_t> got(P, -1);
      const std::int64_t peer = (r + 1) % P;
      for (SegmentId g = 0; g < P; ++g) {
        f.readAt(g * cfg.segment_size + peer * 8,
                 &got[static_cast<std::size_t>(g)], 8);
      }
      f.fetch();
      for (SegmentId g = 0; g < P; ++g) {
        EXPECT_EQ(got[static_cast<std::size_t>(g)], g * 100 + peer);
      }
      f.close();
    }).network_messages;
  };
  EXPECT_EQ(run(/*round_trip=*/false), 98);  // write + flush + close
  // write + close, then a read-only read + fetch + close, which runs no
  // write exchange
  EXPECT_EQ(run(/*round_trip=*/true), 202);
}

TEST(TcioFileTest, ReadOnlyOneSidedIntegrityMessageCounts) {
  // One-sided with integrity on: a read-only fetch and close send only read
  // work. There is no level-1 flush agreement and no digest exchange, so the
  // read-back's messages are those of the needed-segment union, the gets,
  // the scrub rounds, and the close's size reduction and barrier.
  const int P = 4;
  const auto run = [&](bool read_back) {
    fs::Filesystem fsys(fsCfg());
    TcioConfig cfg = smallTcio();
    cfg.integrity.enabled = 1;
    return mpi::runJob(job(P), [&](mpi::Comm& comm) {
      const auto r = static_cast<std::int64_t>(comm.rank());
      {
        File w(comm, fsys, "ro_msgs.dat", fs::kWrite | fs::kCreate, cfg);
        for (SegmentId g = 0; g < P; ++g) {  // segment g is owned by rank g
          const std::int64_t v = g * 100 + r;
          w.writeAt(g * cfg.segment_size + r * 8, &v, 8);
        }
        w.close();
      }
      if (!read_back) return;
      File f(comm, fsys, "ro_msgs.dat", fs::kRead, cfg);
      std::vector<std::int64_t> got(P, -1);
      const std::int64_t peer = (r + 1) % P;
      for (SegmentId g = 0; g < P; ++g) {
        f.readAt(g * cfg.segment_size + peer * 8,
                 &got[static_cast<std::size_t>(g)], 8);
      }
      f.fetch();
      for (SegmentId g = 0; g < P; ++g) {
        EXPECT_EQ(got[static_cast<std::size_t>(g)], g * 100 + peer);
      }
      f.close();
    }).network_messages;
  };
  EXPECT_EQ(run(/*read_back=*/true) - run(/*read_back=*/false), 184);
}

TEST(TcioFileTest, CapacityOverflowRejected) {
  fs::Filesystem fsys(fsCfg());
  EXPECT_THROW(
      mpi::runJob(job(2),
                  [&](mpi::Comm& comm) {
                    File f(comm, fsys, "cap.dat", fs::kWrite | fs::kCreate,
                           smallTcio(/*seg=*/64, /*nseg=*/2));
                    // capacity = 64*2*2 = 256
                    const std::int64_t v = 0;
                    f.writeAt(300, &v, 8);
                    f.close();
                  }),
      Error);
}

TEST(TcioFileTest, MemoryFootprintIsLevel1PlusWindow) {
  fs::Filesystem fsys(fsCfg());
  const Bytes seg = 512;
  const std::int64_t nseg = 8;
  Bytes peak = 0;
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    File f(comm, fsys, "mem.dat", fs::kWrite | fs::kCreate,
           smallTcio(seg, nseg));
    const std::int64_t v = 1;
    f.writeAt(comm.rank() * 8, &v, 8);
    f.close();
    if (comm.rank() == 0) peak = comm.memory().peak();
  });
  // level-1 (seg) + window (nseg * (seg + 2 flag bytes)).
  EXPECT_EQ(peak, seg + nseg * (seg + 2));
}

TEST(TcioFileTest, StatsCountOperations) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    File f(comm, fsys, "stat.dat", fs::kRead | fs::kWrite | fs::kCreate,
           smallTcio(/*seg=*/64, /*nseg=*/8));
    const std::int64_t v = 5;
    f.writeAt(0, &v, 8);
    f.writeAt(64, &v, 8);  // new segment -> flush of segment 0
    EXPECT_EQ(f.stats().writes, 2);
    EXPECT_EQ(f.stats().level1_flushes, 1);
    f.flush();
    EXPECT_EQ(f.stats().level1_flushes, 2);
    std::int64_t got;
    f.readAt(0, &got, 8);
    f.fetch();
    EXPECT_EQ(f.stats().reads, 1);
    EXPECT_GE(f.stats().collective_fetches, 1);
    f.close();
  });
}

TEST(TcioFileTest, SequentialWriteApiMovesPointer) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(1), [&](mpi::Comm& comm) {
    File f(comm, fsys, "seq.dat", fs::kWrite | fs::kCreate, smallTcio());
    const auto dt = mpi::Datatype::int32();
    const std::int32_t a[2] = {1, 2};
    const std::int32_t b[1] = {3};
    f.write(a, 2, dt);
    EXPECT_EQ(f.tell(), 8);
    f.write(b, 1, dt);
    EXPECT_EQ(f.tell(), 12);
    f.seek(4, Whence::kSet);
    const std::int32_t c = 9;
    f.write(&c, 1, dt);
    f.close();
  });
  std::int32_t out[3];
  fsys.peek("seq.dat", 0, {reinterpret_cast<std::byte*>(out), 12});
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 9);
  EXPECT_EQ(out[2], 3);
}

TEST(TcioFileTest, CApiProgramThreeStyle) {
  // Program 3, literally: POSIX-like calls, no buffers, no file views.
  fs::Filesystem fsys(fsCfg());
  const int P = 2;
  const std::int64_t LEN = 6;
  const Bytes SIZEaccess = 1;
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    tcio_set_context(comm, fsys, smallTcio(/*seg=*/96, /*nseg=*/16));
    std::vector<std::int32_t> arr_i(static_cast<std::size_t>(LEN));
    std::vector<double> arr_d(static_cast<std::size_t>(LEN));
    for (std::int64_t i = 0; i < LEN; ++i) {
      arr_i[static_cast<std::size_t>(i)] = comm.rank() * 100 + static_cast<int>(i);
      arr_d[static_cast<std::size_t>(i)] = comm.rank() + i * 0.5;
    }
    const Bytes block_size = (4 + 8) * SIZEaccess;
    tcio_file* handle =
        tcio_open("prog3.dat", TCIO_WRONLY | TCIO_CREATE);
    for (std::int64_t i = 0; i < LEN; i += SIZEaccess) {
      Offset pos = comm.rank() * block_size + i * block_size * P;
      tcio_write_at(handle, pos, &arr_i[static_cast<std::size_t>(i)],
                    static_cast<int>(SIZEaccess), mpi::Datatype::int32());
      pos += 4 * SIZEaccess;
      tcio_write_at(handle, pos, &arr_d[static_cast<std::size_t>(i)],
                    static_cast<int>(SIZEaccess), mpi::Datatype::float64());
    }
    tcio_close(handle);
  });
  for (int slot = 0; slot < P * LEN; ++slot) {
    const int r = slot % P, i = slot / P;
    std::int32_t iv;
    double dv;
    std::vector<std::byte> raw(12);
    fsys.peek("prog3.dat", slot * 12, raw);
    std::memcpy(&iv, raw.data(), 4);
    std::memcpy(&dv, raw.data() + 4, 8);
    EXPECT_EQ(iv, r * 100 + i);
    EXPECT_DOUBLE_EQ(dv, r + i * 0.5);
  }
}

TEST(TcioFileTest, RandomizedPatternMatchesReference) {
  // Fuzz: random disjoint writes from all ranks, verified byte-for-byte.
  fs::Filesystem fsys(fsCfg());
  const int P = 4;
  const Bytes total = 8192;
  std::vector<std::byte> reference(static_cast<std::size_t>(total),
                                   std::byte{0});
  // Precompute a deterministic disjoint random partition: shuffle chunks of
  // random lengths among ranks.
  Rng rng(99);
  struct Piece {
    Offset off;
    Bytes len;
    int rank;
  };
  std::vector<Piece> pieces;
  Offset cur = 0;
  while (cur < total) {
    const Bytes len = std::min<Bytes>(1 + rng.uniformInt(0, 99), total - cur);
    const int owner = static_cast<int>(rng.uniformInt(0, P - 1));
    pieces.push_back({cur, len, owner});
    cur += len;
  }
  for (const Piece& p : pieces) {
    for (Bytes i = 0; i < p.len; ++i) {
      reference[static_cast<std::size_t>(p.off + i)] =
          static_cast<std::byte>((p.rank * 53 + p.off + i) % 251);
    }
  }
  mpi::runJob(job(P), [&](mpi::Comm& comm) {
    File f(comm, fsys, "fuzz.dat", fs::kWrite | fs::kCreate,
           smallTcio(/*seg=*/256, /*nseg=*/16));
    for (const Piece& p : pieces) {
      if (p.rank != comm.rank()) continue;
      std::vector<std::byte> data(static_cast<std::size_t>(p.len));
      for (Bytes i = 0; i < p.len; ++i) {
        data[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((p.rank * 53 + p.off + i) % 251);
      }
      f.writeAt(p.off, data.data(), p.len);
    }
    f.close();
  });
  std::vector<std::byte> got(static_cast<std::size_t>(total));
  fsys.peek("fuzz.dat", 0, got);
  EXPECT_EQ(got, reference);
}

TEST(TcioFileTest, FsFaultDuringClosePropagates) {
  fs::Filesystem fsys(fsCfg());
  FaultConfig one_shot;
  one_shot.fail_write_call = 0;  // first FS write call fails
  fsys.installFaultPlan(one_shot);
  EXPECT_THROW(
      mpi::runJob(job(2),
                  [&](mpi::Comm& comm) {
                    File f(comm, fsys, "fault.dat", fs::kWrite | fs::kCreate,
                           smallTcio());
                    const std::int64_t v = 1;
                    f.writeAt(comm.rank() * 8, &v, 8);
                    f.close();
                  }),
      FsError);
}

}  // namespace
}  // namespace tcio::core
