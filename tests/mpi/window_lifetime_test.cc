// RMA window lifetime and host memory: a window is freed when the last rank
// of its group drops its handle (MPI_Win_free), a dropped rank's memory
// stays usable by peers that still hold the window (the crash path), and a
// rank's host bytes exist only once its memory is written or handed out and
// until it gives them back. Host bytes are zeroed lazily, a chunk at a
// time, so every test here checks that what nothing wrote reads as zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "mpi/mpi.h"
#include "tcio/file.h"

namespace tcio::mpi {
namespace {

JobConfig cfg(int p) {
  JobConfig c;
  c.num_ranks = p;
  return c;
}

std::size_t liveWindows(Comm& comm, World& world) {
  return comm.proc().atomic([&] { return world.liveWindows(); });
}

Bytes hostBytes(Comm& comm, World& world) {
  return comm.proc().atomic([&] { return world.windowHostBytes(); });
}

TEST(WindowLifetimeTest, RegistryEmptyAfterEveryRankDropsItsHandle) {
  runJob(cfg(4), [](Comm& comm, World& world) {
    {
      Window a = Window::create(comm, 64);
      Window b = Window::create(comm, 128);
      a.localOverwrite(0, 1)[0] = std::byte{1};
      comm.barrier();
      EXPECT_EQ(liveWindows(comm, world), 2u);
      // Moving a handle neither frees the window nor releases twice.
      Window moved = std::move(a);
      comm.barrier();
      EXPECT_EQ(liveWindows(comm, world), 2u);
    }
    comm.barrier();
    EXPECT_EQ(liveWindows(comm, world), 0u);
    EXPECT_EQ(hostBytes(comm, world), 0);
  });
}

TEST(WindowLifetimeTest, PeerStillUsesWindowAfterOneRankDropsItsHandle) {
  runJob(cfg(2), [](Comm& comm, World& world) {
    auto win = std::make_unique<Window>(Window::create(comm, 64));
    if (comm.rank() == 1) {
      // Rank 1 leaves, as a crashed rank's unwinding would.
      win.reset();
      comm.send(nullptr, 0, 0, 0);
      comm.recv(nullptr, 0, 0, 1);
      EXPECT_EQ(liveWindows(comm, world), 0u);
      return;
    }
    comm.recv(nullptr, 0, 1, 0);
    EXPECT_EQ(liveWindows(comm, world), 1u);
    const std::int64_t v = 0x5eed;
    std::int64_t got = 0;
    win->lock(LockType::kExclusive, 1);
    win->put(1, 16, &v, sizeof(v));
    win->get(1, 16, &got, sizeof(got));
    win->unlock(1);
    EXPECT_EQ(got, v);
    win.reset();
    EXPECT_EQ(liveWindows(comm, world), 0u);
    comm.send(nullptr, 0, 1, 1);
  });
}

constexpr Bytes kSize = Bytes{1} << 20;

TEST(WindowLifetimeTest, UntouchedRankCostsNoHostBytesAndReadsZeros) {
  runJob(cfg(4), [](Comm& comm, World& world) {
    Window win = Window::create(comm, kSize);
    EXPECT_EQ(win.localSize(), kSize);
    comm.barrier();
    EXPECT_EQ(hostBytes(comm, world), 0);
    if (comm.rank() == 0) {
      std::vector<std::byte> got(1024, std::byte{0xff});
      win.lock(LockType::kShared, 2);
      win.get(2, kSize - 1024, got.data(), 1024);
      win.unlock(2);
      for (std::byte b : got) ASSERT_EQ(b, std::byte{0});
      // A get allocates nothing: rank 2's memory is still untouched.
      EXPECT_EQ(hostBytes(comm, world), 0);
    }
    comm.barrier();
    EXPECT_EQ(hostBytes(comm, world), 0);
    // Bounds follow the logical size even where nothing is allocated.
    if (comm.rank() == 1) {
      const std::int32_t v = 9;
      win.lock(LockType::kShared, 3);
      EXPECT_THROW(win.put(3, kSize - 2, &v, sizeof(v)), Error);
      win.unlock(3);
      EXPECT_EQ(hostBytes(comm, world), 0);
      EXPECT_THROW(win.localRange(kSize - 2, 4), Error);
    }
  });
}

TEST(WindowLifetimeTest, ResizeBeforeAndAfterFirstTouchKeepsBytes) {
  runJob(cfg(2), [](Comm& comm, World& world) {
    Window win = Window::create(comm, 16);
    comm.barrier();
    if (comm.rank() == 0) {
      // Before first touch: only the logical size moves.
      win.resizeLocal(32);
      EXPECT_EQ(win.localSize(), 32);
      EXPECT_EQ(hostBytes(comm, world), 0);
      std::byte* mem = win.localRange(0, 32);
      EXPECT_EQ(hostBytes(comm, world), 32);
      for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(mem[i], std::byte{0});
        mem[i] = static_cast<std::byte>(i + 1);
      }
      // After first touch: existing bytes kept, growth zero-filled.
      win.resizeLocal(64);
      mem = win.localRange(0, 64);
      for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(mem[i], static_cast<std::byte>(i + 1));
      }
      for (int i = 32; i < 64; ++i) ASSERT_EQ(mem[i], std::byte{0});
      win.resizeLocal(8);
      EXPECT_EQ(hostBytes(comm, world), 8);
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(win.localRange(0, 8)[i], static_cast<std::byte>(i + 1));
      }
    }
    comm.barrier();
    // A peer addresses the new logical size.
    if (comm.rank() == 1) {
      std::byte got[8] = {};
      win.lock(LockType::kShared, 0);
      win.get(0, 0, got, 8);
      EXPECT_THROW(win.get(0, 8, got, 1), Error);
      win.unlock(0);
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(got[i], static_cast<std::byte>(i + 1));
      }
    }
  });
}

TEST(WindowLifetimeTest, ReleasedHostBytesReadZeroUntilTouchedAgain) {
  runJob(cfg(2), [](Comm& comm, World& world) {
    Window win = Window::create(comm, kSize);
    const Bytes charged = comm.memory().used();
    std::memset(win.localOverwrite(0, kSize), 0xa5,
                static_cast<std::size_t>(kSize));
    comm.barrier();
    EXPECT_EQ(hostBytes(comm, world), 2 * kSize);
    comm.barrier();
    if (comm.rank() == 1) {
      win.releaseLocalHost();
      // Only this rank's bytes went; the logical size and charge stay.
      EXPECT_EQ(hostBytes(comm, world), kSize);
      EXPECT_EQ(win.localSize(), kSize);
      EXPECT_EQ(comm.memory().used(), charged);
    }
    comm.barrier();
    if (comm.rank() == 0) {
      // A peer's get reads the released memory as zeros...
      std::vector<std::byte> got(4096, std::byte{0xff});
      win.lock(LockType::kShared, 1);
      win.get(1, kSize - 4096, got.data(), 4096);
      win.unlock(1);
      for (std::byte b : got) ASSERT_EQ(b, std::byte{0});
      // ...without allocating it again; a put does, lands and stays.
      EXPECT_EQ(hostBytes(comm, world), kSize);
      const std::int64_t v = 0x7e1ea5e;
      win.lock(LockType::kShared, 1);
      win.put(1, 64, &v, sizeof(v));
      win.unlock(1);
      EXPECT_EQ(hostBytes(comm, world), 2 * kSize);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      const std::byte* mem = win.localRange(0, kSize);
      std::int64_t v = 0;
      std::memcpy(&v, mem + 64, sizeof(v));
      EXPECT_EQ(v, 0x7e1ea5e);
      for (Bytes i = 0; i < kSize; ++i) {
        if (i >= 64 && i < 64 + 8) continue;
        ASSERT_EQ(mem[i], std::byte{0}) << "byte " << i;
      }
      // Released again and re-touched locally: zeros, no stale put.
      win.releaseLocalHost();
      EXPECT_EQ(hostBytes(comm, world), kSize);
      mem = win.localRange(0, kSize);
      EXPECT_EQ(hostBytes(comm, world), 2 * kSize);
      for (Bytes i = 0; i < kSize; ++i) ASSERT_EQ(mem[i], std::byte{0});
    }
    comm.barrier();
    // The unreleased rank's bytes were never disturbed.
    if (comm.rank() == 0) {
      const std::byte* mem = win.localRange(0, kSize);
      for (Bytes i = 0; i < kSize; ++i) ASSERT_EQ(mem[i], std::byte{0xa5});
    }
  });
}

constexpr Bytes kChunk = LazyBytes::kChunk;

/// `n` bytes of zero with `v` at [at, at + len).
std::vector<std::byte> zerosWith(Bytes n, Offset at, Bytes len, int v) {
  std::vector<std::byte> out(static_cast<std::size_t>(n), std::byte{0});
  std::fill_n(out.begin() + at, len, static_cast<std::byte>(v));
  return out;
}

TEST(WindowLifetimeTest, PartialPutsIntoUntouchedMemoryReadZeroAroundThem) {
  constexpr Bytes kWin = 3 * kChunk + 100;  // the last chunk is short
  struct Piece {
    Offset at;
    Bytes len;
    int v;
  };
  // Out of order inside chunk 1, one across chunks 0 and 1, one at the end.
  const std::vector<Piece> pieces = {{kChunk + 900, 100, 0x11},
                                     {kChunk + 200, 50, 0x22},
                                     {kChunk + 2000, 10, 0x33},
                                     {kChunk - 8, 16, 0x44},
                                     {kWin - 30, 30, 0x55}};
  std::vector<std::byte> expect(kWin, std::byte{0});
  std::vector<std::vector<std::byte>> srcs;
  for (const Piece& p : pieces) {
    srcs.emplace_back(p.len, static_cast<std::byte>(p.v));
    std::fill_n(expect.begin() + p.at, p.len, static_cast<std::byte>(p.v));
  }
  runJob(cfg(2), [&](Comm& comm, World& world) {
    Window win = Window::create(comm, kWin);
    comm.barrier();
    if (comm.rank() == 0) {
      win.lock(LockType::kExclusive, 1);
      for (std::size_t i = 0; i < pieces.size(); ++i) {
        win.put(1, pieces[i].at, srcs[i].data(), pieces[i].len);
      }
      // Through get, across chunk boundaries, and between the puts.
      std::vector<std::byte> got(kWin, std::byte{0xff});
      win.get(1, 0, got.data(), kWin);
      std::vector<std::byte> gap(500, std::byte{0xff});
      win.get(1, kChunk + 1200, gap.data(), 500);
      win.unlock(1);
      EXPECT_EQ(got, expect);
      for (std::byte b : gap) ASSERT_EQ(b, std::byte{0});
      EXPECT_EQ(hostBytes(comm, world), kWin);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      // Through the ranged accessor, in one piece and in a late chunk.
      const std::byte* mem = win.localRange(0, kWin);
      EXPECT_EQ(std::vector<std::byte>(mem, mem + kWin), expect);
      const std::byte* tail = win.localRange(2 * kChunk + 10, 20);
      for (int i = 0; i < 20; ++i) ASSERT_EQ(tail[i], std::byte{0});
    }
  });
}

TEST(WindowLifetimeTest, OverwriteOfPartOfAChunkLeavesTheRestZero) {
  runJob(cfg(2), [](Comm& comm) {
    Window win = Window::create(comm, 2 * kChunk);
    if (comm.rank() == 1) {
      // As an owner's load lands a short segment: only its bytes are
      // written; the chunk's head and tail were never written.
      std::memset(win.localOverwrite(100, 50), 0x77, 50);
    }
    comm.barrier();
    if (comm.rank() == 0) {
      std::vector<std::byte> got(2 * kChunk, std::byte{0xff});
      win.lock(LockType::kShared, 1);
      win.get(1, 0, got.data(), 2 * kChunk);
      win.unlock(1);
      EXPECT_EQ(got, zerosWith(2 * kChunk, 100, 50, 0x77));
    }
    comm.barrier();
    if (comm.rank() == 1) {
      // A later overwrite past the first zeroes only the gap between them.
      std::memset(win.localOverwrite(3000, 8), 0x78, 8);
      std::vector<std::byte> expect = zerosWith(2 * kChunk, 100, 50, 0x77);
      std::fill_n(expect.begin() + 3000, 8, std::byte{0x78});
      const std::byte* mem = win.localRange(0, 2 * kChunk);
      EXPECT_EQ(std::vector<std::byte>(mem, mem + 2 * kChunk), expect);
    }
  });
}

TEST(WindowLifetimeTest, ResizeGrowthAndShrinkReadZeroPastTheContent) {
  runJob(cfg(1), [](Comm& comm) {
    Window win = Window::create(comm, 2 * kChunk - 10);
    std::memset(win.localOverwrite(kChunk, 20), 0x66, 20);
    // Growth turns the short last chunk into a full one that still holds
    // only its first 20 bytes, and adds untouched chunks.
    win.resizeLocal(4 * kChunk);
    const std::byte* mem = win.localRange(0, 4 * kChunk);
    EXPECT_EQ(std::vector<std::byte>(mem, mem + 4 * kChunk),
              zerosWith(4 * kChunk, kChunk, 20, 0x66));
    // A shrink through the written bytes keeps the part below the new end.
    win.resizeLocal(kChunk + 10);
    mem = win.localRange(0, kChunk + 10);
    EXPECT_EQ(std::vector<std::byte>(mem, mem + kChunk + 10),
              zerosWith(kChunk + 10, kChunk, 10, 0x66));
    // Regrown untouched this time: the new bytes read zero through get.
    win.resizeLocal(3 * kChunk);
    std::vector<std::byte> got(3 * kChunk, std::byte{0xff});
    win.lock(LockType::kShared, 0);
    win.get(0, 0, got.data(), 3 * kChunk);
    win.unlock(0);
    EXPECT_EQ(got, zerosWith(3 * kChunk, kChunk, 10, 0x66));
  });
}

TEST(WindowLifetimeTest, NodeAggregatedFileJobLeavesNoWindowState) {
  core::TcioConfig tcfg;
  tcfg.segment_size = 256;
  tcfg.segments_per_rank = 4;
  tcfg.node_aggregation = true;
  fs::Filesystem fsys(fs::FsConfig{});
  JobConfig jc = cfg(8);
  jc.net.ranks_per_node = 4;
  constexpr Bytes kPerRank = 200;
  runJob(jc, [&](Comm& comm, World& world) {
    std::vector<std::byte> mine(kPerRank,
                                static_cast<std::byte>(comm.rank() + 1));
    {
      core::File f(comm, fsys, "lifetime.dat", fs::kWrite | fs::kCreate,
                   tcfg);
      // Level-2 window plus the node-aggregation staging window.
      EXPECT_GE(liveWindows(comm, world), 2u);
      f.writeAt(comm.rank() * kPerRank, mine.data(), kPerRank);
      f.close();
    }
    comm.barrier();
    EXPECT_EQ(liveWindows(comm, world), 0u);
    EXPECT_EQ(hostBytes(comm, world), 0);
    {
      core::File f(comm, fsys, "lifetime.dat", fs::kRead, tcfg);
      const Rank peer = (comm.rank() + 1) % comm.size();
      std::vector<std::byte> got(kPerRank);
      f.readAt(peer * kPerRank, got.data(), kPerRank);
      f.fetch();
      for (std::byte b : got) {
        ASSERT_EQ(b, static_cast<std::byte>(peer + 1));
      }
      f.close();
    }
    comm.barrier();
    EXPECT_EQ(liveWindows(comm, world), 0u);
    EXPECT_EQ(hostBytes(comm, world), 0);
  });
}

}  // namespace
}  // namespace tcio::mpi
