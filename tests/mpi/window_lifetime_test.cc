// RMA window lifetime and host memory: a window is freed when the last rank
// of its group drops its handle (MPI_Win_free), a dropped rank's memory
// stays usable by peers that still hold the window (the crash path), and a
// rank's host bytes exist only once its memory is touched and until it gives
// them back.
#include <gtest/gtest.h>

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
      a.localData()[0] = std::byte{1};
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
      // The get touched rank 2: its whole logical size materialised.
      EXPECT_EQ(hostBytes(comm, world), kSize);
    }
    comm.barrier();
    EXPECT_EQ(hostBytes(comm, world), kSize);
    // Bounds follow the logical size even where nothing is allocated.
    if (comm.rank() == 1) {
      const std::int32_t v = 9;
      win.lock(LockType::kShared, 3);
      EXPECT_THROW(win.put(3, kSize - 2, &v, sizeof(v)), Error);
      win.unlock(3);
      EXPECT_EQ(hostBytes(comm, world), kSize);
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
      std::byte* mem = win.localData();
      EXPECT_EQ(hostBytes(comm, world), 32);
      for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(mem[i], std::byte{0});
        mem[i] = static_cast<std::byte>(i + 1);
      }
      // After first touch: existing bytes kept, growth zero-filled.
      win.resizeLocal(64);
      mem = win.localData();
      for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(mem[i], static_cast<std::byte>(i + 1));
      }
      for (int i = 32; i < 64; ++i) ASSERT_EQ(mem[i], std::byte{0});
      win.resizeLocal(8);
      EXPECT_EQ(hostBytes(comm, world), 8);
      for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(win.localData()[i], static_cast<std::byte>(i + 1));
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
    std::memset(win.localData(), 0xa5, static_cast<std::size_t>(kSize));
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
      // ...touching it again, zero-filled; a put lands and stays.
      EXPECT_EQ(hostBytes(comm, world), 2 * kSize);
      const std::int64_t v = 0x7e1ea5e;
      win.lock(LockType::kShared, 1);
      win.put(1, 64, &v, sizeof(v));
      win.unlock(1);
    }
    comm.barrier();
    if (comm.rank() == 1) {
      const std::byte* mem = win.localData();
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
      mem = win.localData();
      EXPECT_EQ(hostBytes(comm, world), 2 * kSize);
      for (Bytes i = 0; i < kSize; ++i) ASSERT_EQ(mem[i], std::byte{0});
    }
    comm.barrier();
    // The unreleased rank's bytes were never disturbed.
    if (comm.rank() == 0) {
      for (Bytes i = 0; i < kSize; ++i) {
        ASSERT_EQ(win.localData()[i], std::byte{0xa5});
      }
    }
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
