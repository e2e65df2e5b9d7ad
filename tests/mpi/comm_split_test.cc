#include <gtest/gtest.h>

#include <vector>

#include "mpi/mpi.h"

namespace tcio::mpi {
namespace {

JobConfig cfg(int p) {
  JobConfig c;
  c.num_ranks = p;
  return c;
}

TEST(CommSplitTest, EvenOddGroupsHaveCorrectRanksAndSizes) {
  runJob(cfg(8), [](Comm& world) {
    Comm sub = world.split(world.rank() % 2, world.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), world.rank() / 2);
    EXPECT_NE(sub.context(), world.context());
    // World rank mapping: even group = {0,2,4,6}, odd = {1,3,5,7}.
    EXPECT_EQ(sub.worldRank(sub.rank()), world.rank());
    EXPECT_EQ(sub.worldRank(0), world.rank() % 2);
  });
}

TEST(CommSplitTest, KeyReversesOrder) {
  runJob(cfg(4), [](Comm& world) {
    Comm sub = world.split(0, -world.rank());  // all one color, reversed
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), 3 - world.rank());
  });
}

TEST(CommSplitTest, SplitByNodeGroupsRanksSharingANode) {
  JobConfig c = cfg(8);
  c.net.ranks_per_node = 3;  // nodes {0,1,2} {3,4,5} {6,7}
  runJob(c, [](Comm& world) {
    Comm sub = world.splitByNode(world.rank());
    const int node = world.rank() / 3;
    EXPECT_EQ(world.nodeOf(world.rank()), node);
    EXPECT_EQ(sub.size(), node == 2 ? 2 : 3);
    EXPECT_EQ(sub.rank(), world.rank() % 3);
    EXPECT_EQ(sub.worldRank(0), node * 3);  // lowest rank of the node
  });
}

TEST(CommSplitTest, MessagingStaysInsideSubcommunicator) {
  runJob(cfg(4), [](Comm& world) {
    Comm sub = world.split(world.rank() % 2, world.rank());
    // Each subgroup does a ring send with the SAME tag; contexts must keep
    // the two rings separate.
    const int me = sub.rank();
    const int v = world.rank() * 10;
    Request s = sub.isend(&v, 4, (me + 1) % sub.size(), 99);
    int got = -1;
    sub.recv(&got, 4, (me + sub.size() - 1) % sub.size(), 99);
    sub.wait(s);
    // The neighbour in MY subgroup has a world rank of same parity.
    EXPECT_EQ(got % 20 / 10, world.rank() % 2);
  });
}

TEST(CommSplitTest, CollectivesOperatePerGroup) {
  runJob(cfg(8), [](Comm& world) {
    Comm sub = world.split(world.rank() < 3 ? 0 : 1, world.rank());
    std::int64_t v = 1;
    sub.allreduce(&v, 1, ReduceOp::kSum);
    EXPECT_EQ(v, world.rank() < 3 ? 3 : 5);
    // Bcast from subgroup root.
    int data = sub.rank() == 0 ? world.rank() : -1;
    sub.bcast(&data, 4, 0);
    EXPECT_EQ(data, world.rank() < 3 ? 0 : 3);
  });
}

TEST(CommSplitTest, BarrierOnlySynchronizesTheGroup) {
  runJob(cfg(4), [](Comm& world) {
    Comm sub = world.split(world.rank() / 2, world.rank());
    if (world.rank() >= 2) world.proc().advance(5.0);
    sub.barrier();
    if (world.rank() < 2) {
      // Group {0,1} must not have waited for the slow group {2,3}.
      EXPECT_LT(world.proc().now(), 5.0);
    }
  });
}

TEST(CommSplitTest, WindowsOnSubcommunicators) {
  runJob(cfg(4), [](Comm& world) {
    Comm sub = world.split(world.rank() % 2, world.rank());
    Window win = Window::create(sub, 16);
    // Sub-rank 0 of each group writes into sub-rank 1's window.
    if (sub.rank() == 0) {
      const std::int64_t v = 100 + world.rank();
      win.lock(LockType::kExclusive, 1);
      win.put(1, 0, &v, 8);
      win.unlock(1);
      sub.send(nullptr, 0, 1, 0);
    } else {
      sub.recv(nullptr, 0, 0, 0);
      std::int64_t got = 0;
      std::memcpy(&got, win.localRange(0, 8), 8);
      // My group's sub-rank 0 has world rank = my parity.
      EXPECT_EQ(got, 100 + world.rank() % 2);
    }
  });
}

TEST(CommSplitTest, NestedSplit) {
  runJob(cfg(8), [](Comm& world) {
    Comm half = world.split(world.rank() / 4, world.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    std::int64_t v = world.rank();
    quarter.allreduce(&v, 1, ReduceOp::kSum);
    // Pairs: (0,1), (2,3), (4,5), (6,7).
    EXPECT_EQ(v, (world.rank() / 2) * 4 + 1);
  });
}

TEST(CommSplitTest, SingletonGroups) {
  runJob(cfg(3), [](Comm& world) {
    Comm solo = world.split(world.rank(), 0);  // every rank its own color
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.rank(), 0);
    solo.barrier();  // must not deadlock
    std::int64_t v = 7;
    solo.allreduce(&v, 1, ReduceOp::kSum);
    EXPECT_EQ(v, 7);
  });
}

}  // namespace
}  // namespace tcio::mpi
