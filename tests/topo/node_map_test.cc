// NodeMap topology derivation and NodeAggregator leader-exchange tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.h"
#include "mpi/runtime.h"
#include "topo/node_aggregator.h"
#include "topo/node_map.h"

namespace tcio::topo {
namespace {

mpi::JobConfig cfg(int procs, int ranks_per_node) {
  mpi::JobConfig c;
  c.num_ranks = procs;
  c.net.ranks_per_node = ranks_per_node;
  return c;
}

/// Deterministic payload byte for (source rank, destination node, index).
std::byte pattern(Rank src, int dst, std::size_t i) {
  return static_cast<std::byte>(
      (static_cast<std::size_t>(src) * 131 + static_cast<std::size_t>(dst) * 17 +
       i * 3) %
      251);
}

std::vector<std::byte> payloadFor(Rank src, int dst, std::size_t len) {
  std::vector<std::byte> v(len);
  for (std::size_t i = 0; i < len; ++i) v[i] = pattern(src, dst, i);
  return v;
}

/// One part per payload, in order.
mpi::PackedSend pack(const std::vector<std::vector<std::byte>>& parts) {
  std::vector<Bytes> counts;
  for (const auto& p : parts) counts.push_back(static_cast<Bytes>(p.size()));
  mpi::PackedSend out(std::move(counts));
  for (std::size_t i = 0; i < parts.size(); ++i) {
    out.append(i, parts[i].data(), static_cast<Bytes>(parts[i].size()));
  }
  return out;
}

std::vector<std::byte> bytesOf(std::span<const std::byte> s) {
  return {s.begin(), s.end()};
}

/// The rewrite most tests ship: the members' payloads concatenated in
/// node-rank order.
const NodeAggregator::Rewrite kConcat =
    [](int, const std::vector<NodeAggregator::RankBlob>& blobs) {
      std::size_t n = 0;
      for (const auto& b : blobs) n += b.data.size();
      mpi::RawBytes out(n);
      std::byte* at = out.data();
      for (const auto& b : blobs) {
        at = std::copy(b.data.begin(), b.data.end(), at);
      }
      return out;
    };

/// What kConcat delivers from node `s`: the payload `payload(src)` of each
/// rank of `s`, in rank order.
template <typename Payload>
std::vector<std::byte> concatFrom(const NodeMap& map, int s,
                                  const Payload& payload) {
  std::vector<std::byte> all;
  for (const Rank src : map.ranksOnNode(s)) {
    const std::vector<std::byte> p = payload(src);
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

TEST(NodeMapTest, MatchesNetworkTopology) {
  runJob(cfg(8, 3), [](mpi::Comm& comm) {
    NodeMap map(comm);
    // 8 ranks at 3/node -> nodes {0,1,2} {3,4,5} {6,7}.
    EXPECT_EQ(map.numNodes(), 3);
    EXPECT_EQ(map.myNode(), comm.rank() / 3);
    EXPECT_EQ(map.maxNodeSize(), 3);
    for (Rank r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(map.nodeOf(r), r / 3);
    }
    EXPECT_EQ(map.leaderOf(0), 0);
    EXPECT_EQ(map.leaderOf(1), 3);
    EXPECT_EQ(map.leaderOf(2), 6);
    EXPECT_EQ(map.isLeader(), comm.rank() % 3 == 0);
    const std::vector<Rank>& mine = map.ranksOnNode(map.myNode());
    EXPECT_EQ(static_cast<int>(mine.size()), map.nodeSize());
    EXPECT_EQ(map.nodeComm().size(), comm.rank() < 6 ? 3 : 2);
    EXPECT_EQ(map.nodeRank(), comm.rank() % 3);
    EXPECT_EQ(mine[static_cast<std::size_t>(map.nodeRank())], comm.rank());
  });
}

TEST(NodeMapTest, SingleNodeDegeneratesToOneGroup) {
  runJob(cfg(4, 12), [](mpi::Comm& comm) {
    NodeMap map(comm);
    EXPECT_EQ(map.numNodes(), 1);
    EXPECT_EQ(map.myNode(), 0);
    EXPECT_EQ(map.leaderOf(0), 0);
    EXPECT_EQ(map.nodeComm().size(), comm.size());
  });
}

TEST(NodeAggregatorTest, ExchangeRoutesFramesBetweenLeaders) {
  runJob(cfg(6, 2), [](mpi::Comm& comm) {
    NodeMap map(comm);
    ASSERT_EQ(map.numNodes(), 3);
    NodeAggregator agg(map, /*slot_bytes=*/4096);
    // Every rank addresses a distinct-length payload to every node.
    std::vector<std::vector<std::byte>> per_node;
    for (int d = 0; d < map.numNodes(); ++d) {
      per_node.push_back(payloadFor(
          comm.rank(), d, 16 + static_cast<std::size_t>(comm.rank()) * 8 +
                              static_cast<std::size_t>(d)));
    }
    const auto frames = agg.exchange(pack(per_node), kConcat);
    ASSERT_EQ(static_cast<int>(frames.size()), map.numNodes());
    if (!agg.isActiveLeader()) {
      for (const auto& fs : frames) EXPECT_TRUE(fs.empty());
      return;
    }
    // The round's leader of node d holds, per source node s, one blob from
    // s's leader: the payloads s's ranks addressed to d, in rank order.
    const int d = map.myNode();
    for (int s = 0; s < map.numNodes(); ++s) {
      const auto& from = frames[static_cast<std::size_t>(s)];
      ASSERT_EQ(from.size(), 1u);
      EXPECT_EQ(from[0].src, agg.activeLeaderOf(s));
      EXPECT_EQ(bytesOf(from[0].data), concatFrom(map, s, [&](Rank src) {
                  return payloadFor(src, d,
                                    16 + static_cast<std::size_t>(src) * 8 +
                                        static_cast<std::size_t>(d));
                }));
    }
  });
}

TEST(NodeAggregatorTest, PayloadsLargerThanSlotTakeMultipleRounds) {
  runJob(cfg(4, 2), [](mpi::Comm& comm) {
    NodeMap map(comm);
    // Tiny slots force chunked staging rounds.
    NodeAggregator agg(map, /*slot_bytes=*/64);
    std::vector<std::vector<std::byte>> per_node(
        static_cast<std::size_t>(map.numNodes()));
    const int other = 1 - map.myNode();
    per_node[static_cast<std::size_t>(other)] =
        payloadFor(comm.rank(), other, 1000);
    const auto frames = agg.exchange(pack(per_node), kConcat);
    if (agg.isActiveLeader()) {
      EXPECT_GT(agg.stats().rounds, 1);
      const auto& from_other = frames[static_cast<std::size_t>(other)];
      ASSERT_EQ(from_other.size(), 1u);
      // Both ranks of the other node, in rank order.
      EXPECT_EQ(bytesOf(from_other[0].data),
                concatFrom(map, other, [&](Rank src) {
                  return payloadFor(src, map.myNode(), 1000);
                }));
    }
  });
}

TEST(NodeAggregatorTest, RotationMovesTheActiveLeaderEachExchange) {
  runJob(cfg(6, 3), [](mpi::Comm& comm) {
    NodeMap map(comm);
    NodeAggregator agg(map, /*slot_bytes=*/4096);
    std::vector<Rank> leaders_seen;
    for (int round = 1; round <= 3; ++round) {
      // The round counter advances at the start of each exchange, so the
      // k-th exchange of node n is led by its (k % size)-th rank.
      const Rank expect_leader =
          map.ranksOnNode(map.myNode())[static_cast<std::size_t>(
              round % map.nodeSize())];
      leaders_seen.push_back(expect_leader);
      std::vector<std::vector<std::byte>> per_node;
      for (int d = 0; d < map.numNodes(); ++d) {
        per_node.push_back(payloadFor(
            comm.rank(), d,
            32 + static_cast<std::size_t>(round) * 8 +
                static_cast<std::size_t>(d)));
      }
      const auto frames = agg.exchange(pack(per_node), kConcat);
      EXPECT_EQ(agg.round(), round);
      EXPECT_EQ(agg.activeLeaderOf(map.myNode()), expect_leader);
      EXPECT_EQ(agg.isActiveLeader(), comm.rank() == expect_leader);
      if (comm.rank() != expect_leader) {
        for (const auto& fr : frames) EXPECT_TRUE(fr.empty());
        continue;
      }
      // The rotated leader receives every rank's payload, data intact, from
      // each source node's rotated leader.
      const int d = map.myNode();
      for (int s = 0; s < map.numNodes(); ++s) {
        const auto& from = frames[static_cast<std::size_t>(s)];
        ASSERT_EQ(from.size(), 1u);
        EXPECT_EQ(from[0].src, agg.activeLeaderOf(s));
        EXPECT_EQ(bytesOf(from[0].data), concatFrom(map, s, [&](Rank src) {
                    return payloadFor(src, d,
                                      32 + static_cast<std::size_t>(round) * 8 +
                                          static_cast<std::size_t>(d));
                  }));
      }
    }
    // The NIC/membus hot spot actually moved: distinct leaders across rounds.
    std::sort(leaders_seen.begin(), leaders_seen.end());
    leaders_seen.erase(
        std::unique(leaders_seen.begin(), leaders_seen.end()),
        leaders_seen.end());
    EXPECT_GE(leaders_seen.size(), 2u);
  });
}

TEST(NodeAggregatorTest, MultiSlotStreamsCarryEveryFrame) {
  // 56-byte slot data: every stream spans several rounds, and the members'
  // payloads straddle chunk boundaries.
  constexpr Bytes kSlot = 64;
  constexpr Bytes kSlotData = kSlot - 8;
  const auto lenOf = [](Rank src, int dst) {
    return static_cast<std::size_t>(100 + 37 * src + dst);
  };
  runJob(cfg(6, 2), [&](mpi::Comm& comm) {
    NodeMap map(comm);
    NodeAggregator agg(map, kSlot);
    std::vector<std::vector<std::byte>> per_node;
    for (int d = 0; d < map.numNodes(); ++d) {
      per_node.push_back(payloadFor(comm.rank(), d, lenOf(comm.rank(), d)));
    }
    const auto frames = agg.exchange(pack(per_node), kConcat);
    if (!agg.isActiveLeader()) return;
    const int me = map.myNode();
    std::int64_t puts = 0;
    Bytes wire = 0;
    for (int s = 0; s < map.numNodes(); ++s) {
      const auto& from = frames[static_cast<std::size_t>(s)];
      ASSERT_EQ(from.size(), 1u);
      EXPECT_EQ(from[0].src, agg.activeLeaderOf(s));
      EXPECT_EQ(bytesOf(from[0].data), concatFrom(map, s, [&](Rank src) {
                  return payloadFor(src, me, lenOf(src, me));
                }));
      // What this leader put to node s: one rewritten stream, one slot's
      // data per round.
      if (s == me) continue;
      Bytes stream = 0;
      for (const Rank r : map.ranksOnNode(me)) {
        stream += static_cast<Bytes>(lenOf(r, s));
      }
      puts += (stream + kSlotData - 1) / kSlotData;
      wire += stream;
    }
    EXPECT_EQ(agg.stats().internode_puts, puts);
    EXPECT_EQ(agg.stats().internode_bytes, wire);
    EXPECT_GT(agg.stats().rounds, 1);
  });
}

TEST(NodeAggregatorTest, EmptyStreamsDeliverNoFrames) {
  runJob(cfg(6, 2), [](mpi::Comm& comm) {
    NodeMap map(comm);
    NodeAggregator agg(map, /*slot_bytes=*/128);
    // Nothing at all: one round, no frames, no puts.
    const auto none = agg.exchange(
        pack(std::vector<std::vector<std::byte>>(
            static_cast<std::size_t>(map.numNodes()))),
        kConcat);
    for (const auto& fs : none) EXPECT_TRUE(fs.empty());
    EXPECT_EQ(agg.stats().rounds, 1);
    EXPECT_EQ(agg.stats().internode_puts, 0);
    // Only even ranks address node 0; nobody addresses node 2.
    std::vector<std::vector<std::byte>> per_node(
        static_cast<std::size_t>(map.numNodes()));
    if (comm.rank() % 2 == 0) per_node[0] = payloadFor(comm.rank(), 0, 300);
    const auto frames = agg.exchange(pack(per_node), kConcat);
    if (!agg.isActiveLeader()) return;
    for (int s = 0; s < map.numNodes(); ++s) {
      const auto& from = frames[static_cast<std::size_t>(s)];
      if (map.myNode() != 0) {
        EXPECT_TRUE(from.empty());
        continue;
      }
      // Only the node's even rank contributed.
      ASSERT_EQ(from.size(), 1u);
      EXPECT_EQ(bytesOf(from[0].data),
                payloadFor(map.ranksOnNode(s)[0], 0, 300));
    }
  });
}

TEST(NodeAggregatorTest, RewriteShipsOneLeaderAttributedBlob) {
  // The rewrite concatenates the frames' payloads in reverse rank order and
  // drops everything headed to node 1.
  const NodeAggregator::Rewrite reverse =
      [](int dst, const std::vector<NodeAggregator::RankBlob>& blobs) {
        if (dst == 1) return mpi::RawBytes();
        std::size_t n = 0;
        for (const auto& b : blobs) n += b.data.size();
        mpi::RawBytes out(n);
        std::byte* at = out.data();
        for (auto it = blobs.rbegin(); it != blobs.rend(); ++it) {
          at = std::copy(it->data.begin(), it->data.end(), at);
        }
        return out;
      };
  runJob(cfg(6, 2), [&](mpi::Comm& comm) {
    NodeMap map(comm);
    NodeAggregator agg(map, /*slot_bytes=*/48);  // several rounds
    std::vector<std::vector<std::byte>> per_node;
    for (int d = 0; d < map.numNodes(); ++d) {
      per_node.push_back(payloadFor(comm.rank(), d, 50));
    }
    const auto frames = agg.exchange(pack(per_node), reverse);
    if (!agg.isActiveLeader()) {
      for (const auto& fs : frames) EXPECT_TRUE(fs.empty());
      return;
    }
    const int me = map.myNode();
    for (int s = 0; s < map.numNodes(); ++s) {
      const auto& from = frames[static_cast<std::size_t>(s)];
      if (me == 1) {
        EXPECT_TRUE(from.empty());
        continue;
      }
      ASSERT_EQ(from.size(), 1u);
      EXPECT_EQ(from[0].src, agg.activeLeaderOf(s));
      std::vector<std::byte> want;
      const std::vector<Rank>& srcs = map.ranksOnNode(s);
      for (auto it = srcs.rbegin(); it != srcs.rend(); ++it) {
        const auto p = payloadFor(*it, me, 50);
        want.insert(want.end(), p.begin(), p.end());
      }
      EXPECT_EQ(bytesOf(from[0].data), want);
    }
  });
}

Bytes stagingHostBytes(mpi::Comm& comm, mpi::World& world) {
  return comm.proc().atomic([&] { return world.windowHostBytes(); });
}

TEST(NodeAggregatorTest, StagingHostBytesLiveOnlyWhileLeading) {
  // Two nodes of three ranks, 40-byte slot data: every exchange takes
  // several rounds. Leadership visits every rank of a node over one
  // exchange per node rank (plus one, so the first leader leads again).
  // Between exchanges no staging window holds host bytes, and every
  // payload arrives intact.
  runJob(cfg(6, 3), [&](mpi::Comm& comm, mpi::World& world) {
    NodeMap map(comm);
    NodeAggregator agg(map, /*slot_bytes=*/48);
    const int me = map.myNode();
    int led = 0;
    for (int round = 1; round <= map.nodeSize() + 1; ++round) {
      const auto lenOf = [&](Rank src) {
        return static_cast<std::size_t>(60 + 7 * src + round);
      };
      std::vector<std::vector<std::byte>> per_node;
      for (int d = 0; d < map.numNodes(); ++d) {
        per_node.push_back(payloadFor(comm.rank() + round, d,
                                      lenOf(comm.rank())));
      }
      const auto frames = agg.exchange(pack(per_node), kConcat);
      comm.barrier();
      EXPECT_EQ(stagingHostBytes(comm, world), 0) << "round " << round;
      comm.barrier();
      if (!agg.isActiveLeader()) continue;
      ++led;
      for (int s = 0; s < map.numNodes(); ++s) {
        const auto& from = frames[static_cast<std::size_t>(s)];
        ASSERT_EQ(from.size(), 1u);
        EXPECT_EQ(bytesOf(from[0].data), concatFrom(map, s, [&](Rank src) {
                    return payloadFor(src + round, me, lenOf(src));
                  }));
      }
    }
    EXPECT_GE(led, 1);  // every rank led at least one exchange
    EXPECT_GT(agg.stats().rounds, map.nodeSize() + 1);
  });
}

TEST(NodeAggregatorTest, OneRankNodeKeepsItsStagingWindowAcrossExchanges) {
  // A one-rank node's only rank leads every round, so back-to-back
  // exchanges reuse its window: a peer may put the next exchange's first
  // chunk before this rank has finished the previous one.
  constexpr Bytes kSlot = 40;
  runJob(cfg(3, 1), [&](mpi::Comm& comm, mpi::World& world) {
    NodeMap map(comm);
    NodeAggregator agg(map, kSlot);
    for (int round = 1; round <= 3; ++round) {
      std::vector<std::vector<std::byte>> per_node;
      for (int d = 0; d < map.numNodes(); ++d) {
        per_node.push_back(payloadFor(comm.rank() * 5 + round, d,
                                      static_cast<std::size_t>(90 + round)));
      }
      const auto frames = agg.exchange(pack(per_node), kConcat);
      ASSERT_TRUE(agg.isActiveLeader());
      for (int s = 0; s < map.numNodes(); ++s) {
        const auto& from = frames[static_cast<std::size_t>(s)];
        ASSERT_EQ(from.size(), 1u);
        EXPECT_EQ(bytesOf(from[0].data),
                  payloadFor(s * 5 + round, map.myNode(),
                             static_cast<std::size_t>(90 + round)));
      }
    }
    comm.barrier();
    EXPECT_EQ(stagingHostBytes(comm, world),
              static_cast<Bytes>(map.numNodes()) * kSlot * comm.size());
  });
}

}  // namespace
}  // namespace tcio::topo
