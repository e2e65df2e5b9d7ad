// Topology-aware intra-node aggregation (after Kang et al., "Improving MPI
// Collective I/O Performance With Intra-node Request Aggregation", and the
// request-coalescing argument of Thakur et al.).
//
// The primitive this file provides is a *node-level* collective exchange:
// every rank contributes payload addressed to destination nodes; payloads
// first funnel to the source node's leader over the intra-node memory bus,
// then exactly one coalesced RMA epoch crosses the NIC per (source node,
// destination node) pair per round — instead of one epoch per (rank,
// destination) as the per-rank shuffle issues. On a 12-ranks/node machine
// that removes up to 12x of the small cross-node messages.
//
// Mechanics: each leader owns a staging window partitioned into one
// fixed-size slot per source node. A round is: leaders put the next chunk of
// each outgoing stream into the destination leader's slot (shared lock —
// slots are disjoint), a barrier, destination leaders drain their slots, and
// an allreduce decides whether any stream has bytes left. Streams are framed
// per contributing rank, so receivers get back (source rank, blob) pairs.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "mpi/rma.h"
#include "topo/node_map.h"

namespace tcio::topo {

/// Counters for TcioStats and the ablation bench.
struct NodeAggStats {
  std::int64_t exchanges = 0;       // collective exchange() calls
  std::int64_t internode_puts = 0;  // leader->leader NIC epochs issued
  std::int64_t rounds = 0;          // staging rounds across all exchanges
  /// Aggregation bytes funneled through this rank as node leader (gathered
  /// from and scattered to node-local ranks over the membus; leaders only).
  Bytes intranode_bytes = 0;
  Bytes internode_bytes = 0;        // leader->leader payload bytes sent
};

class NodeAggregator {
 public:
  /// Collective over `map.comm()`: creates the staging window (num_nodes *
  /// slot_bytes on every rank). `slot_bytes` is the per-source-node staging
  /// partition; payloads larger than a slot move in multiple rounds.
  ///
  /// Leadership rotates: every exchange() advances a round counter
  /// (collective, so lockstep on all ranks) and round k's leader on node n
  /// is ranksOnNode(n)[k % size] — round 0's is the static leader. Without
  /// rotation one rank's NIC and membus would carry ALL of its node's
  /// staging traffic for the whole job; the price is a staging window on
  /// every rank (any rank may lead), not only on the static leaders.
  NodeAggregator(NodeMap& map, Bytes slot_bytes);

  NodeAggregator(const NodeAggregator&) = delete;
  NodeAggregator& operator=(const NodeAggregator&) = delete;

  /// One contributing rank's payload, as received by a destination leader.
  struct RankBlob {
    Rank src = -1;  // rank within map.comm()
    std::vector<std::byte> data;
  };

  /// Source-leader rewrite hook: receives the destination node index and
  /// the per-rank frames headed there, returns the raw stream to ship
  /// instead. This is where cross-rank coalescing happens (e.g. merging
  /// adjacent write extents from the node's ranks) BEFORE the bytes pay the
  /// NIC. When a rewrite is used, per-rank attribution is gone: receivers
  /// get one blob per source node, attributed to that node's leader.
  using Rewrite = std::function<std::vector<std::byte>(
      int dst_node, const std::vector<RankBlob>&)>;

  /// Collective over map.comm(). `per_node[d]` is this rank's payload for
  /// node `d`. On each node's leader, returns result[s] = frames received
  /// from source node `s` ordered by contributing rank (or one leader-
  /// attributed blob per source node under a rewrite); on non-leaders,
  /// returns empty frames. `rewrite` must be passed uniformly (all ranks
  /// null or all non-null) — it changes the wire format.
  std::vector<std::vector<RankBlob>> exchange(
      const std::vector<std::vector<std::byte>>& per_node,
      const Rewrite& rewrite = {});

  /// Collective over map.nodeComm(): the leader passes one blob per
  /// node-local rank (indexed by node rank); every rank returns its own.
  std::vector<std::byte> scatterToRanks(
      std::vector<std::vector<std::byte>> per_rank);

  /// Releases the staging window and its memory accounting. Safe to call
  /// more than once; the destructor calls it too.
  void close();
  ~NodeAggregator() { close(); }

  const NodeAggStats& stats() const { return stats_; }
  NodeMap& map() { return *map_; }

  /// Rank leading node `n` in the current round. scatterToRanks() uses the
  /// round of the last exchange(), so callers can keep leader-held data
  /// across the pair.
  Rank activeLeaderOf(int n) const {
    const std::vector<Rank>& rs = map_->ranksOnNode(n);
    return rs[static_cast<std::size_t>(round_ % static_cast<std::int64_t>(
                                                    rs.size()))];
  }
  bool isActiveLeader() const {
    return activeLeaderOf(map_->myNode()) == map_->comm().rank();
  }
  std::int64_t round() const { return round_; }

 private:
  /// Gathers every node rank's per-destination payloads to the leader;
  /// returns (on the leader) one framed outgoing stream per destination
  /// node.
  std::vector<std::vector<std::byte>> gatherToLeader(
      const std::vector<std::vector<std::byte>>& per_node);

  /// Node rank of the active leader within this rank's node.
  Rank leaderNodeRank() const {
    return static_cast<Rank>(round_ %
                             static_cast<std::int64_t>(map_->nodeSize()));
  }

  NodeMap* map_;
  Bytes slot_bytes_;
  std::int64_t round_ = 0;
  std::unique_ptr<mpi::Window> staging_;
  NodeAggStats stats_;
};

}  // namespace tcio::topo
