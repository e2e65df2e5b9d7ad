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
// an allreduce decides whether any stream has bytes left. The source leader
// rewrites its members' payloads for each destination node into one stream
// (the caller's coalescing hook), so a destination leader receives one blob
// per source node, attributed to that node's leader.
//
// Host buffers: each hop lands in one buffer allocated at its final size
// and never zero-filled. The leader keeps each member's payload in the
// buffer the message arrived in (mpi::Comm::recvOwned), so a payload is
// copied once on its way there, at the send; the rewrite reads (rank, span)
// views into those buffers, and its output is put straight from where it
// returned it. A slot's 8-byte header carries the bytes of the stream still
// to come (this chunk included), so the destination allocates each source's
// stream once, at its first chunk. Each buffer is freed once the next hop
// has consumed it, and the round's leader gives its staging window's host
// bytes back when the exchange ends (every slot is drained by then).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "mpi/comm.h"
#include "mpi/rma.h"
#include "topo/node_map.h"

namespace tcio::topo {

/// Counters for TcioStats and the ablation bench.
struct NodeAggStats {
  std::int64_t exchanges = 0;       // collective exchange() calls
  std::int64_t internode_puts = 0;  // leader->leader NIC epochs issued
  std::int64_t rounds = 0;          // staging rounds across all exchanges
  /// Aggregation bytes funneled through this rank as node leader (gathered
  /// from node-local ranks over the membus; leaders only).
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
  /// every rank (any rank may lead), not only on the static leaders. Its
  /// host bytes exist only while the rank leads.
  NodeAggregator(NodeMap& map, Bytes slot_bytes);

  NodeAggregator(const NodeAggregator&) = delete;
  NodeAggregator& operator=(const NodeAggregator&) = delete;

  /// One rank's payload: a node member's contribution as the rewrite sees
  /// it, or a source node's rewritten stream as a destination leader
  /// receives it (attributed to that node's leader). `data` views storage
  /// the exchange owns.
  struct RankBlob {
    Rank src = -1;  // rank within map.comm()
    std::span<const std::byte> data;
  };

  /// What exchange() delivered. On a node's leader, [s] holds source node
  /// `s`'s rewritten stream as one blob attributed to that node's leader, or
  /// nothing when the stream was empty; on other ranks every [s] is empty.
  /// The blobs view buffers this object owns, so they live as long as it
  /// does.
  class Received {
   public:
    std::size_t size() const { return frames_.size(); }
    const std::vector<RankBlob>& operator[](std::size_t s) const {
      return frames_[s];
    }
    auto begin() const { return frames_.begin(); }
    auto end() const { return frames_.end(); }

   private:
    friend class NodeAggregator;
    std::vector<std::vector<RankBlob>> frames_;
    /// This rank's payload: the leader's own frames view it. Freed once
    /// spent: on a non-leader after its membus send, on the leader once
    /// rewritten.
    mpi::PackedSend sent_;
    /// The node members' payloads, one buffer per node rank as the leader
    /// received it (freed once rewritten).
    std::vector<mpi::RawBytes> gathered_;
    /// Rewrite outputs, per destination node. The leader's own node's is
    /// delivered from here; the others are freed once put.
    std::vector<mpi::RawBytes> rewritten_;
    /// Each source node's stream, as drained from its staging slot.
    std::vector<mpi::RawBytes> streams_;
  };

  /// Source-leader rewrite hook: receives the destination node index and
  /// the node members' frames headed there, in node-rank order, and returns
  /// the raw stream to ship instead. This is where cross-rank coalescing
  /// happens (e.g. merging adjacent write extents from the node's ranks)
  /// BEFORE the bytes pay the NIC. Per-rank attribution ends here:
  /// receivers get one blob per source node, attributed to its leader.
  using Rewrite = std::function<mpi::RawBytes(
      int dst_node, const std::vector<RankBlob>&)>;

  /// Collective over map.comm(). `per_node` holds this rank's payload for
  /// each node `d` as its part d, filled to its count. Only the round's
  /// leaders call `rewrite`.
  Received exchange(mpi::PackedSend per_node, const Rewrite& rewrite);

  /// Releases the staging window and its memory accounting. Safe to call
  /// more than once; the destructor calls it too.
  void close();
  ~NodeAggregator() { close(); }

  const NodeAggStats& stats() const { return stats_; }
  NodeMap& map() { return *map_; }

  /// Rank leading node `n` in the current round: the round of the last
  /// exchange(), so callers can act on leader-held data after it.
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
  /// Gathers every node rank's per-destination payloads (got.sent_) to the
  /// leader, into got.gathered_ (one buffer per node rank); returns (on the leader) the frames headed
  /// to each destination node, in node-rank order.
  std::vector<std::vector<RankBlob>> gatherToLeader(Received& got);

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
