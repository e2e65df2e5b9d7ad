#include "topo/node_aggregator.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "mpi/agreement.h"

namespace tcio::topo {

namespace {

/// Per-slot header: bytes of the stream still to come, this round's chunk
/// included. The chunk is min(header, slot data); 0 means an empty slot.
constexpr Bytes kSlotHeader = static_cast<Bytes>(sizeof(std::uint64_t));

}  // namespace

NodeAggregator::NodeAggregator(NodeMap& map, Bytes slot_bytes)
    : map_(&map), slot_bytes_(slot_bytes) {
  TCIO_CHECK_MSG(slot_bytes_ > kSlotHeader,
                 "node-aggregation staging slot must exceed its header");
  // Any rank may lead a round, so every rank needs a window.
  staging_ = std::make_unique<mpi::Window>(mpi::Window::create(
      map_->comm(), static_cast<Bytes>(map_->numNodes()) * slot_bytes_));
}

void NodeAggregator::close() {
  if (staging_ == nullptr) return;
  map_->comm().memory().release(staging_->localSize());
  staging_.reset();
}

std::vector<std::vector<NodeAggregator::RankBlob>>
NodeAggregator::gatherToLeader(Received& got) {
  mpi::Comm& node = map_->nodeComm();
  const auto sn = static_cast<std::size_t>(map_->numNodes());
  const mpi::PackedSend& mine = got.sent_;
  TCIO_CHECK_MSG(mine.counts().size() == sn && mine.filled(),
                 "exchange payload must fill one part per node");

  // Fixed-size size table per rank, gathered to the leader.
  const Bytes table_bytes = static_cast<Bytes>(sn * sizeof(Bytes));
  std::vector<Bytes> all_sizes(static_cast<std::size_t>(node.size()) * sn);
  const Rank root = leaderNodeRank();
  node.gather(mine.counts().data(), table_bytes, all_sizes.data(), root);
  const auto totalOf = [&](int q) {
    const Bytes* sizes = all_sizes.data() + static_cast<std::size_t>(q) * sn;
    Bytes total = 0;
    for (std::size_t d = 0; d < sn; ++d) total += sizes[d];
    return total;
  };

  // Payload: one concatenated membus message per non-leader rank.
  const int tag = node.nextCollectiveTag();
  std::vector<std::vector<RankBlob>> frames(sn);
  if (node.rank() != root) {
    Bytes my_total = 0;
    for (const Bytes n : mine.counts()) my_total += n;
    if (my_total > 0) node.send(mine.data(), my_total, root, tag);
    // The send copied the payload out and nothing views it here.
    got.sent_ = {};
    return frames;  // non-leaders hold no outgoing streams
  }

  // Leader: keeps each member's message in the buffer it arrived in, whose
  // size the size table gives; frames view those buffers (and, for the
  // leader's own payload, the send buffer).
  got.gathered_.resize(static_cast<std::size_t>(node.size()));
  const std::vector<Rank>& members = map_->ranksOnNode(map_->myNode());
  for (int q = 0; q < node.size(); ++q) {
    const std::byte* from = mine.data();
    if (q != root) {
      const Bytes total = totalOf(q);
      mpi::RawBytes& arrived = got.gathered_[static_cast<std::size_t>(q)];
      if (total > 0) {
        arrived = node.recvOwned(total, q, tag);
        TCIO_CHECK_MSG(static_cast<Bytes>(arrived.size()) == total,
                       "node member sent other than its size table says");
        stats_.intranode_bytes += total;
      }
      from = arrived.data();
    }
    const Bytes* sizes = all_sizes.data() + static_cast<std::size_t>(q) * sn;
    const Rank src = members[static_cast<std::size_t>(q)];
    for (std::size_t d = 0; d < sn; ++d) {
      const auto len = static_cast<std::size_t>(sizes[d]);
      if (len == 0) continue;
      frames[d].push_back({src, {from, len}});
      from += len;
    }
  }
  return frames;
}

NodeAggregator::Received NodeAggregator::exchange(mpi::PackedSend per_node,
                                                  const Rewrite& rewrite) {
  TCIO_CHECK_MSG(staging_ != nullptr, "exchange on a closed NodeAggregator");
  mpi::Comm& comm = map_->comm();
  const int N = map_->numNodes();
  const auto sn = static_cast<std::size_t>(N);
  const int me = map_->myNode();
  const auto sme = static_cast<std::size_t>(me);
  ++stats_.exchanges;
  // Advance the leadership round in lockstep (exchange is collective), so
  // every rank agrees on who leads each node before any traffic moves.
  ++round_;

  Received got;
  got.sent_ = std::move(per_node);
  got.frames_.resize(sn);
  got.streams_.resize(sn);
  // Phase 1: funnel to the leader (membus traffic only).
  std::vector<std::vector<RankBlob>> frames = gatherToLeader(got);
  const bool leader = isActiveLeader();
  // Cross-rank coalescing happens here, before any byte pays the NIC: the
  // rewritten streams are what the leader ships.
  std::vector<mpi::RawBytes>& out = got.rewritten_;
  if (leader) {
    out.resize(sn);
    for (std::size_t d = 0; d < sn; ++d) {
      if (!frames[d].empty()) out[d] = rewrite(static_cast<int>(d), frames[d]);
    }
    // The rewrite copied what it ships: the gathered payloads are spent.
    frames.clear();
    got.sent_ = {};
    std::vector<mpi::RawBytes>().swap(got.gathered_);
    // The leader's own node needs no staging.
    if (out[sme].size() > 0) {
      got.frames_[sme].push_back(
          {activeLeaderOf(me), {out[sme].data(), out[sme].size()}});
    }
  }

  // Phase 2: leader-to-leader staging rounds. Each round moves at most one
  // slot's worth of each stream with a single RMA epoch per destination
  // node; slots are disjoint per source node, so shared locks suffice.
  std::vector<Bytes> drained(sn, 0);
  std::vector<Bytes> sent(sn, 0);
  std::vector<mpi::Window::PutBlock> blocks;
  const Bytes slot_data = slot_bytes_ - kSlotHeader;
  // Leader-local failures (a bad put, a corrupt slot) are captured and
  // piggybacked on the round allreduce: every rank learns the error class
  // and throws the same typed error, instead of the survivors spinning in
  // the round loop waiting for a dead leader's data.
  mpi::CapturedError err;
  bool more = true;
  while (more) {
    ++stats_.rounds;
    try {
      if (leader && !err.set()) {
        for (std::size_t d = 0; d < sn; ++d) {
          const Bytes remaining = static_cast<Bytes>(out[d].size()) - sent[d];
          if (d == sme || remaining <= 0) continue;
          const Bytes chunk = std::min(remaining, slot_data);
          const auto header = static_cast<std::uint64_t>(remaining);
          const Offset slot_base = static_cast<Offset>(me) * slot_bytes_;
          blocks.clear();
          blocks.push_back({slot_base, &header, kSlotHeader});
          blocks.push_back(
              {slot_base + kSlotHeader, out[d].data() + sent[d], chunk});
          sent[d] += chunk;
          const Rank target = activeLeaderOf(static_cast<int>(d));
          staging_->lock(mpi::LockType::kShared, target);
          staging_->putIndexed(target, blocks);
          staging_->unlock(target);
          ++stats_.internode_puts;
          stats_.internode_bytes += chunk;
        }
      }
    } catch (const std::exception& e) {
      err.capture(e);
    }
    comm.barrier();
    bool local_more = false;
    try {
      if (leader && !err.set()) {
        for (std::size_t s = 0; s < sn; ++s) {
          if (s == sme) continue;
          const Offset slot_base = static_cast<Offset>(s) * slot_bytes_;
          std::byte* header = staging_->localRange(slot_base, kSlotHeader);
          std::uint64_t left = 0;
          std::memcpy(&left, header, sizeof(left));
          if (left == 0) continue;
          mpi::RawBytes& stream = got.streams_[s];
          if (drained[s] == 0) {
            stream = mpi::RawBytes(static_cast<std::size_t>(left));
          }
          TCIO_CHECK_MSG(left == stream.size() - static_cast<std::size_t>(
                                                     drained[s]),
                         "node-aggregation slot header disagrees with the "
                         "bytes of its stream still to come");
          const Bytes chunk = std::min(static_cast<Bytes>(left), slot_data);
          std::memcpy(stream.data() + drained[s],
                      staging_->localRange(slot_base + kSlotHeader, chunk),
                      static_cast<std::size_t>(chunk));
          drained[s] += chunk;
          std::memset(header, 0, static_cast<std::size_t>(kSlotHeader));
        }
        for (std::size_t d = 0; d < sn && !local_more; ++d) {
          local_more =
              d != sme && sent[d] < static_cast<Bytes>(out[d].size());
        }
      }
    } catch (const std::exception& e) {
      err.capture(e);
    }
    std::int32_t flags[2] = {local_more ? 1 : 0, err.code};
    comm.allreduce(flags, 2, mpi::ReduceOp::kMax);
    if (flags[1] != mpi::CapturedError::kNone) {
      mpi::throwTyped(
          flags[1],
          err.code == flags[1] && !err.what.empty()
              ? err.what
              : "node-aggregation leader exchange failed on a peer rank");
    }
    more = flags[0] != 0;
  }
  // Every slot is drained and its header zero, which is also how released
  // window memory reads: give the host bytes back until this rank leads
  // again. The only rank of its node leads the next round too and keeps
  // them, as a peer may put that round's first chunk before this rank has
  // left the allreduce above.
  if (leader && map_->nodeSize() > 1) {
    staging_->releaseLocalHost();
  }
  // The rewritten streams for other nodes have all been put.
  for (std::size_t d = 0; d < out.size(); ++d) {
    if (d != sme) out[d] = {};
  }

  // Phase 3: each drained stream is one blob from its source node's leader.
  for (std::size_t s = 0; s < sn; ++s) {
    const mpi::RawBytes& stream = got.streams_[s];
    if (s == sme || stream.size() == 0) continue;
    TCIO_CHECK_MSG(drained[s] == static_cast<Bytes>(stream.size()),
                   "node-aggregation stream ended short of its length");
    got.frames_[s].push_back({activeLeaderOf(static_cast<int>(s)),
                              {stream.data(), stream.size()}});
  }
  return got;
}

}  // namespace tcio::topo
