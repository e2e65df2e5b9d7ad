#include "topo/node_aggregator.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "mpi/agreement.h"

namespace tcio::topo {

namespace {

/// Per-slot header: bytes of stream data following in this round.
constexpr Bytes kSlotHeader = static_cast<Bytes>(sizeof(std::uint64_t));

void appendRaw(std::vector<std::byte>& out, const void* src, std::size_t n) {
  const auto* p = static_cast<const std::byte*>(src);
  out.insert(out.end(), p, p + n);
}

template <typename T>
void appendValue(std::vector<std::byte>& out, T v) {
  appendRaw(out, &v, sizeof(T));
}

template <typename T>
T readValue(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

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

std::vector<std::vector<std::byte>> NodeAggregator::gatherToLeader(
    const std::vector<std::vector<std::byte>>& per_node) {
  mpi::Comm& node = map_->nodeComm();
  const int N = map_->numNodes();
  const auto sn = static_cast<std::size_t>(N);
  TCIO_CHECK(per_node.size() == sn);

  // Fixed-size size table per rank, gathered to the leader.
  std::vector<Bytes> my_sizes(sn);
  Bytes my_total = 0;
  for (std::size_t d = 0; d < sn; ++d) {
    my_sizes[d] = static_cast<Bytes>(per_node[d].size());
    my_total += my_sizes[d];
  }
  const Bytes table_bytes = static_cast<Bytes>(sn * sizeof(Bytes));
  std::vector<Bytes> all_sizes(
      static_cast<std::size_t>(node.size()) * sn);
  const Rank root = leaderNodeRank();
  node.gather(my_sizes.data(), table_bytes, all_sizes.data(), root);

  // Payload: one concatenated membus message per non-leader rank.
  const int tag = node.nextCollectiveTag();
  std::vector<std::vector<std::byte>> streams(sn);
  if (node.rank() != root) {
    std::vector<std::byte> flat;
    flat.reserve(static_cast<std::size_t>(my_total));
    for (const auto& blob : per_node) {
      flat.insert(flat.end(), blob.begin(), blob.end());
    }
    if (my_total > 0) {
      node.send(flat.data(), my_total, root, tag);
    }
    return streams;  // non-leaders hold no outgoing streams
  }

  // Leader: assemble per-destination streams framed per contributing rank.
  const std::vector<Rank>& members = map_->ranksOnNode(map_->myNode());
  std::vector<std::byte> incoming;
  for (int q = 0; q < node.size(); ++q) {
    const Bytes* sizes = all_sizes.data() + static_cast<std::size_t>(q) * sn;
    Bytes total = 0;
    for (std::size_t d = 0; d < sn; ++d) total += sizes[d];
    const std::byte* cursor = nullptr;
    if (q == root) {
      cursor = nullptr;  // own blobs are read from per_node directly
    } else if (total > 0) {
      incoming.resize(static_cast<std::size_t>(total));
      node.recv(incoming.data(), total, q, tag);
      stats_.intranode_bytes += total;
      cursor = incoming.data();
    }
    const Rank src = members[static_cast<std::size_t>(q)];
    for (std::size_t d = 0; d < sn; ++d) {
      const Bytes len = sizes[d];
      if (len == 0) continue;
      auto& stream = streams[d];
      appendValue<std::int32_t>(stream, src);
      appendValue<std::uint64_t>(stream, static_cast<std::uint64_t>(len));
      if (q == root) {
        appendRaw(stream, per_node[d].data(),
                  static_cast<std::size_t>(len));
      } else {
        appendRaw(stream, cursor, static_cast<std::size_t>(len));
        cursor += len;
      }
    }
  }
  return streams;
}

namespace {

/// Parses a per-rank framed stream into (src, blob) frames.
std::vector<NodeAggregator::RankBlob> parseFrames(
    const std::vector<std::byte>& stream) {
  std::vector<NodeAggregator::RankBlob> frames;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    TCIO_CHECK_MSG(pos + sizeof(std::int32_t) + sizeof(std::uint64_t) <=
                       stream.size(),
                   "truncated node-aggregation frame header");
    NodeAggregator::RankBlob frame;
    frame.src = readValue<std::int32_t>(stream.data() + pos);
    pos += sizeof(std::int32_t);
    const auto len = readValue<std::uint64_t>(stream.data() + pos);
    pos += sizeof(std::uint64_t);
    TCIO_CHECK_MSG(pos + len <= stream.size(),
                   "truncated node-aggregation frame payload");
    frame.data.assign(stream.data() + pos, stream.data() + pos + len);
    pos += len;
    frames.push_back(std::move(frame));
  }
  return frames;
}

}  // namespace

std::vector<std::vector<NodeAggregator::RankBlob>> NodeAggregator::exchange(
    const std::vector<std::vector<std::byte>>& per_node,
    const Rewrite& rewrite) {
  TCIO_CHECK_MSG(staging_ != nullptr, "exchange on a closed NodeAggregator");
  mpi::Comm& comm = map_->comm();
  const int N = map_->numNodes();
  const auto sn = static_cast<std::size_t>(N);
  const int me = map_->myNode();
  ++stats_.exchanges;
  // Advance the leadership round in lockstep (exchange is collective), so
  // every rank agrees on who leads each node before any traffic moves.
  ++round_;

  // Phase 1: funnel to the leader (membus traffic only).
  std::vector<std::vector<std::byte>> out = gatherToLeader(per_node);
  // Cross-rank coalescing happens here, before any byte pays the NIC.
  if (rewrite && isActiveLeader()) {
    for (int d = 0; d < N; ++d) {
      auto& stream = out[static_cast<std::size_t>(d)];
      if (stream.empty()) continue;
      stream = rewrite(d, parseFrames(stream));
    }
  }

  // Phase 2: leader-to-leader staging rounds. Each round moves at most one
  // slot's worth of each stream with a single RMA epoch per destination
  // node; slots are disjoint per source node, so shared locks suffice.
  std::vector<std::vector<std::byte>> in(sn);
  if (isActiveLeader()) {
    in[static_cast<std::size_t>(me)] =
        std::move(out[static_cast<std::size_t>(me)]);
    out[static_cast<std::size_t>(me)].clear();
  }
  std::vector<Bytes> cursor(sn, 0);
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
      if (isActiveLeader() && !err.set()) {
        for (int d = 0; d < N; ++d) {
          if (d == me) continue;
          const auto& stream = out[static_cast<std::size_t>(d)];
          const Bytes remaining = static_cast<Bytes>(stream.size()) -
                                  cursor[static_cast<std::size_t>(d)];
          if (remaining <= 0) continue;
          const Bytes chunk = std::min(remaining, slot_data);
          const std::uint64_t header = static_cast<std::uint64_t>(chunk);
          const Offset slot_base = static_cast<Offset>(me) * slot_bytes_;
          const mpi::Window::PutBlock blocks[2] = {
              {slot_base, &header, kSlotHeader},
              {slot_base + kSlotHeader,
               stream.data() + cursor[static_cast<std::size_t>(d)], chunk}};
          const Rank target = activeLeaderOf(d);
          staging_->lock(mpi::LockType::kShared, target);
          staging_->putIndexed(target, blocks);
          staging_->unlock(target);
          cursor[static_cast<std::size_t>(d)] += chunk;
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
      if (isActiveLeader() && !err.set()) {
        std::byte* local = staging_->localData();
        for (int s = 0; s < N; ++s) {
          if (s == me) continue;
          std::byte* slot = local + static_cast<Offset>(s) * slot_bytes_;
          const auto got = readValue<std::uint64_t>(slot);
          if (got == 0) continue;
          appendRaw(in[static_cast<std::size_t>(s)], slot + kSlotHeader,
                    static_cast<std::size_t>(got));
          std::memset(slot, 0, static_cast<std::size_t>(kSlotHeader));
        }
        for (int d = 0; d < N && !local_more; ++d) {
          if (d == me) continue;
          local_more =
              cursor[static_cast<std::size_t>(d)] <
              static_cast<Bytes>(out[static_cast<std::size_t>(d)].size());
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

  // Phase 3: parse accumulated streams. Under a rewrite the stream is one
  // raw leader-attributed blob; otherwise it carries per-rank frames.
  std::vector<std::vector<RankBlob>> result(sn);
  for (std::size_t s = 0; s < sn; ++s) {
    if (in[s].empty()) continue;
    if (rewrite) {
      result[s].push_back(
          {activeLeaderOf(static_cast<int>(s)), std::move(in[s])});
    } else {
      result[s] = parseFrames(in[s]);
    }
  }
  return result;
}

std::vector<std::byte> NodeAggregator::scatterToRanks(
    std::vector<std::vector<std::byte>> per_rank) {
  mpi::Comm& node = map_->nodeComm();
  const int Q = node.size();
  const int tag = node.nextCollectiveTag();
  // Scatter from the round's active leader (the rank exchange() left the
  // leader-held data on), not from a fixed node root.
  const Rank root = leaderNodeRank();
  std::vector<Bytes> sizes(static_cast<std::size_t>(Q), 0);
  Bytes my_size = 0;
  if (node.rank() == root) {
    TCIO_CHECK(static_cast<int>(per_rank.size()) == Q);
    for (int q = 0; q < Q; ++q) {
      sizes[static_cast<std::size_t>(q)] =
          static_cast<Bytes>(per_rank[static_cast<std::size_t>(q)].size());
    }
  }
  node.scatter(sizes.data(), sizeof(Bytes), &my_size, root);
  if (node.rank() == root) {
    std::vector<mpi::Request> reqs;
    for (int q = 0; q < Q; ++q) {
      if (q == root) continue;
      const auto& blob = per_rank[static_cast<std::size_t>(q)];
      if (blob.empty()) continue;
      reqs.push_back(node.isend(blob.data(),
                                static_cast<Bytes>(blob.size()), q, tag));
      stats_.intranode_bytes += static_cast<Bytes>(blob.size());
    }
    node.waitAll(reqs);
    return std::move(per_rank[static_cast<std::size_t>(root)]);
  }
  std::vector<std::byte> mine(static_cast<std::size_t>(my_size));
  if (my_size > 0) {
    node.recv(mine.data(), my_size, root, tag);
  }
  return mine;
}

}  // namespace tcio::topo
