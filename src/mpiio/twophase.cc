#include "mpiio/twophase.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "common/memory_tracker.h"
#include "mpi/datatype.h"
#include "mpiio/domain.h"

namespace tcio::io {

namespace {

/// Wire format of one access block in the metadata exchange.
struct BlockMeta {
  Offset off = 0;
  Bytes len = 0;
};
static_assert(sizeof(BlockMeta) == 16);

// Domain partitioning shared with the view-based path lives in domain.h.

/// Allreduce of the aggregate file domain; returns false when no rank has
/// any data (nothing to do, but every rank took part in the collective).
bool computeDomain(mpi::Comm& comm, const CollectiveRequest& req,
                   int cb_nodes, Domain& out) {
  std::int64_t minmax[2];  // {-min, max} so one kMax allreduce handles both
  if (req.extents.empty()) {
    minmax[0] = std::numeric_limits<std::int64_t>::min();
    minmax[1] = std::numeric_limits<std::int64_t>::min();
  } else {
    minmax[0] = -req.extents.front().begin;
    minmax[1] = req.extents.back().end;
  }
  comm.allreduce(minmax, 2, mpi::ReduceOp::kMax);
  if (minmax[1] == std::numeric_limits<std::int64_t>::min()) return false;
  out = Domain::partition(-minmax[0], minmax[1], comm.size(), cb_nodes);
  return true;
}

/// Per-destination split of this rank's request: block metadata plus (for
/// writes) staged payload bytes, both in ascending offset order.
struct SplitRequest {
  std::vector<std::vector<BlockMeta>> meta;       // [dst]
  std::vector<std::vector<std::byte>> payload;    // [dst], writes only
};

SplitRequest splitByAggregator(mpi::Comm& comm, const Domain& dom,
                               const CollectiveRequest& req,
                               bool stage_payload) {
  const int P = comm.size();
  SplitRequest split;
  split.meta.resize(static_cast<std::size_t>(P));
  split.payload.resize(static_cast<std::size_t>(P));
  const std::byte* cursor = req.payload;
  for (const Extent& e : req.extents) {
    Offset cur = e.begin;
    while (cur < e.end) {
      const int agg = dom.aggregatorOf(cur);
      TCIO_CHECK(agg >= 0 && agg < dom.num_agg);
      const int dst = dom.aggRank(agg);
      TCIO_CHECK(dst >= 0 && dst < P);
      const Offset region_end = dom.regionOf(agg).end;
      const Offset piece_end = std::min(e.end, region_end);
      const Bytes len = piece_end - cur;
      split.meta[static_cast<std::size_t>(dst)].push_back({cur, len});
      if (stage_payload) {
        auto& pay = split.payload[static_cast<std::size_t>(dst)];
        pay.insert(pay.end(), cursor, cursor + len);
      }
      if (cursor != nullptr) cursor += len;
      cur = piece_end;
    }
  }
  return split;
}

std::vector<std::vector<std::byte>> metaToBytes(
    const std::vector<std::vector<BlockMeta>>& meta) {
  std::vector<std::vector<std::byte>> out(meta.size());
  for (std::size_t i = 0; i < meta.size(); ++i) {
    out[i].resize(meta[i].size() * sizeof(BlockMeta));
    if (!meta[i].empty()) {
      std::memcpy(out[i].data(), meta[i].data(), out[i].size());
    }
  }
  return out;
}

/// Union of received block extents, merged (overlap tolerated: concurrent
/// writers to the same byte are a user race, last-writer-wins here).
std::vector<Extent> coverage(const mpi::SizedExchange& meta, int P) {
  std::vector<Extent> runs;
  for (std::size_t src = 0; src < static_cast<std::size_t>(P); ++src) {
    for (const BlockMeta& b : meta.recordsFrom<BlockMeta>(src)) {
      runs.push_back({b.off, b.off + b.len});
    }
  }
  return mpi::normalizeOverlapping(std::move(runs));
}

}  // namespace

TwoPhaseStats twoPhaseWrite(mpi::Comm& comm, fs::FsClient& fs,
                            fs::FsFile& file, const CollectiveRequest& req,
                            int cb_nodes) {
  TwoPhaseStats stats;
  Domain dom;
  if (!computeDomain(comm, req, cb_nodes, dom)) return stats;
  const int P = comm.size();

  // Phase 1: shuffle data to aggregators.
  SplitRequest split =
      splitByAggregator(comm, dom, req, /*stage_payload=*/true);
  Bytes staged = 0;
  for (const auto& v : split.payload) staged += static_cast<Bytes>(v.size());
  comm.chargeCopy(staged);
  const mpi::SizedExchange meta =
      mpi::sizedAlltoallv(comm, metaToBytes(split.meta));
  const mpi::SizedExchange payload = mpi::sizedAlltoallv(comm, split.payload);

  // Phase 2: this rank, if an aggregator, assembles its region, writes it.
  const Extent region = dom.regionOf(dom.aggIndexOf(comm.rank()));
  const Bytes region_size = region.size();
  stats.aggregator_buffer = region_size;
  ScopedAllocation charge(comm.memory(), region_size,
                          "OCIO aggregator (temporary) buffer");
  std::vector<std::byte> buffer(static_cast<std::size_t>(region_size));
  Bytes overlaid = 0;
  for (int src = 0; src < P; ++src) {
    const auto s = static_cast<std::size_t>(src);
    const std::byte* src_payload = payload.from(s).data();
    for (const BlockMeta& b : meta.recordsFrom<BlockMeta>(s)) {
      TCIO_CHECK(b.off >= region.begin && b.off + b.len <= region.end);
      std::memcpy(buffer.data() + (b.off - region.begin), src_payload,
                  static_cast<std::size_t>(b.len));
      src_payload += b.len;
      overlaid += b.len;
    }
  }
  comm.chargeCopy(overlaid);

  for (const Extent& run : coverage(meta, P)) {
    fs.pwrite(file, run.begin, buffer.data() + (run.begin - region.begin),
              run.size());
    ++stats.fs_requests;
  }
  return stats;
}

TwoPhaseStats twoPhaseRead(mpi::Comm& comm, fs::FsClient& fs,
                           fs::FsFile& file, const CollectiveRequest& req,
                           int cb_nodes) {
  TwoPhaseStats stats;
  Domain dom;
  if (!computeDomain(comm, req, cb_nodes, dom)) return stats;
  const int P = comm.size();

  // Requests travel to aggregators.
  SplitRequest split =
      splitByAggregator(comm, dom, req, /*stage_payload=*/false);
  const mpi::SizedExchange meta =
      mpi::sizedAlltoallv(comm, metaToBytes(split.meta));

  // Aggregator loads the union of requested runs in its region.
  const Extent region = dom.regionOf(dom.aggIndexOf(comm.rank()));
  const Bytes region_size = region.size();
  stats.aggregator_buffer = region_size;
  ScopedAllocation charge(comm.memory(), region_size,
                          "OCIO aggregator (temporary) buffer");
  std::vector<std::byte> buffer(static_cast<std::size_t>(region_size));
  for (const Extent& run : coverage(meta, P)) {
    fs.pread(file, run.begin, buffer.data() + (run.begin - region.begin),
             run.size());
    ++stats.fs_requests;
  }

  // Serve each requester its blocks, in its request order.
  std::vector<std::vector<std::byte>> replies(static_cast<std::size_t>(P));
  Bytes served = 0;
  for (int src = 0; src < P; ++src) {
    const auto s = static_cast<std::size_t>(src);
    for (const BlockMeta& b : meta.recordsFrom<BlockMeta>(s)) {
      const std::byte* from = buffer.data() + (b.off - region.begin);
      replies[s].insert(replies[s].end(), from, from + b.len);
      served += b.len;
    }
  }
  comm.chargeCopy(served);
  const mpi::SizedExchange back = mpi::sizedAlltoallv(comm, replies);

  // Scatter received bytes into the caller's payload, extent order. Pieces
  // from aggregator j arrive in the same ascending-offset order we asked in.
  std::vector<Offset> src_cursor(back.displs.begin(), back.displs.end());
  std::byte* out = req.payload;
  for (const Extent& e : req.extents) {
    Offset cur = e.begin;
    while (cur < e.end) {
      const int agg = dom.aggregatorOf(cur);
      const auto src_rank = static_cast<std::size_t>(dom.aggRank(agg));
      const Offset piece_end = std::min(e.end, dom.regionOf(agg).end);
      const Bytes len = piece_end - cur;
      std::memcpy(out, back.data.data() + src_cursor[src_rank],
                  static_cast<std::size_t>(len));
      src_cursor[src_rank] += len;
      out += len;
      cur = piece_end;
    }
  }
  comm.chargeCopy(static_cast<Bytes>(out - req.payload));
  return stats;
}

}  // namespace tcio::io
