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

/// Per-destination split of this rank's request: packed `BlockMeta` records
/// plus (for writes) staged payload bytes, both in ascending offset order.
struct SplitRequest {
  std::vector<std::vector<std::byte>> meta;       // [dst]
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
  forEachPiece(dom, req.extents, [&](int agg, const Extent& piece) {
    const int rank = dom.aggRank(agg);
    TCIO_CHECK(rank >= 0 && rank < P);
    const auto dst = static_cast<std::size_t>(rank);
    const BlockMeta m{piece.begin, piece.size()};
    const auto* raw = reinterpret_cast<const std::byte*>(&m);
    split.meta[dst].insert(split.meta[dst].end(), raw, raw + sizeof(m));
    if (stage_payload) {
      auto& pay = split.payload[dst];
      pay.insert(pay.end(), cursor, cursor + piece.size());
    }
    if (cursor != nullptr) cursor += piece.size();
  });
  return split;
}

/// Union of received block extents (overlap tolerated: concurrent writers to
/// the same byte are a user race; the highest rank's bytes win here). Each
/// source's blocks arrive in ascending offset order, because its request
/// came from FileView::mapExtents, so the sources are merged, not sorted.
std::vector<Extent> coverage(const mpi::SizedExchange& meta, int P) {
  std::vector<Extent> runs;
  runs.reserve(meta.data.size() / sizeof(BlockMeta));
  std::vector<std::size_t> ends(static_cast<std::size_t>(P));
  for (std::size_t src = 0; src < ends.size(); ++src) {
    meta.forEachRecord<BlockMeta>(src, [&](const BlockMeta& b) {
      runs.push_back({b.off, b.off + b.len});
    });
    ends[src] = runs.size();
  }
  return mpi::unionSortedSources(std::move(runs), ends);
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
  const mpi::SizedExchange meta = mpi::sizedAlltoallv(comm, split.meta);
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
    meta.forEachRecord<BlockMeta>(s, [&](const BlockMeta& b) {
      TCIO_CHECK(b.off >= region.begin && b.off + b.len <= region.end);
      std::memcpy(buffer.data() + (b.off - region.begin), src_payload,
                  static_cast<std::size_t>(b.len));
      src_payload += b.len;
      overlaid += b.len;
    });
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
  const mpi::SizedExchange meta = mpi::sizedAlltoallv(comm, split.meta);

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
    meta.forEachRecord<BlockMeta>(s, [&](const BlockMeta& b) {
      const std::byte* from = buffer.data() + (b.off - region.begin);
      replies[s].insert(replies[s].end(), from, from + b.len);
      served += b.len;
    });
  }
  comm.chargeCopy(served);
  const mpi::SizedExchange back = mpi::sizedAlltoallv(comm, replies);

  // Scatter received bytes into the caller's payload, extent order. Pieces
  // from aggregator j arrive in the same ascending-offset order we asked in.
  std::vector<Offset> src_cursor(back.displs.begin(), back.displs.end());
  std::byte* out = req.payload;
  forEachPiece(dom, req.extents, [&](int agg, const Extent& piece) {
    const auto src_rank = static_cast<std::size_t>(dom.aggRank(agg));
    std::memcpy(out, back.data.data() + src_cursor[src_rank],
                static_cast<std::size_t>(piece.size()));
    src_cursor[src_rank] += piece.size();
    out += piece.size();
  });
  comm.chargeCopy(static_cast<Bytes>(out - req.payload));
  return stats;
}

}  // namespace tcio::io
