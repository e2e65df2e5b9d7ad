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

// -- Requester side -----------------------------------------------------------

/// This rank's request split at aggregator boundaries, per destination rank:
/// the pieces as packed `Extent` records (the two-phase metadata), the
/// staged payload (writes) and the payload byte counts.
struct SplitRequest {
  mpi::PackedSend meta;
  mpi::PackedSend payload;  // empty unless staged
  std::vector<Bytes> counts;
};

/// Splits `extents` (ascending) by aggregator. A non-null `stage` is the
/// payload to stage per destination, charged as one copy.
SplitRequest splitByAggregator(mpi::Comm& comm, const Domain& dom,
                               const std::vector<Extent>& extents,
                               const std::byte* stage) {
  const auto P = static_cast<std::size_t>(comm.size());
  std::vector<Bytes> meta_counts(P, 0), counts(P, 0);
  forEachPiece(dom, extents, [&](int agg, const Extent& piece) {
    const auto dst = static_cast<std::size_t>(dom.aggRank(agg));
    TCIO_CHECK(dst < P);
    meta_counts[dst] += sizeof(Extent);
    counts[dst] += piece.size();
  });
  SplitRequest split{
      mpi::PackedSend(std::move(meta_counts)),
      mpi::PackedSend(stage != nullptr ? counts : std::vector<Bytes>(P, 0)),
      std::move(counts)};
  const std::byte* cursor = stage;
  forEachPiece(dom, extents, [&](int agg, const Extent& piece) {
    const auto dst = static_cast<std::size_t>(dom.aggRank(agg));
    split.meta.append(dst, &piece, sizeof(piece));
    if (stage != nullptr) {
      split.payload.append(dst, cursor, piece.size());
      cursor += piece.size();
    }
  });
  if (stage != nullptr) comm.chargeCopy(static_cast<Bytes>(cursor - stage));
  return split;
}

/// Requester read step: copies the bytes each aggregator sent back into
/// `out`, in extent order. Aggregator j's pieces arrive in the same
/// ascending-offset order they were asked for.
void scatterReplies(mpi::Comm& comm, const Domain& dom,
                    const std::vector<Extent>& extents,
                    const mpi::SizedExchange& back, std::byte* out) {
  std::vector<Offset> cursor(back.displs.begin(), back.displs.end());
  std::byte* at = out;
  forEachPiece(dom, extents, [&](int agg, const Extent& piece) {
    const auto src = static_cast<std::size_t>(dom.aggRank(agg));
    std::memcpy(at, back.data.data() + cursor[src],
                static_cast<std::size_t>(piece.size()));
    cursor[src] += piece.size();
    at += piece.size();
  });
  comm.chargeCopy(static_cast<Bytes>(at - out));
}

// -- Aggregator side ----------------------------------------------------------

/// What one aggregator serves in a collective call: its file region and,
/// per source rank, that source's pieces inside the region in ascending
/// order. Source s owns pieces[ends[s - 1], ends[s]).
struct RegionPlan {
  Extent region;
  std::vector<Extent> pieces;
  std::vector<std::size_t> ends;  // [P]

  template <typename F>
  void forSource(std::size_t src, F&& fn) const {
    for (std::size_t k = src == 0 ? 0 : ends[src - 1]; k < ends[src]; ++k) {
      fn(pieces[k]);
    }
  }

  /// Payload bytes per source: the sum of its pieces' sizes.
  std::vector<Bytes> sourceBytes() const {
    std::vector<Bytes> bytes(ends.size(), 0);
    for (std::size_t src = 0; src < ends.size(); ++src) {
      forSource(src, [&](const Extent& e) { bytes[src] += e.size(); });
    }
    return bytes;
  }
};

/// Two-phase plan: the pieces every rank sent this aggregator as metadata.
RegionPlan planFromMeta(mpi::Comm& comm, const Domain& dom,
                        const mpi::SizedExchange& meta) {
  RegionPlan plan{dom.regionOf(dom.aggIndexOf(comm.rank())), {},
                  std::vector<std::size_t>(meta.counts.size())};
  plan.pieces.reserve(meta.data.size() / sizeof(Extent));
  for (std::size_t src = 0; src < plan.ends.size(); ++src) {
    meta.forEachRecord<Extent>(
        src, [&](const Extent& piece) { plan.pieces.push_back(piece); });
    plan.ends[src] = plan.pieces.size();
  }
  return plan;
}

/// An aggregator's region buffer, charged against the rank's memory budget
/// while it lives. It is not zero-filled: bytes outside the pieces' union
/// are never written to the file or served to a reader.
struct RegionBuffer {
  RegionBuffer(mpi::Comm& comm, const Extent& r, TwoPhaseStats& stats)
      : region(r),
        charge(comm.memory(), r.size(), "OCIO aggregator (temporary) buffer"),
        bytes(static_cast<std::size_t>(r.size())) {
    stats.aggregator_buffer = r.size();
  }
  std::byte* at(Offset off) { return bytes.data() + (off - region.begin); }

  Extent region;
  ScopedAllocation charge;
  mpi::RawBytes bytes;
};

/// Aggregator write step: overlays each source's payload (its pieces' bytes
/// back to back, in plan order) onto the region buffer, then writes each
/// run of the pieces' union once. Overlapping writers are a user race; the
/// highest source rank's bytes win.
void aggregateWrite(mpi::Comm& comm, fs::FsClient& fs, fs::FsFile& file,
                    RegionPlan plan, const mpi::SizedExchange& payload,
                    TwoPhaseStats& stats) {
  RegionBuffer buf(comm, plan.region, stats);
  Bytes overlaid = 0;
  for (std::size_t src = 0; src < plan.ends.size(); ++src) {
    const std::byte* from = payload.from(src).data();
    plan.forSource(src, [&](const Extent& piece) {
      TCIO_CHECK(piece.begin >= plan.region.begin &&
                 piece.end <= plan.region.end);
      std::memcpy(buf.at(piece.begin), from,
                  static_cast<std::size_t>(piece.size()));
      from += piece.size();
      overlaid += piece.size();
    });
  }
  comm.chargeCopy(overlaid);
  for (const Extent& run :
       mpi::unionSortedSources(std::move(plan.pieces), plan.ends)) {
    fs.pwrite(file, run.begin, buf.at(run.begin), run.size());
    ++stats.fs_requests;
  }
}

/// Aggregator read step: reads each run of the pieces' union once, then
/// returns each source its pieces' bytes back to back, in plan order.
mpi::PackedSend aggregateRead(mpi::Comm& comm, fs::FsClient& fs,
                              fs::FsFile& file, const RegionPlan& plan,
                              TwoPhaseStats& stats) {
  RegionBuffer buf(comm, plan.region, stats);
  for (const Extent& run : mpi::unionSortedSources(plan.pieces, plan.ends)) {
    fs.pread(file, run.begin, buf.at(run.begin), run.size());
    ++stats.fs_requests;
  }
  mpi::PackedSend replies(plan.sourceBytes());
  Bytes served = 0;
  for (std::size_t src = 0; src < plan.ends.size(); ++src) {
    plan.forSource(src, [&](const Extent& piece) {
      replies.append(src, buf.at(piece.begin), piece.size());
      served += piece.size();
    });
  }
  comm.chargeCopy(served);
  return replies;
}

// -- Two-phase ----------------------------------------------------------------

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

// -- View-based ---------------------------------------------------------------

/// Wire format: [identity u64][disp][tile_payload][tile_extent][nsegs][segs].
std::vector<std::byte> serializeView(const FileView& v) {
  std::vector<std::byte> out;
  auto put = [&out](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out.insert(out.end(), b, b + n);
  };
  const std::int64_t identity = v.isIdentity() ? 1 : 0;
  const Offset disp = v.displacement();
  put(&identity, 8);
  put(&disp, 8);
  if (identity != 0) return out;
  const Bytes tile_payload = v.filetype().size();
  const Bytes tile_extent = v.filetype().extent();
  const auto& segs = v.filetype().segments();
  const std::int64_t nsegs = static_cast<std::int64_t>(segs.size());
  put(&tile_payload, 8);
  put(&tile_extent, 8);
  put(&nsegs, 8);
  put(segs.data(), segs.size() * sizeof(Extent));
  return out;
}

CachedView deserializeView(const std::vector<std::byte>& in) {
  CachedView v;
  const std::byte* p = in.data();
  auto take = [&p](void* dst, std::size_t n) {
    std::memcpy(dst, p, n);
    p += n;
  };
  std::int64_t identity = 0;
  take(&identity, 8);
  take(&v.disp, 8);
  v.identity = identity != 0;
  if (v.identity) return v;
  std::int64_t nsegs = 0;
  take(&v.tile_payload, 8);
  take(&v.tile_extent, 8);
  take(&nsegs, 8);
  v.segments.resize(static_cast<std::size_t>(nsegs));
  take(v.segments.data(), static_cast<std::size_t>(nsegs) * sizeof(Extent));
  return v;
}

/// Verifies all ranks pass the same payload size (cheap sanity allreduce).
void checkUniformSize(mpi::Comm& comm, Bytes n) {
  std::int64_t minmax[2] = {-n, n};
  comm.allreduce(minmax, 2, mpi::ReduceOp::kMax);
  TCIO_CHECK_MSG(-minmax[0] == n && minmax[1] == n,
                 "view-based collective requires the same payload size on "
                 "every rank");
}

Domain domainFromCache(mpi::Comm& comm, const ViewCache& cache, Bytes n,
                       int cb_nodes) {
  Offset lo = std::numeric_limits<Offset>::max();
  Offset hi = 0;
  for (int r = 0; r < comm.size(); ++r) {
    const auto ext = cache.extentsOf(r, n);
    if (ext.empty()) continue;
    lo = std::min(lo, ext.front().begin);
    hi = std::max(hi, ext.back().end);
  }
  TCIO_CHECK_MSG(hi > lo, "view-based collective with empty views");
  return Domain::partition(lo, hi, comm.size(), cb_nodes);
}

/// View-based plan: every rank's cached view clipped to this aggregator's
/// region, computed locally.
RegionPlan planFromCache(mpi::Comm& comm, const Domain& dom,
                         const ViewCache& cache, Bytes n) {
  const auto P = static_cast<std::size_t>(comm.size());
  RegionPlan plan{dom.regionOf(dom.aggIndexOf(comm.rank())), {},
                  std::vector<std::size_t>(P, 0)};
  if (plan.region.empty()) return plan;
  for (std::size_t src = 0; src < P; ++src) {
    for (const Extent& e : cache.extentsOf(static_cast<int>(src), n)) {
      const Extent piece = intersect(e, plan.region);
      if (!piece.empty()) plan.pieces.push_back(piece);
    }
    plan.ends[src] = plan.pieces.size();
  }
  return plan;
}

}  // namespace

TwoPhaseStats twoPhaseWrite(mpi::Comm& comm, fs::FsClient& fs,
                            fs::FsFile& file, const CollectiveRequest& req,
                            int cb_nodes) {
  TwoPhaseStats stats;
  Domain dom;
  if (!computeDomain(comm, req, cb_nodes, dom)) return stats;
  // Phase 1: shuffle pieces and data to aggregators. Phase 2: each
  // aggregator assembles its region and writes it.
  const SplitRequest split =
      splitByAggregator(comm, dom, req.extents, req.payload);
  const mpi::SizedExchange meta = mpi::sizedAlltoallv(comm, split.meta);
  const mpi::SizedExchange payload = mpi::sizedAlltoallv(comm, split.payload);
  aggregateWrite(comm, fs, file, planFromMeta(comm, dom, meta), payload,
                 stats);
  return stats;
}

TwoPhaseStats twoPhaseRead(mpi::Comm& comm, fs::FsClient& fs,
                           fs::FsFile& file, const CollectiveRequest& req,
                           int cb_nodes) {
  TwoPhaseStats stats;
  Domain dom;
  if (!computeDomain(comm, req, cb_nodes, dom)) return stats;
  // Requests travel to aggregators, which load and return the bytes.
  const SplitRequest split =
      splitByAggregator(comm, dom, req.extents, nullptr);
  const mpi::SizedExchange meta = mpi::sizedAlltoallv(comm, split.meta);
  const auto replies =
      aggregateRead(comm, fs, file, planFromMeta(comm, dom, meta), stats);
  scatterReplies(comm, dom, req.extents, mpi::sizedAlltoallv(comm, replies),
                 req.payload);
  return stats;
}

ViewCache ViewCache::exchange(mpi::Comm& comm, const FileView& mine) {
  const std::vector<std::byte> wire = serializeView(mine);
  std::vector<std::vector<std::byte>> all;
  comm.allgatherv(wire.data(), static_cast<Bytes>(wire.size()), all);
  ViewCache cache;
  cache.views_.reserve(all.size());
  for (const auto& buf : all) {
    cache.views_.push_back(deserializeView(buf));
  }
  return cache;
}

std::vector<Extent> ViewCache::extentsOf(int rank, Bytes n) const {
  const CachedView& v = of(rank);
  if (n == 0) return {};
  if (v.identity) return {{v.disp, v.disp + n}};
  return mapTiledExtents(v.disp, v.segments, v.tile_payload, v.tile_extent,
                         /*view_off=*/0, n);
}

TwoPhaseStats viewBasedWrite(mpi::Comm& comm, fs::FsClient& fs,
                             fs::FsFile& file, const ViewCache& cache,
                             const std::byte* payload, Bytes n,
                             int cb_nodes) {
  TCIO_CHECK(cache.size() == comm.size());
  TwoPhaseStats stats;
  checkUniformSize(comm, n);
  const Domain dom = domainFromCache(comm, cache, n, cb_nodes);
  // Both sides derive every count from the cached views, so the payload is
  // the only exchange.
  const SplitRequest split =
      splitByAggregator(comm, dom, cache.extentsOf(comm.rank(), n), payload);
  RegionPlan plan = planFromCache(comm, dom, cache, n);
  const mpi::SizedExchange recv =
      mpi::alltoallvCounted(comm, split.payload, plan.sourceBytes());
  aggregateWrite(comm, fs, file, std::move(plan), recv, stats);
  return stats;
}

TwoPhaseStats viewBasedRead(mpi::Comm& comm, fs::FsClient& fs,
                            fs::FsFile& file, const ViewCache& cache,
                            std::byte* payload, Bytes n, int cb_nodes) {
  TCIO_CHECK(cache.size() == comm.size());
  TwoPhaseStats stats;
  checkUniformSize(comm, n);
  const Domain dom = domainFromCache(comm, cache, n, cb_nodes);
  const auto replies = aggregateRead(
      comm, fs, file, planFromCache(comm, dom, cache, n), stats);
  const std::vector<Extent> mine = cache.extentsOf(comm.rank(), n);
  SplitRequest split = splitByAggregator(comm, dom, mine, nullptr);
  scatterReplies(comm, dom, mine,
                 mpi::alltoallvCounted(comm, replies, std::move(split.counts)),
                 payload);
  return stats;
}

}  // namespace tcio::io
