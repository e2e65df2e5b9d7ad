#include "mpiio/viewbased.h"

#include <cstring>
#include <limits>

#include "common/memory_tracker.h"
#include "mpiio/domain.h"

namespace tcio::io {

namespace {

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

}  // namespace

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
  const int P = comm.size();
  const Domain dom = domainFromCache(comm, cache, n, cb_nodes);

  // Stage my payload per destination aggregator — counts are derivable on
  // BOTH sides from the cached views, so this is the only exchange.
  const auto sp = static_cast<std::size_t>(P);
  std::vector<std::vector<std::byte>> send(sp);
  {
    const std::byte* cursor = payload;
    forEachPiece(dom, cache.extentsOf(comm.rank(), n),
                 [&](int agg, const Extent& piece) {
                   auto& buf = send[static_cast<std::size_t>(dom.aggRank(agg))];
                   buf.insert(buf.end(), cursor, cursor + piece.size());
                   cursor += piece.size();
                 });
    comm.chargeCopy(static_cast<Bytes>(cursor - payload));
  }
  std::vector<Bytes> scounts(sp, 0), rcounts(sp, 0);
  std::vector<Offset> sdispls(sp, 0), rdispls(sp, 0);
  Bytes stot = 0;
  for (std::size_t i = 0; i < sp; ++i) {
    scounts[i] = static_cast<Bytes>(send[i].size());
    sdispls[i] = stot;
    stot += scounts[i];
  }
  // Receive counts: bytes of each source's view inside my region.
  const int my_agg = dom.aggIndexOf(comm.rank());
  const Extent region = dom.regionOf(my_agg);
  Bytes rtot = 0;
  if (my_agg >= 0) {
    for (int src = 0; src < P; ++src) {
      Bytes cnt = 0;
      for (const Extent& e : cache.extentsOf(src, n)) {
        cnt += intersect(e, region).size();
      }
      rcounts[static_cast<std::size_t>(src)] = cnt;
      rdispls[static_cast<std::size_t>(src)] = rtot;
      rtot += cnt;
    }
  }
  std::vector<std::byte> sendbuf;
  sendbuf.reserve(static_cast<std::size_t>(stot));
  for (const auto& v : send) sendbuf.insert(sendbuf.end(), v.begin(), v.end());
  std::vector<std::byte> recv(static_cast<std::size_t>(rtot));
  comm.alltoallv(sendbuf.data(), scounts, sdispls, recv.data(), rcounts,
                 rdispls);

  // Assemble and write my region.
  stats.aggregator_buffer = region.size();
  ScopedAllocation charge(comm.memory(), region.size(),
                          "view-based aggregator buffer");
  std::vector<std::byte> buffer(static_cast<std::size_t>(region.size()));
  std::vector<Extent> covered;
  std::vector<std::size_t> covered_ends(static_cast<std::size_t>(P));
  if (my_agg >= 0) {
    for (int src = 0; src < P; ++src) {
      const auto s = static_cast<std::size_t>(src);
      const std::byte* cursor = recv.data() + rdispls[s];
      for (const Extent& e : cache.extentsOf(src, n)) {
        const Extent piece = intersect(e, region);
        if (piece.empty()) continue;
        std::memcpy(buffer.data() + (piece.begin - region.begin), cursor,
                    static_cast<std::size_t>(piece.size()));
        cursor += piece.size();
        covered.push_back(piece);
      }
      covered_ends[s] = covered.size();
    }
    comm.chargeCopy(rtot);
    for (const Extent& run :
         mpi::unionSortedSources(std::move(covered), covered_ends)) {
      fs.pwrite(file, run.begin, buffer.data() + (run.begin - region.begin),
                run.size());
      ++stats.fs_requests;
    }
  }
  return stats;
}

TwoPhaseStats viewBasedRead(mpi::Comm& comm, fs::FsClient& fs,
                            fs::FsFile& file, const ViewCache& cache,
                            std::byte* payload, Bytes n, int cb_nodes) {
  TCIO_CHECK(cache.size() == comm.size());
  TwoPhaseStats stats;
  checkUniformSize(comm, n);
  const int P = comm.size();
  const Domain dom = domainFromCache(comm, cache, n, cb_nodes);
  const auto sp = static_cast<std::size_t>(P);

  // Aggregators load the union of all views inside their region, then ship
  // each requester its bytes; both sides derive all counts locally.
  const int my_agg = dom.aggIndexOf(comm.rank());
  const Extent region = dom.regionOf(my_agg);
  stats.aggregator_buffer = region.size();
  ScopedAllocation charge(comm.memory(), region.size(),
                          "view-based aggregator buffer");
  std::vector<std::byte> buffer(static_cast<std::size_t>(region.size()));
  std::vector<std::vector<std::byte>> replies(sp);
  if (my_agg >= 0) {
    std::vector<Extent> covered;
    std::vector<std::size_t> covered_ends(sp);
    for (int src = 0; src < P; ++src) {
      for (const Extent& e : cache.extentsOf(src, n)) {
        const Extent piece = intersect(e, region);
        if (!piece.empty()) covered.push_back(piece);
      }
      covered_ends[static_cast<std::size_t>(src)] = covered.size();
    }
    for (const Extent& run :
         mpi::unionSortedSources(std::move(covered), covered_ends)) {
      fs.pread(file, run.begin, buffer.data() + (run.begin - region.begin),
               run.size());
      ++stats.fs_requests;
    }
    Bytes served = 0;
    for (int src = 0; src < P; ++src) {
      for (const Extent& e : cache.extentsOf(src, n)) {
        const Extent piece = intersect(e, region);
        if (piece.empty()) continue;
        const std::byte* from = buffer.data() + (piece.begin - region.begin);
        auto& rep = replies[static_cast<std::size_t>(src)];
        rep.insert(rep.end(), from, from + piece.size());
        served += piece.size();
      }
    }
    comm.chargeCopy(served);
  }
  std::vector<Bytes> scounts(sp, 0), rcounts(sp, 0);
  std::vector<Offset> sdispls(sp, 0), rdispls(sp, 0);
  Bytes stot = 0, rtot = 0;
  for (std::size_t i = 0; i < sp; ++i) {
    scounts[i] = static_cast<Bytes>(replies[i].size());
    sdispls[i] = stot;
    stot += scounts[i];
  }
  // My receive counts: my view's bytes inside each aggregator's region.
  const auto my_extents = cache.extentsOf(comm.rank(), n);
  for (int agg = 0; agg < dom.num_agg; ++agg) {
    Bytes cnt = 0;
    for (const Extent& e : my_extents) {
      cnt += intersect(e, dom.regionOf(agg)).size();
    }
    const auto r = static_cast<std::size_t>(dom.aggRank(agg));
    rcounts[r] = cnt;
  }
  for (std::size_t i = 0; i < sp; ++i) {
    rdispls[i] = rtot;
    rtot += rcounts[i];
  }
  std::vector<std::byte> sendbuf;
  sendbuf.reserve(static_cast<std::size_t>(stot));
  for (const auto& v : replies) sendbuf.insert(sendbuf.end(), v.begin(), v.end());
  std::vector<std::byte> recv(static_cast<std::size_t>(rtot));
  comm.alltoallv(sendbuf.data(), scounts, sdispls, recv.data(), rcounts,
                 rdispls);

  // Scatter into the payload in view order.
  std::vector<Offset> cursor(rdispls.begin(), rdispls.end());
  std::byte* out = payload;
  forEachPiece(dom, my_extents, [&](int agg, const Extent& piece) {
    const auto r = static_cast<std::size_t>(dom.aggRank(agg));
    std::memcpy(out, recv.data() + cursor[r],
                static_cast<std::size_t>(piece.size()));
    cursor[r] += piece.size();
    out += piece.size();
  });
  comm.chargeCopy(static_cast<Bytes>(out - payload));
  return stats;
}

}  // namespace tcio::io
