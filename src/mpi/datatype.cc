#include "mpi/datatype.h"

#include <algorithm>
#include <limits>

namespace tcio::mpi {

namespace {

bool beginsBefore(const Extent& a, const Extent& b) {
  return a.begin < b.begin;
}

/// Sorts by begin; input that is already in order (the common case: layouts
/// built in ascending displacement order) costs one O(n) scan.
void sortByBegin(std::vector<Extent>& extents) {
  if (!std::is_sorted(extents.begin(), extents.end(), beginsBefore)) {
    std::sort(extents.begin(), extents.end(), beginsBefore);
  }
}

/// Appends `e` to `out`, folding it into the tail run when they touch or
/// overlap. Runs before index `first` are never folded into.
void appendCoalescing(std::vector<Extent>& out, std::size_t first,
                      const Extent& e) {
  if (out.size() > first && e.begin <= out.back().end) {
    out.back().end = std::max(out.back().end, e.end);
  } else {
    out.push_back(e);
  }
}

/// Appends the union of in[a, a_end) and in[b, b_end), both ascending by
/// begin, to `out` as merged runs.
void mergeCoalescing(const std::vector<Extent>& in, std::size_t a,
                     std::size_t a_end, std::size_t b, std::size_t b_end,
                     std::vector<Extent>& out) {
  const std::size_t first = out.size();
  while (a < a_end && b < b_end) {
    appendCoalescing(out, first,
                     in[b].begin < in[a].begin ? in[b++] : in[a++]);
  }
  while (a < a_end) appendCoalescing(out, first, in[a++]);
  while (b < b_end) appendCoalescing(out, first, in[b++]);
}

}  // namespace

std::vector<Extent> normalizeExtents(std::vector<Extent> extents) {
  std::erase_if(extents, [](const Extent& e) { return e.empty(); });
  sortByBegin(extents);
  std::vector<Extent> out;
  out.reserve(extents.size());
  for (const Extent& e : extents) {
    if (!out.empty() && e.begin <= out.back().end) {
      TCIO_CHECK_MSG(e.begin == out.back().end,
                     "overlapping byte runs in datatype layout");
      out.back().end = std::max(out.back().end, e.end);
    } else {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<Extent> normalizeOverlapping(std::vector<Extent> extents) {
  std::erase_if(extents, [](const Extent& e) { return e.empty(); });
  sortByBegin(extents);
  std::vector<Extent> out;
  out.reserve(extents.size());
  for (const Extent& e : extents) appendCoalescing(out, 0, e);
  return out;
}

std::vector<Extent> unionSortedSources(
    std::vector<Extent> runs, std::span<const std::size_t> source_ends) {
  // Drop empty runs in place (an empty run's begin carries no order) and
  // check that every source is ascending.
  std::vector<std::size_t> ends(source_ends.begin(), source_ends.end());
  std::size_t begin = 0;
  std::size_t kept = 0;
  for (std::size_t& end : ends) {
    TCIO_CHECK(begin <= end && end <= runs.size());
    Offset last = std::numeric_limits<Offset>::min();
    for (std::size_t k = begin; k < end; ++k) {
      const Extent e = runs[k];
      if (e.empty()) continue;
      TCIO_CHECK_MSG(e.begin >= last,
                     "extent source list is not in ascending offset order");
      last = e.begin;
      runs[kept++] = e;
    }
    begin = end;
    end = kept;
  }
  TCIO_CHECK_MSG(begin == runs.size(), "runs past the last source end");
  runs.resize(kept);

  // Merge neighbouring sources level by level until one list is left. The
  // first level also coalesces a lone source's own touching runs.
  std::vector<Extent> next;
  next.reserve(runs.size());
  do {
    next.clear();
    std::size_t merged = 0;
    std::size_t a = 0;
    for (std::size_t i = 0; i < ends.size(); i += 2) {
      const std::size_t a_end = ends[i];
      const std::size_t b_end = i + 1 < ends.size() ? ends[i + 1] : a_end;
      mergeCoalescing(runs, a, a_end, a_end, b_end, next);
      ends[merged++] = next.size();
      a = b_end;
    }
    ends.resize(merged);
    runs.swap(next);
  } while (ends.size() > 1);
  // Return a right-sized copy: callers keep the union across simulated I/O,
  // and both level buffers are as large as the input.
  return {runs.begin(), runs.end()};
}

Datatype Datatype::basic(Bytes n, const char* name) {
  return fromSegments({Extent{0, n}}, name);
}

Datatype Datatype::fromSegments(std::vector<Extent> segs, std::string name) {
  auto st = std::make_shared<State>();
  st->segments = normalizeExtents(std::move(segs));
  for (const Extent& e : st->segments) {
    TCIO_CHECK_MSG(e.begin >= 0, "negative displacements are not supported");
    st->size += e.size();
    st->extent = std::max(st->extent, e.end);
  }
  st->name = std::move(name);
  Datatype t;
  t.state_ = std::move(st);
  return t;
}

Datatype Datatype::contiguous(std::int64_t count, const Datatype& base) {
  TCIO_CHECK(count >= 0);
  TCIO_CHECK_MSG(base.valid(), "contiguous() on invalid base type");
  std::vector<Extent> segs;
  const Bytes ext = base.extent();
  segs.reserve(base.segments().size() * static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    for (const Extent& e : base.segments()) {
      segs.push_back({e.begin + i * ext, e.end + i * ext});
    }
  }
  return fromSegments(std::move(segs),
                      "contig(" + std::to_string(count) + "," + base.name() +
                          ")");
}

Datatype Datatype::vector(std::int64_t count, std::int64_t blocklen,
                          std::int64_t stride, const Datatype& base) {
  TCIO_CHECK(count >= 0 && blocklen >= 0);
  TCIO_CHECK_MSG(stride >= blocklen,
                 "vector() with stride < blocklen would overlap");
  TCIO_CHECK_MSG(base.valid(), "vector() on invalid base type");
  std::vector<Extent> segs;
  const Bytes ext = base.extent();
  segs.reserve(base.segments().size() * static_cast<std::size_t>(count) *
               static_cast<std::size_t>(blocklen));
  for (std::int64_t i = 0; i < count; ++i) {
    const Offset block_base = i * stride * ext;
    for (std::int64_t j = 0; j < blocklen; ++j) {
      for (const Extent& e : base.segments()) {
        segs.push_back({block_base + j * ext + e.begin,
                        block_base + j * ext + e.end});
      }
    }
  }
  return fromSegments(std::move(segs),
                      "vector(" + std::to_string(count) + "," +
                          std::to_string(blocklen) + "," +
                          std::to_string(stride) + "," + base.name() + ")");
}

Datatype Datatype::indexed(std::span<const std::int64_t> blocklens,
                           std::span<const std::int64_t> displs,
                           const Datatype& base) {
  TCIO_CHECK(blocklens.size() == displs.size());
  TCIO_CHECK_MSG(base.valid(), "indexed() on invalid base type");
  std::vector<Extent> segs;
  const Bytes ext = base.extent();
  for (std::size_t k = 0; k < blocklens.size(); ++k) {
    const Offset block_base = displs[k] * ext;
    for (std::int64_t j = 0; j < blocklens[k]; ++j) {
      for (const Extent& e : base.segments()) {
        segs.push_back({block_base + j * ext + e.begin,
                        block_base + j * ext + e.end});
      }
    }
  }
  return fromSegments(std::move(segs),
                      "indexed(" + std::to_string(blocklens.size()) + "," +
                          base.name() + ")");
}

Datatype Datatype::hindexed(std::span<const Bytes> blocklens,
                            std::span<const Offset> byte_displs) {
  TCIO_CHECK(blocklens.size() == byte_displs.size());
  std::vector<Extent> segs;
  segs.reserve(blocklens.size());
  for (std::size_t k = 0; k < blocklens.size(); ++k) {
    segs.push_back({byte_displs[k], byte_displs[k] + blocklens[k]});
  }
  return fromSegments(std::move(segs),
                      "hindexed(" + std::to_string(blocklens.size()) + ")");
}

Datatype Datatype::structType(std::span<const std::int64_t> blocklens,
                              std::span<const Offset> byte_displs,
                              std::span<const Datatype> types) {
  TCIO_CHECK(blocklens.size() == byte_displs.size());
  TCIO_CHECK(blocklens.size() == types.size());
  std::vector<Extent> segs;
  for (std::size_t k = 0; k < blocklens.size(); ++k) {
    TCIO_CHECK_MSG(types[k].valid(), "structType() with invalid member");
    const Bytes ext = types[k].extent();
    for (std::int64_t j = 0; j < blocklens[k]; ++j) {
      for (const Extent& e : types[k].segments()) {
        segs.push_back({byte_displs[k] + j * ext + e.begin,
                        byte_displs[k] + j * ext + e.end});
      }
    }
  }
  return fromSegments(std::move(segs),
                      "struct(" + std::to_string(blocklens.size()) + ")");
}

void Datatype::flatten(Offset base, std::int64_t count,
                       std::vector<Extent>& out) const {
  TCIO_CHECK_MSG(valid(), "flatten() on invalid datatype");
  const Bytes ext = extent();
  for (std::int64_t i = 0; i < count; ++i) {
    const Offset inst = base + i * ext;
    for (const Extent& e : state_->segments) {
      const Extent shifted{inst + e.begin, inst + e.end};
      if (!out.empty() && out.back().end == shifted.begin) {
        out.back().end = shifted.end;  // merge adjacent runs
      } else {
        out.push_back(shifted);
      }
    }
  }
}

}  // namespace tcio::mpi
