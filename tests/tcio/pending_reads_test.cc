#include "tcio/pending_reads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

namespace tcio::core {

void PrintTo(const ReadPiece& p, std::ostream* os) {
  *os << "{off " << p.off << ", len " << p.len << ", dst "
      << static_cast<const void*>(p.dst) << "}";
}

namespace {

/// The file byte at `off`; never 0x5A, the byte MALLOC_PERTURB_=165 fills
/// fresh heap with, so a piece that lands nowhere shows.
std::byte fileByte(Offset off) {
  return static_cast<std::byte>(1 + (off * 131) % 89);
}

/// Destination memory the patterns read into, left uninitialized.
struct Pool {
  explicit Pool(std::size_t n)
      : size(n), bytes(std::make_unique_for_overwrite<std::byte[]>(n)) {}
  std::byte* at(std::int64_t i) const { return bytes.get() + i; }
  std::int64_t room() const { return static_cast<std::int64_t>(size); }
  std::size_t size;
  std::unique_ptr<std::byte[]> bytes;
};

/// A recorded sequence: the recorder and the flat (off, len, dst) list it
/// must reproduce.
struct Recording {
  explicit Recording(Bytes segment) : seg(segment) {}

  /// Records one read the way File::recordRead does: split at segment
  /// boundaries, one piece per segment.
  void read(Offset off, std::byte* dst, Bytes n) {
    ++reads;
    while (n > 0) {
      const Bytes take = std::min(n, seg - off % seg);
      rec.add(off, dst, take);
      ref.push_back({off, take, dst});
      off += take;
      dst += take;
      n -= take;
    }
  }

  /// Reads split at a segment boundary: each adds a piece.
  std::size_t straddles() const { return ref.size() - reads; }

  Bytes seg;
  PendingReads rec;
  std::vector<ReadPiece> ref;
  std::size_t reads = 0;
};

bool pieceLess(const ReadPiece& a, const ReadPiece& b) {
  return std::tie(a.off, a.len, a.dst) < std::tie(b.off, b.len, b.dst);
}

/// The pieces as a multiset: the record keeps pieces, not read order.
std::vector<ReadPiece> sorted(std::vector<ReadPiece> pieces) {
  std::sort(pieces.begin(), pieces.end(), pieceLess);
  return pieces;
}

std::vector<ReadPiece> walk(const PendingReads& rec) {
  std::vector<ReadPiece> out;
  rec.forEach([&](const ReadPiece& p) { out.push_back(p); });
  return sorted(std::move(out));
}

/// Whether no destination byte is the target of two pieces. Only then is
/// the destination image after a walk fixed: which of two overlapping
/// pending reads lands last is unspecified.
bool disjointDestinations(const Pool& pool,
                          const std::vector<ReadPiece>& pieces) {
  std::vector<bool> written(pool.size);
  for (const ReadPiece& p : pieces) {
    const auto at = static_cast<std::size_t>(p.dst - pool.bytes.get());
    for (std::size_t b = at; b < at + static_cast<std::size_t>(p.len); ++b) {
      if (written[b]) return false;
      written[b] = true;
    }
  }
  return true;
}

void land(const ReadPiece& p) {
  for (Bytes b = 0; b < p.len; ++b) p.dst[b] = fileByte(p.off + b);
}

/// Every byte a piece targets holds that piece's file byte.
void expectLanded(const std::vector<ReadPiece>& pieces) {
  for (const ReadPiece& p : pieces) {
    for (Bytes b = 0; b < p.len; ++b) {
      ASSERT_EQ(p.dst[b], fileByte(p.off + b))
          << "piece at file offset " << p.off << ", byte " << b;
    }
  }
}

// -- Pattern generators ------------------------------------------------------

/// The Fig. 5 read: `arrays` arrays of the given element sizes, element i of
/// every array of `rank` packed into one block, blocks round-robin over P.
void interleavedArrays(Recording& r, const Pool& pool, std::size_t pool_off,
                       const std::vector<Bytes>& elem, int P, int rank,
                       std::int64_t len) {
  Bytes block = 0;
  for (Bytes e : elem) block += e;
  std::size_t base = pool_off;
  std::vector<std::size_t> array_at;
  for (Bytes e : elem) {
    array_at.push_back(base);
    base += static_cast<std::size_t>(e * len) + 8;  // arrays apart
  }
  for (std::int64_t i = 0; i < len; ++i) {
    Offset off = (i * P + rank) * block;
    for (std::size_t j = 0; j < elem.size(); ++j) {
      r.read(off, pool.at(static_cast<std::int64_t>(array_at[j]) + i * elem[j]),
             elem[j]);
      off += elem[j];
    }
  }
}

/// One read per element of each of `streams` arrays, round-robin, array j
/// holding (j + 1)-byte elements; the arrays are separate heap objects, so
/// their destinations share no stride.
void manyStreams(Recording& r, std::vector<std::vector<std::byte>>& arrays,
                 int streams, std::int64_t len, Offset file_off) {
  arrays.clear();
  Bytes block = 0;
  for (int j = 0; j < streams; ++j) {
    arrays.emplace_back(static_cast<std::size_t>(len * (j + 1)));
    block += j + 1;
  }
  for (std::int64_t i = 0; i < len; ++i) {
    Offset off = file_off + i * block;
    for (int j = 0; j < streams; ++j) {
      r.read(off, arrays[static_cast<std::size_t>(j)].data() + i * (j + 1),
             j + 1);
      off += j + 1;
    }
  }
}

/// Random reads from one of several shapes, seeded.
void randomPattern(Recording& r, const Pool& pool, Bytes file_size,
                   std::mt19937_64& rng) {
  const auto pick = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const int phases = static_cast<int>(pick(2, 6));
  for (int ph = 0; ph < phases; ++ph) {
    const Bytes len = pick(1, 12);
    const std::int64_t n = pick(1, 60);
    const Offset stride = pick(-3 * r.seg, 3 * r.seg);
    const std::int64_t dstride = pick(-2 * len, 2 * len);
    // Start where every piece stays inside the file and the pool.
    const Offset span = std::abs(stride) * n + len;
    const std::int64_t dspan = std::abs(dstride) * n + len;
    if (span >= file_size || dspan >= pool.room()) {
      continue;
    }
    const Offset off0 = stride >= 0 ? pick(0, file_size - span)
                                    : pick(span, file_size - len);
    const std::int64_t d0 = dstride >= 0 ? pick(0, pool.room() - dspan)
                                         : pick(dspan, pool.room() - len);
    switch (pick(0, 3)) {
      case 0:  // a strided run (descending and negative strides included)
        for (std::int64_t i = 0; i < n; ++i) {
          r.read(off0 + i * stride, pool.at(d0 + i * dstride), len);
        }
        break;
      case 1:  // the same destination over and over (overlapping)
        for (std::int64_t i = 0; i < n; ++i) {
          r.read(off0 + i * stride, pool.at(d0), len);
        }
        break;
      case 2:  // segment-straddling reads of up to three segments
        for (std::int64_t i = 0; i < n / 8 + 1; ++i) {
          const Bytes big = pick(1, 3 * r.seg);
          if (big >= file_size || big >= pool.room()) break;
          r.read(pick(0, file_size - big), pool.at(pick(0, pool.room() - big)),
                 big);
        }
        break;
      default:  // no pattern at all
        for (std::int64_t i = 0; i < n; ++i) {
          const Bytes l = pick(1, 16);
          r.read(pick(0, file_size - l), pool.at(pick(0, pool.room() - l)), l);
        }
        break;
    }
  }
}

// -- Reference per-owner walks ------------------------------------------------

using Moved = std::vector<std::pair<SegmentId, Rank>>;

Rank refOwner(const Recording& r, int P, const Moved& moved, Offset off) {
  const SegmentId g = off / r.seg;
  for (const auto& [m, to] : moved) {
    if (m == g) return to;
  }
  return static_cast<Rank>(g % P);
}

/// Each owner's pieces, owners ascending, each owner's as a multiset.
std::vector<std::pair<Rank, ReadPiece>> refByOwner(const Recording& r, int P,
                                                   const Moved& moved) {
  std::vector<std::pair<Rank, ReadPiece>> out;
  const std::vector<ReadPiece> pieces = sorted(r.ref);
  for (Rank o = 0; o < P; ++o) {
    for (const ReadPiece& p : pieces) {
      if (refOwner(r, P, moved, p.off) == o) out.emplace_back(o, p);
    }
  }
  return out;
}

std::vector<std::pair<Rank, ReadPiece>> byOwner(const Recording& r, int P,
                                                const Moved& moved) {
  const SegmentMap map(r.seg, P);
  std::vector<std::pair<Rank, ReadPiece>> out;
  std::vector<ReadPiece> pieces;
  Rank ended = -1;
  r.rec.forEachByOwner(
      {map, moved}, [&](const ReadPiece& p) { pieces.push_back(p); },
      [&](Rank o) {
        EXPECT_GT(o, ended) << "owners must come in ascending order";
        EXPECT_FALSE(pieces.empty()) << "owner " << o << " ended empty";
        ended = o;
        for (const ReadPiece& p : sorted(pieces)) out.emplace_back(o, p);
        pieces.clear();
      });
  EXPECT_TRUE(pieces.empty()) << "pieces after the last owner's end";
  return out;
}

/// Moves a few seeded segments to other owners (a crash takeover overlay).
Moved randomMoved(std::mt19937_64& rng, std::int64_t total_segs, int P) {
  std::map<SegmentId, Rank> m;
  const int n = static_cast<int>(rng() % 6) + 1;
  for (int i = 0; i < n; ++i) {
    m[static_cast<SegmentId>(rng() % static_cast<std::uint64_t>(total_segs))] =
        static_cast<Rank>(rng() % static_cast<std::uint64_t>(P));
  }
  return {m.begin(), m.end()};
}

/// Both walks visit exactly the recorded pieces, each once; the per-owner
/// walk gives each owner exactly the pieces in its segments. Where the
/// destinations are disjoint, landing either walk's pieces fills every
/// destination byte with its file byte.
void checkAll(const Recording& r, const Pool& pool, int P,
              std::mt19937_64& rng) {
  const std::vector<ReadPiece> ref = sorted(r.ref);
  ASSERT_EQ(walk(r.rec), ref);
  std::int64_t total_segs = 1;
  for (const ReadPiece& p : r.ref) {
    total_segs = std::max<std::int64_t>(total_segs, p.off / r.seg + 1);
  }
  for (const Moved& moved : {Moved{}, randomMoved(rng, total_segs, P)}) {
    EXPECT_EQ(byOwner(r, P, moved), refByOwner(r, P, moved));
  }
  if (!disjointDestinations(pool, r.ref)) return;
  r.rec.forEach(land);
  expectLanded(r.ref);
  const SegmentMap map(r.seg, P);
  r.rec.forEachByOwner({map, {}}, land, [](Rank) {});
  expectLanded(r.ref);
}

// -- Tests --------------------------------------------------------------------

TEST(PendingReadsTest, EmptyRecordWalksNothing) {
  const PendingReads rec;
  EXPECT_TRUE(rec.empty());
  EXPECT_TRUE(walk(rec).empty());
  const SegmentMap map(64, 4);
  int calls = 0;
  rec.forEachByOwner(
      {map, {}}, [&](const ReadPiece&) { ++calls; }, [&](Rank) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(PendingReadsTest, WithinMatchesBruteForce) {
  std::mt19937_64 rng(3);
  for (int t = 0; t < 2000; ++t) {
    ReadRun run;
    run.off = static_cast<Offset>(rng() % 100000) + 50000;
    run.len = 1;
    run.count = static_cast<std::uint32_t>(rng() % 40) + 1;
    run.off_stride =
        run.count == 1 ? 0 : static_cast<std::int32_t>(rng() % 2001) - 1000;
    const Offset begin = run.off + static_cast<Offset>(rng() % 40001) - 20000;
    const Offset end = begin + static_cast<Offset>(rng() % 3000) + 1;
    const auto [lo, hi] = run.within(begin, end);
    std::vector<std::uint32_t> in;
    for (std::uint32_t i = 0; i < run.count; ++i) {
      const Offset o = run.piece(i).off;
      if (o >= begin && o < end) in.push_back(i);
    }
    if (in.empty()) {
      EXPECT_EQ(lo, hi);
    } else {
      EXPECT_EQ(lo, in.front());
      EXPECT_EQ(hi, in.back() + 1);
      EXPECT_EQ(hi - lo, in.size());
    }
  }
}

TEST(PendingReadsTest, InterleavedArraysAreOneRunPerArray) {
  // Fig. 5's pattern with segments that hold whole blocks: no read
  // straddles a segment, and each array's reads form one run however many
  // segments (and ranks) they cross.
  for (const int P : {8, 32, 128}) {
    Pool pool(64 * 12 + 64);
    Recording r(/*segment=*/12 * 4);
    interleavedArrays(r, pool, 0, {4, 8}, P, P / 2, 64);
    EXPECT_EQ(r.rec.runs().size(), 2u) << "P=" << P;
    std::mt19937_64 rng(static_cast<std::uint64_t>(P));
    checkAll(r, pool, P, rng);
  }
}

TEST(PendingReadsTest, InterleavedArraysWithStraddlingReads) {
  // A 1000-byte segment splits some 8-byte elements in two. Each split adds
  // one run for the two halves and restarts the 8-byte array's run; every
  // second split also pushes the 4-byte array's run out of the lookback. A
  // run-free recording would cost one entry per piece.
  std::mt19937_64 rng(11);
  std::size_t straddles = 0;
  for (const int P : {8, 32}) {
    for (int rank = 0; rank < P; rank += 5) {
      Pool pool(2 * 12 * 256 + 64);
      Recording r(/*segment=*/1000);
      interleavedArrays(r, pool, 0, {4, 8}, P, rank, 256);
      straddles += r.straddles();
      EXPECT_LE(r.rec.runs().size(), 2 + (5 * r.straddles() + 1) / 2)
          << "P=" << P << " rank=" << rank;
      checkAll(r, pool, P, rng);
    }
  }
  EXPECT_GT(straddles, 0u);
}

TEST(PendingReadsTest, MoreStreamsThanTheLookbackHolds) {
  for (const int streams : {3, 4, 5, 7, 12}) {
    Recording r(/*segment=*/256);
    std::vector<std::vector<std::byte>> arrays;
    manyStreams(r, arrays, streams, 50, 40);
    EXPECT_EQ(walk(r.rec), sorted(r.ref)) << streams << " streams";
    EXPECT_LE(r.rec.runs().size(), r.ref.size());
    if (streams <= static_cast<int>(PendingReads::kLookback)) {
      // Each stream keeps extending its own run within the lookback. A
      // straddling read adds up to two runs and may push every stream's run
      // out of the lookback once.
      EXPECT_LE(r.rec.runs().size(),
                streams + (streams + 2) * r.straddles());
    }
    EXPECT_EQ(byOwner(r, 4, {}), refByOwner(r, 4, {}));
  }
}

TEST(PendingReadsTest, DescendingOffsetsAndNegativeDestinationStrides) {
  Pool pool(4096);
  Recording r(/*segment=*/100);
  for (int i = 99; i >= 0; --i) {  // descending file offsets
    r.read(i * 24, pool.at((99 - i) * 8), 8);
  }
  for (int i = 0; i < 100; ++i) {  // descending destinations
    r.read(3000 + i * 16, pool.at(4000 - i * 12), 4);
  }
  EXPECT_LE(r.rec.runs().size(), 2 + 3 * r.straddles());
  std::mt19937_64 rng(5);
  checkAll(r, pool, 6, rng);
}

TEST(PendingReadsTest, OverlappingDestinationsLandOneWholeRead) {
  // Every read lands on the same 8 bytes. Which one lands last is
  // unspecified, but the reads stay one run, each is visited once, and the
  // bytes end up holding one whole recorded read.
  Pool pool(64);
  Recording r(/*segment=*/64);
  for (int i = 0; i < 40; ++i) r.read(i * 8, pool.at(16), 8);
  EXPECT_EQ(r.rec.runs().size(), 1u);
  std::mt19937_64 rng(9);
  checkAll(r, pool, 3, rng);
  const SegmentMap map(r.seg, 3);
  r.rec.forEachByOwner({map, {}}, land, [](Rank) {});
  EXPECT_TRUE(std::any_of(r.ref.begin(), r.ref.end(), [&](const ReadPiece& p) {
    for (Bytes b = 0; b < 8; ++b) {
      if (*pool.at(16 + b) != fileByte(p.off + b)) return false;
    }
    return true;
  }));
}

TEST(PendingReadsTest, RandomPatternsVisitEveryPieceOnce) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed);
    const Bytes seg = std::vector<Bytes>{16, 64, 100, 256, 4096}[seed % 5];
    const int P = static_cast<int>(rng() % 9) + 1;
    const Bytes file_size = seg * P * (static_cast<Bytes>(rng() % 6) + 1) + 64;
    Pool pool(8192);
    Recording r(seg);
    randomPattern(r, pool, file_size, rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    checkAll(r, pool, P, rng);
  }
}

TEST(PendingReadsTest, WorstFig5RankRecordsFewRuns) {
  // The rank of the Fig. 5 bench at P=128 (len 4,096, 16 KiB segments) whose
  // record is longest: every third segment boundary splits one of its 8-byte
  // elements in two, 128 splits in all. Each costs 2 or 3 runs, as in
  // InterleavedArraysWithStraddlingReads: 2 + (5 * 128 + 1) / 2.
  constexpr int kP = 128;
  constexpr std::int64_t kLen = 4096;
  Pool pool(static_cast<std::size_t>(12 * kLen + 64));
  Recording r(/*segment=*/16384);
  interleavedArrays(r, pool, 0, {4, 8}, kP, /*rank=*/42, kLen);
  EXPECT_EQ(r.straddles(), 128u);
  EXPECT_EQ(r.rec.runs().size(), 322u);
  EXPECT_EQ(walk(r.rec), sorted(r.ref));
}

TEST(PendingReadsTest, ClearStartsAFreshRecord) {
  Pool pool(256);
  Recording r(/*segment=*/64);
  for (int i = 0; i < 10; ++i) r.read(i * 4, pool.at(i * 4), 4);
  r.rec.clear();
  r.ref.clear();
  EXPECT_TRUE(r.rec.empty());
  for (int i = 0; i < 10; ++i) r.read(100 + i * 8, pool.at(128 + i * 4), 4);
  EXPECT_EQ(walk(r.rec), sorted(r.ref));
  ASSERT_EQ(r.rec.runs().size(), 1u);
  EXPECT_EQ(r.rec.runs().front().off, 100);
}

}  // namespace
}  // namespace tcio::core
