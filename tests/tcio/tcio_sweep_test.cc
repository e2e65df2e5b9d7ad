// Parameterized property sweep: TCIO must produce byte-identical files to a
// sequential reference model across process counts, segment sizes, exchange
// modes (one-sided / two-sided / node-aggregated), read laziness, and access
// patterns, and read them back both in slices and one read per write.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio::core {
namespace {

enum class Pattern { kInterleaved, kBlocks, kRandomDisjoint, kStrided };

struct SweepParam {
  int procs;
  Bytes segment;
  bool onesided;
  Pattern pattern;
  bool lazy = true;
  bool node_agg = false;
};

std::string paramName(const ::testing::TestParamInfo<SweepParam>& info) {
  const char* pat = "";
  switch (info.param.pattern) {
    case Pattern::kInterleaved: pat = "interleaved"; break;
    case Pattern::kBlocks: pat = "blocks"; break;
    case Pattern::kRandomDisjoint: pat = "random"; break;
    case Pattern::kStrided: pat = "strided"; break;
  }
  // Built with append(): GCC 12 at -O3 reports a false -Werror=restrict on
  // the equivalent chain of operator+ temporaries.
  std::string name = "P";
  name.append(std::to_string(info.param.procs))
      .append("_seg")
      .append(std::to_string(info.param.segment))
      .append(info.param.onesided ? "_1s" : "_2s")
      .append("_")
      .append(pat)
      .append(info.param.lazy ? "" : "_eager")
      .append(info.param.node_agg ? "_nodeagg" : "");
  return name;
}

// gtest_discover_tests folds the printed parameter into the ctest name, so
// print the case name rather than the struct's bytes.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << paramName({p, 0});
}

/// One write operation: (absolute offset, length, owning rank).
struct Op {
  Offset off;
  Bytes len;
  int rank;
};

std::vector<Op> makeOps(const SweepParam& p, Bytes total) {
  std::vector<Op> ops;
  switch (p.pattern) {
    case Pattern::kInterleaved: {
      const Bytes block = 24;
      for (Offset cur = 0; cur + block <= total; cur += block) {
        ops.push_back({cur, block,
                       static_cast<int>((cur / block) % p.procs)});
      }
      break;
    }
    case Pattern::kBlocks: {
      const Bytes per = total / p.procs;
      for (int r = 0; r < p.procs; ++r) {
        ops.push_back({r * per, per, r});
      }
      break;
    }
    case Pattern::kRandomDisjoint: {
      Rng rng(2024);
      Offset cur = 0;
      while (cur < total) {
        const Bytes len = std::min<Bytes>(1 + rng.uniformInt(0, 500),
                                          total - cur);
        ops.push_back({cur, len,
                       static_cast<int>(rng.uniformInt(0, p.procs - 1))});
        cur += len;
      }
      break;
    }
    case Pattern::kStrided: {
      const Bytes piece = 16;
      const Bytes stride = piece * p.procs;
      for (int r = 0; r < p.procs; ++r) {
        for (Offset cur = r * piece; cur + piece <= total; cur += stride) {
          ops.push_back({cur, piece, r});
        }
      }
      break;
    }
  }
  return ops;
}

std::byte expected(Offset off, int rank) {
  return static_cast<std::byte>((rank * 97 + off * 3) % 251);
}

class TcioSweepTest : public ::testing::TestWithParam<SweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, TcioSweepTest,
    ::testing::Values(
        SweepParam{2, 256, true, Pattern::kInterleaved},
        SweepParam{4, 256, true, Pattern::kInterleaved},
        SweepParam{16, 512, true, Pattern::kInterleaved},
        SweepParam{4, 128, true, Pattern::kBlocks},
        SweepParam{8, 1024, true, Pattern::kBlocks},
        SweepParam{4, 256, true, Pattern::kRandomDisjoint},
        SweepParam{8, 512, true, Pattern::kRandomDisjoint},
        SweepParam{3, 333, true, Pattern::kRandomDisjoint},  // odd sizes
        SweepParam{4, 256, true, Pattern::kStrided},
        SweepParam{16, 256, true, Pattern::kStrided},
        SweepParam{4, 256, false, Pattern::kInterleaved},
        SweepParam{8, 512, false, Pattern::kRandomDisjoint},
        SweepParam{16, 256, false, Pattern::kStrided},
        // Eager-read ablation (requires one-sided independent fetch).
        SweepParam{4, 256, true, Pattern::kInterleaved, /*lazy=*/false},
        SweepParam{8, 512, true, Pattern::kBlocks, /*lazy=*/false},
        // Node aggregation (one-sided + lazy; 4 ranks/node in this sweep).
        SweepParam{8, 256, true, Pattern::kInterleaved, true, /*agg=*/true},
        SweepParam{8, 256, true, Pattern::kStrided, true, /*agg=*/true},
        SweepParam{16, 512, true, Pattern::kInterleaved, true, /*agg=*/true},
        SweepParam{6, 333, true, Pattern::kRandomDisjoint, true, /*agg=*/true},
        SweepParam{4, 128, true, Pattern::kBlocks, true, /*agg=*/true}),
    paramName);

TEST_P(TcioSweepTest, FileMatchesReferenceAndReadsBack) {
  const SweepParam p = GetParam();
  const Bytes total = 16 * 1024;
  const auto ops = makeOps(p, total);

  // Reference model.
  std::vector<std::byte> reference(static_cast<std::size_t>(total),
                                   std::byte{0});
  Bytes written_max = 0;
  for (const Op& op : ops) {
    for (Bytes i = 0; i < op.len; ++i) {
      reference[static_cast<std::size_t>(op.off + i)] =
          expected(op.off + i, op.rank);
    }
    written_max = std::max(written_max, op.off + op.len);
  }

  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = 2048;
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig jc;
  jc.num_ranks = p.procs;
  jc.net.ranks_per_node = 4;  // multi-node topology for the node-agg rows
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    TcioConfig cfg;
    cfg.segment_size = p.segment;
    cfg.segments_per_rank =
        (total + p.segment * p.procs - 1) / (p.segment * p.procs) + 1;
    cfg.use_onesided = p.onesided;
    cfg.lazy_reads = p.lazy;
    cfg.node_aggregation = p.node_agg;
    {
      File f(comm, fsys, "sweep.dat", fs::kWrite | fs::kCreate, cfg);
      std::vector<std::byte> buf;
      for (const Op& op : ops) {
        if (op.rank != comm.rank()) continue;
        buf.resize(static_cast<std::size_t>(op.len));
        for (Bytes i = 0; i < op.len; ++i) {
          buf[static_cast<std::size_t>(i)] = expected(op.off + i, op.rank);
        }
        f.writeAt(op.off, buf.data(), op.len);
      }
      f.close();
    }
    // Read everything back (each rank a different slice).
    {
      File f(comm, fsys, "sweep.dat", fs::kRead, cfg);
      const Bytes per = written_max / comm.size();
      const Offset my_begin = comm.rank() * per;
      const Bytes my_len =
          comm.rank() == comm.size() - 1 ? written_max - my_begin : per;
      std::vector<std::byte> got(static_cast<std::size_t>(my_len));
      if (my_len > 0) f.readAt(my_begin, got.data(), my_len);
      f.fetch();
      for (Bytes i = 0; i < my_len; ++i) {
        ASSERT_EQ(got[static_cast<std::size_t>(i)],
                  reference[static_cast<std::size_t>(my_begin + i)])
            << "read-back mismatch at " << my_begin + i;
      }
      f.close();
    }
    // Read it back again, one readAt per op, packed in op order: per-datum
    // records that stride and straddle segments, on every fetch path.
    {
      File f(comm, fsys, "sweep.dat", fs::kRead, cfg);
      Bytes packed = 0;
      for (const Op& op : ops) packed += op.len;
      std::vector<std::byte> got(static_cast<std::size_t>(packed));
      Bytes at = 0;
      for (const Op& op : ops) {
        f.readAt(op.off, got.data() + at, op.len);
        at += op.len;
      }
      f.fetch();
      at = 0;
      for (const Op& op : ops) {
        for (Bytes i = 0; i < op.len; ++i) {
          ASSERT_EQ(got[static_cast<std::size_t>(at + i)],
                    reference[static_cast<std::size_t>(op.off + i)])
              << "per-op read-back mismatch at " << op.off + i;
        }
        at += op.len;
      }
      f.close();
    }
  });

  ASSERT_EQ(fsys.peekSize("sweep.dat"), written_max);
  std::vector<std::byte> contents(static_cast<std::size_t>(written_max));
  fsys.peek("sweep.dat", 0, contents);
  for (Offset i = 0; i < written_max; ++i) {
    ASSERT_EQ(contents[static_cast<std::size_t>(i)],
              reference[static_cast<std::size_t>(i)])
        << "file mismatch at " << i;
  }
  // Whole-file checksum: byte-identical regardless of exchange mode.
  ASSERT_EQ(crc32(contents),
            crc32(std::span<const std::byte>(reference.data(),
                                             static_cast<std::size_t>(
                                                 written_max))));
}

}  // namespace
}  // namespace tcio::core
