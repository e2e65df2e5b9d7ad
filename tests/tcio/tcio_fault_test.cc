// Failure injection: a file-system write fault during tcio_close must
// surface as a clean FsError on EVERY rank — no deadlock, and no rank
// returning success while the file is damaged.
#include <gtest/gtest.h>

#include <vector>

#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio::core {
namespace {

void runFaultedClose(TcioConfig cfg, int ranks_per_node) {
  fs::FsConfig fcfg;
  fcfg.num_osts = 2;
  fcfg.stripe_size = 1024;
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig jc;
  jc.num_ranks = 4;
  jc.net.ranks_per_node = ranks_per_node;
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    File f(comm, fsys, "fault.dat", fs::kWrite | fs::kCreate, cfg);
    std::vector<std::byte> buf(static_cast<std::size_t>(cfg.segment_size),
                               std::byte{0x5a});
    f.writeAt(comm.rank() * cfg.segment_size, buf.data(), cfg.segment_size);
    if (comm.rank() == 0) {
      FaultConfig one_shot;
      one_shot.fail_write_call = 0;  // the next FS write call fails
      fsys.installFaultPlan(one_shot);
    }
    comm.barrier();
    bool caught = false;
    try {
      f.close();
    } catch (const FsError&) {
      caught = true;
    }
    EXPECT_TRUE(caught) << "rank " << comm.rank()
                        << " missed the injected fault";
    EXPECT_FALSE(f.isOpen());
    // Collective agreement: every rank (not just the one whose pwrite blew
    // up) must have observed the failure.
    std::uint8_t all = caught ? 1 : 0;
    comm.allreduce(&all, 1, mpi::ReduceOp::kMin);
    EXPECT_EQ(all, 1);
  });
}

TEST(TcioFaultTest, CloseFaultSurfacesOnEveryRank) {
  TcioConfig cfg;
  cfg.segment_size = 512;
  cfg.segments_per_rank = 2;
  runFaultedClose(cfg, /*ranks_per_node=*/12);
}

TEST(TcioFaultTest, CloseFaultSurfacesUnderNodeAggregation) {
  TcioConfig cfg;
  cfg.segment_size = 512;
  cfg.segments_per_rank = 2;
  cfg.node_aggregation = true;
  runFaultedClose(cfg, /*ranks_per_node=*/2);
}

TEST(TcioFaultTest, CloseFaultSurfacesInTwoSidedMode) {
  TcioConfig cfg;
  cfg.segment_size = 512;
  cfg.segments_per_rank = 2;
  cfg.use_onesided = false;
  runFaultedClose(cfg, /*ranks_per_node=*/12);
}

}  // namespace
}  // namespace tcio::core
