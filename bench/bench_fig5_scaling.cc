// Figure 5: synthetic-benchmark write and read throughput vs process count,
// TCIO vs OCIO (Table II configuration, geometrically scaled — see
// bench_common.h).
//
// Paper shapes to reproduce:
//   * write (left):  OCIO ahead at P <= 256, TCIO ahead at P >= 512, with
//     OCIO degrading beyond its peak;
//   * read (right):  TCIO ahead everywhere, gap widening with P.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "workload/synthetic.h"

namespace tcio::bench {
namespace {

// Table II: NUMarray=2, TYPEarray=i,d, LENarray=4M (scaled), SIZEaccess=1.
workload::BenchmarkConfig tableII(workload::Method m) {
  workload::BenchmarkConfig c;
  c.method = m;
  c.array_elem_sizes = {4, 8};
  // Paper: 4 Mi elements/array. Beyond the global 1/kScale (which gives
  // 64 Ki elements, 48 segments of 16 KiB per rank), Fig. 5 shrinks per-rank
  // data 16x further (to 4 Ki elements) to keep the discrete-event count
  // tractable at P=1024. That leaves 3 segments per rank instead of 48; the
  // every-rank-touches-every-segment structure is preserved.
  c.len_array = 4096;
  c.size_access = 1;
  c.tcio = paperTcio();
  return c;
}

struct Point {
  double write_mbps = 0;
  double read_mbps = 0;
};

Point measure(workload::Method m, int P) {
  RunningStats wr, rd;
  for (int rep = 0; rep < repeats(); ++rep) {
    fs::Filesystem fsys(paperFs());
    double w = 0, r = 0;
    mpi::runJob(paperJob(P, static_cast<std::uint64_t>(rep) + 1),
                [&](mpi::Comm& comm) {
                  const auto cfg = tableII(m);
                  const auto wres = workload::runWritePhase(comm, fsys, cfg);
                  const auto rres = workload::runReadPhase(comm, fsys, cfg);
                  if (comm.rank() == 0) {
                    w = wres.throughput_mbps;
                    r = rres.throughput_mbps;
                  }
                });
    wr.add(w);
    rd.add(r);
  }
  return {wr.mean(), rd.mean()};
}

}  // namespace
}  // namespace tcio::bench

int main() {
  using namespace tcio;
  using namespace tcio::bench;

  printHeader("Figure 5: synthetic benchmark throughput vs process count",
              "write: OCIO ahead at small P, TCIO ahead at P>=512; "
              "read: TCIO ahead everywhere, gap widening");

  Table w("fig5.write"), r("fig5.read");
  w.header({"procs", "TCIO MB/s", "OCIO MB/s"});
  r.header({"procs", "TCIO MB/s", "OCIO MB/s"});
  for (int P : processLadder()) {
    const Point tcio_pt = measure(workload::Method::kTcio, P);
    const Point ocio_pt = measure(workload::Method::kOcio, P);
    w.row({std::to_string(P), formatDouble(tcio_pt.write_mbps, 1),
           formatDouble(ocio_pt.write_mbps, 1)});
    r.row({std::to_string(P), formatDouble(tcio_pt.read_mbps, 1),
           formatDouble(ocio_pt.read_mbps, 1)});
    std::printf("  P=%d done\n", P);
    std::fflush(stdout);
  }
  w.print(std::cout);
  r.print(std::cout);
  return 0;
}
