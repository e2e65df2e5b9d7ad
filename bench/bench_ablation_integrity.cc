// Ablation: end-to-end integrity (checksum domains + verified hops +
// close-time scrub) vs checksums off, on the Fig. 5 interleaved pattern.
//
// Every hop digest is priced at hardware-folded CRC32 speed
// (core::kChecksumBandwidth, 50 GB/s), so the protection tax
// must stay in the noise next to disk and NIC time: the acceptance gate is
// <= 5% virtual-time overhead on both the write and the read phase, in the
// per-rank shuffle and the node-aggregated exchange alike.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "workload/synthetic.h"

namespace tcio::bench {
namespace {

struct Sample {
  SimTime write_s = 0;
  SimTime read_s = 0;
};

Sample measure(int P, bool node_agg, bool integrity) {
  fs::FsConfig fcfg = paperFs();
  fcfg.integrity = integrity ? 1 : -1;
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig job = paperJob(P);
  job.net.ranks_per_node = 12;
  Sample s;
  mpi::runJob(job, [&](mpi::Comm& comm) {
    workload::BenchmarkConfig cfg;
    cfg.method = workload::Method::kTcio;
    cfg.array_elem_sizes = {4, 8};  // Table II: i,d
    cfg.len_array = 4096;
    cfg.size_access = 1;
    cfg.tcio = paperTcio();
    cfg.tcio.node_aggregation = node_agg;
    cfg.tcio.integrity.enabled = integrity ? 1 : -1;
    const auto w = workload::runWritePhase(comm, fsys, cfg);
    const auto r = workload::runReadPhase(comm, fsys, cfg);
    if (comm.rank() == 0) {
      s.write_s = w.seconds;
      s.read_s = r.seconds;
    }
  });
  return s;
}

double pct(SimTime with, SimTime without) {
  return (with / without - 1.0) * 100.0;
}

}  // namespace
}  // namespace tcio::bench

int main() {
  using namespace tcio;
  using namespace tcio::bench;

  printHeader("Ablation: end-to-end integrity overhead",
              "per-extent CRCs verified at every domain crossing plus the "
              "close-time scrub cost <= 5% of phase time: checksums run at "
              "memory speed while the phases are disk- and NIC-bound");

  const int P = 48;
  Table t("ablation.integrity");
  t.header({"mode", "write off (s)", "write on (s)", "write ovh %",
            "read off (s)", "read on (s)", "read ovh %"});
  double worst = 0.0;
  for (const bool node_agg : {false, true}) {
    const Sample off = measure(P, node_agg, /*integrity=*/false);
    const Sample on = measure(P, node_agg, /*integrity=*/true);
    const double w_ovh = pct(on.write_s, off.write_s);
    const double r_ovh = pct(on.read_s, off.read_s);
    worst = std::max({worst, w_ovh, r_ovh});
    t.row({node_agg ? "node-agg" : "per-rank", formatDouble(off.write_s, 4),
           formatDouble(on.write_s, 4), formatDouble(w_ovh, 2),
           formatDouble(off.read_s, 4), formatDouble(on.read_s, 4),
           formatDouble(r_ovh, 2)});
  }
  t.print(std::cout);
  std::printf("acceptance (integrity overhead <= 5%% on every phase): %s "
              "(worst %.2f%%)\n",
              worst <= 5.0 ? "PASS" : "FAIL", worst);
  return worst <= 5.0 ? 0 : 1;
}
