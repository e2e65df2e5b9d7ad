// Ablation (paper §IV.A): lazy read materialization (record, then one
// collective fetch) vs eager per-call materialization.
//
// Eager reads pay a full independent one-sided epoch per read call; lazy
// reads batch everything into one coalesced get per owner at fetch() —
// "instead of using a preloading technique, TCIO uses a lazy-loading
// strategy for read operations".
//
// Acceptance (a CI gate: exits 1 on FAIL): lazy reads beat eager ones at
// every P, and every rank's read-back bytes verify in both modes.
#include <cstdio>
#include <exception>
#include <iostream>

#include "bench/bench_common.h"
#include "workload/synthetic.h"

int main() {
  using namespace tcio;
  using namespace tcio::bench;

  printHeader("Ablation: lazy vs eager TCIO reads",
              "lazy fetch batches one-sided gets and wins decisively");

  Table t("ablation.lazy_read");
  t.header({"procs", "lazy MB/s", "eager MB/s", "lazy/eager"});
  bool lazy_wins = true;
  bool verified = true;
  for (int P : {16, 64}) {
    double mbps[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      fs::Filesystem fsys(paperFs());
      try {
        mpi::runJob(paperJob(P), [&](mpi::Comm& comm) {
          workload::BenchmarkConfig cfg;
          cfg.method = workload::Method::kTcio;
          cfg.array_elem_sizes = {4, 8};
          cfg.len_array = 1024;  // eager is slow; keep the point small
          cfg.tcio = paperTcio();
          cfg.tcio.lazy_reads = (mode == 0);
          workload::runWritePhase(comm, fsys, cfg);
          // Checks every byte read back against the written arrays.
          const auto r = workload::runReadPhase(comm, fsys, cfg);
          if (comm.rank() == 0) mbps[mode] = r.throughput_mbps;
        });
      } catch (const std::exception& e) {
        std::fprintf(stderr, "P=%d %s: %s\n", P, mode == 0 ? "lazy" : "eager",
                     e.what());
        verified = false;
      }
    }
    lazy_wins = lazy_wins && mbps[0] > mbps[1];
    t.row({std::to_string(P), formatDouble(mbps[0], 1),
           formatDouble(mbps[1], 1),
           formatDouble(mbps[0] / mbps[1], 1) + "x"});
  }
  t.print(std::cout);
  const bool pass = lazy_wins && verified;
  std::printf(
      "acceptance (lazy beats eager at every P, read bytes verify): %s\n",
      pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
