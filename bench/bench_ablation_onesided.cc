// Ablation (paper §IV.A): one-sided lock/put/unlock exchange vs a two-sided
// collective (alltoallv) exchange under the same TCIO API.
//
// The paper argues one-sided communication is essential: it removes the
// matching-pair requirement (processes issue different numbers of I/O calls)
// and avoids the synchronized exchange burst. The two-sided variant must
// also stage every write locally until the next collective flush — extra
// memory the one-sided design never needs.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "workload/synthetic.h"

int main() {
  using namespace tcio;
  using namespace tcio::bench;

  printHeader("Ablation: one-sided vs two-sided level-2 exchange",
              "one-sided wins at scale (no synchronized burst) and uses "
              "less memory (no staging)");

  // Each point runs over repeats() seeds (TCIO_BENCH_REPEATS), each seed
  // re-rolling the production-mode noise, and reports the median.
  std::printf("median over %d seed(s) per point\n", repeats());
  Table t("ablation.onesided");
  t.header({"procs", "one-sided MB/s", "two-sided MB/s", "one-sided peak mem",
            "two-sided peak mem"});
  for (int P : {16, 64, 256}) {
    std::vector<double> mbps[2], peak[2];
    for (int rep = 0; rep < repeats(); ++rep) {
      for (int mode = 0; mode < 2; ++mode) {
        fs::Filesystem fsys(paperFs());
        mpi::JobConfig job =
            paperJob(P, static_cast<std::uint64_t>(rep) + 1);
        job.memory_budget_per_rank = 0;
        mpi::runJob(job, [&](mpi::Comm& comm) {
          workload::BenchmarkConfig cfg;
          cfg.method = workload::Method::kTcio;
          cfg.array_elem_sizes = {4, 8};
          cfg.len_array = 4096;
          cfg.tcio = paperTcio();
          cfg.tcio.use_onesided = (mode == 0);
          const auto r = workload::runWritePhase(comm, fsys, cfg);
          if (comm.rank() == 0) {
            mbps[mode].push_back(r.throughput_mbps);
            peak[mode].push_back(static_cast<double>(comm.memory().peak()));
          }
        });
      }
    }
    t.row({std::to_string(P), formatDouble(median(mbps[0]), 1),
           formatDouble(median(mbps[1]), 1),
           formatBytes(static_cast<Bytes>(median(peak[0]))),
           formatBytes(static_cast<Bytes>(median(peak[1])))});
  }
  t.print(std::cout);
  return 0;
}
