// Microbenchmarks (google-benchmark) of the simulated MPI substrate:
// reports *simulated* cost of the primitives the TCIO design arguments rest
// on (lock RTTs, collective scaling, message overheads), plus the real
// wall-time cost of the discrete-event engine and of the host-side extent
// kernels the collective I/O paths run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "mpi/mpi.h"

namespace tcio::bench {
namespace {

/// Simulated seconds of a barrier at P ranks (virtual time, reported as a
/// counter; wall time measures the engine).
void BM_BarrierVirtualCost(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  SimTime virtual_cost = 0;
  for (auto _ : state) {
    mpi::JobConfig job = paperJob(P);
    SimTime t = 0;
    mpi::runJob(job, [&](mpi::Comm& comm) {
      comm.barrier();
      if (comm.rank() == 0) t = comm.proc().now();
    });
    virtual_cost = t;
  }
  state.counters["virtual_us"] = virtual_cost * 1e6;
}
BENCHMARK(BM_BarrierVirtualCost)->Arg(16)->Arg(64)->Arg(256);

void BM_LockUnlockRoundTrip(benchmark::State& state) {
  SimTime virtual_cost = 0;
  for (auto _ : state) {
    mpi::JobConfig job = paperJob(2);
    SimTime t = 0;
    mpi::runJob(job, [&](mpi::Comm& comm) {
      mpi::Window win = mpi::Window::create(comm, 64);
      if (comm.rank() == 0) {
        const SimTime t0 = comm.proc().now();
        for (int i = 0; i < 100; ++i) {
          win.lock(mpi::LockType::kShared, 1);
          win.unlock(1);
        }
        t = (comm.proc().now() - t0) / 100;
      }
    });
    virtual_cost = t;
  }
  state.counters["virtual_us_per_epoch"] = virtual_cost * 1e6;
}
BENCHMARK(BM_LockUnlockRoundTrip);

void BM_PutIndexedCoalescing(benchmark::State& state) {
  const int blocks = static_cast<int>(state.range(0));
  SimTime virtual_cost = 0;
  for (auto _ : state) {
    mpi::JobConfig job = paperJob(2);
    SimTime t = 0;
    mpi::runJob(job, [&](mpi::Comm& comm) {
      mpi::Window win = mpi::Window::create(comm, 1 << 16);
      if (comm.rank() == 0) {
        std::vector<std::byte> data(1 << 16, std::byte{1});
        std::vector<mpi::Window::PutBlock> pb;
        for (int i = 0; i < blocks; ++i) {
          pb.push_back({i * 128, data.data() + i * 128, 64});
        }
        const SimTime t0 = comm.proc().now();
        win.lock(mpi::LockType::kShared, 1);
        win.putIndexed(1, pb);
        win.unlock(1);
        t = comm.proc().now() - t0;
      }
    });
    virtual_cost = t;
  }
  state.counters["virtual_us"] = virtual_cost * 1e6;
}
BENCHMARK(BM_PutIndexedCoalescing)->Arg(1)->Arg(16)->Arg(256);

/// Wall time of a P=96 job that creates one window of `range(0)` bytes per
/// rank and frees it untouched. Host memory is allocated on first touch, so
/// the cost must stay flat as the window grows; `host_bytes` counts the
/// host memory live across all windows before the free.
void BM_WindowCreateFree(benchmark::State& state) {
  const Bytes size = state.range(0);
  Bytes host = 0;
  for (auto _ : state) {
    mpi::runJob(paperJob(96), [&](mpi::Comm& comm, mpi::World& world) {
      mpi::Window win = mpi::Window::create(comm, size);
      comm.barrier();
      if (comm.rank() == 0) {
        host = comm.proc().atomic([&] { return world.windowHostBytes(); });
      }
      comm.memory().release(win.localSize());
    });
  }
  state.counters["host_bytes"] = static_cast<double>(host);
}
BENCHMARK(BM_WindowCreateFree)
    ->Arg(64 << 10)
    ->Arg(1600 << 10)
    ->Arg(16 << 20)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Raw engine throughput: wall time per simulation event.
void BM_EngineEventThroughput(benchmark::State& state) {
  const int P = static_cast<int>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::Engine::Config cfg;
    cfg.num_ranks = P;
    sim::Engine eng(cfg);
    eng.run([](sim::Proc& p) {
      for (int i = 0; i < 2000; ++i) {
        p.advance(1e-6);
        p.atomic([] {});
      }
    });
    events += eng.eventCount();
  }
  state.SetItemsProcessed(events);
}
// Real time: the whole simulation runs on the calling thread, so CPU time
// would not count the wall clock that events/s is meant to divide by.
// P=256 is the rank count of the perfbench delegate_churn workload.
BENCHMARK(BM_EngineEventThroughput)
    ->Arg(4)
    ->Arg(64)
    ->Arg(256)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Host wall time of one size-then-payload exchange at P ranks: each rank
/// packs 32 16-byte records for every rank, itself included, and runs
/// mpi::sizedAlltoallv. The clock runs from the first rank starting to
/// pack to the last rank holding its receive, so job start-up and the
/// aligning barrier are not timed.
void BM_SizedAlltoallv(benchmark::State& state) {
  struct Record {
    std::int64_t src = 0;
    std::int64_t k = 0;
  };
  constexpr int kRecordsPerPair = 32;
  const int P = static_cast<int>(state.range(0));
  const auto sp = static_cast<std::size_t>(P);
  Bytes received = 0;
  for (auto _ : state) {
    using Clock = std::chrono::steady_clock;
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
    mpi::runJob(paperJob(P), [&](mpi::Comm& comm) {
      comm.barrier();
      first = std::min(first, Clock::now());
      mpi::PackedSend send(std::vector<Bytes>(
          sp, kRecordsPerPair * static_cast<Bytes>(sizeof(Record))));
      for (std::size_t d = 0; d < sp; ++d) {
        for (int k = 0; k < kRecordsPerPair; ++k) {
          const Record r{comm.rank(), k};
          send.append(d, &r, sizeof(r));
        }
      }
      const mpi::SizedExchange got = mpi::sizedAlltoallv(comm, send);
      benchmark::DoNotOptimize(got.data.data());
      last = std::max(last, Clock::now());
      if (comm.rank() == 0) received = static_cast<Bytes>(got.data.size());
    });
    state.SetIterationTime(
        std::chrono::duration<double>(last - first).count());
  }
  state.counters["recv_bytes_per_rank"] = static_cast<double>(received);
}
// Manual time is wall time: every rank runs on the calling thread.
BENCHMARK(BM_SizedAlltoallv)
    ->Arg(16)
    ->Arg(128)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

/// The two-phase aggregator's view of a strided collective: `sources`
/// per-source lists of 32 runs each, source s owning block s of every round
/// of `sources` blocks, laid back to back by source.
std::pair<std::vector<Extent>, std::vector<std::size_t>> interleavedSources(
    std::int64_t sources) {
  constexpr std::int64_t kRunsPerSource = 32;
  constexpr Bytes kBlock = 24;
  std::vector<Extent> runs;
  std::vector<std::size_t> ends;
  runs.reserve(static_cast<std::size_t>(sources * kRunsPerSource));
  for (std::int64_t s = 0; s < sources; ++s) {
    for (std::int64_t k = 0; k < kRunsPerSource; ++k) {
      const Offset b = (k * sources + s) * kBlock;
      runs.push_back({b, b + kBlock});
    }
    ends.push_back(runs.size());
  }
  return {std::move(runs), std::move(ends)};
}

/// Wall time of the coverage union of per-source sorted lists (what each
/// two-phase and view-based aggregator computes once per collective).
void BM_ExtentUnion(benchmark::State& state) {
  const auto [runs, ends] = interleavedSources(state.range(0));
  for (auto _ : state) {
    std::vector<Extent> merged = mpi::unionSortedSources(runs, ends);
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(runs.size()));
}
BENCHMARK(BM_ExtentUnion)->Arg(16)->Arg(128)->Arg(1024);

/// Wall time of normalizeOverlapping on the 128 x 32 runs above, in three
/// orders: 0 = sorted (one is_sorted scan, no sort), 1 = source by source
/// (the concatenation two-phase coverage used to sort), 2 = shuffled.
void BM_NormalizeOverlapping(benchmark::State& state) {
  std::vector<Extent> runs = interleavedSources(128).first;
  if (state.range(0) == 0) {
    std::sort(runs.begin(), runs.end(), [](const Extent& a, const Extent& b) {
      return a.begin < b.begin;
    });
  } else if (state.range(0) == 2) {
    Rng rng(7);
    for (std::size_t i = runs.size(); i > 1; --i) {
      std::swap(runs[i - 1],
                runs[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
  }
  for (auto _ : state) {
    std::vector<Extent> merged = mpi::normalizeOverlapping(runs);
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(runs.size()));
}
BENCHMARK(BM_NormalizeOverlapping)->ArgName("order")->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace tcio::bench

BENCHMARK_MAIN();
