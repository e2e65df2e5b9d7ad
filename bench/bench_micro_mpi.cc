// Microbenchmarks (google-benchmark) of the simulated MPI substrate:
// reports *simulated* cost of the primitives the TCIO design arguments rest
// on (lock RTTs, collective scaling, message overheads), plus the real
// wall-time cost of the discrete-event engine itself.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
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
BENCHMARK(BM_EngineEventThroughput)
    ->Arg(4)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcio::bench

BENCHMARK_MAIN();
