// Microbenchmarks (google-benchmark) of the simulated parallel file system:
// per-request costs, cache effect, striping effect, lock ping-pong — the
// FS-side constants behind the paper's arguments — plus the host-side CRC-32
// kernels that every integrity hop runs over the bytes it moves.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/crc32.h"
#include "fs/client.h"
#include "mpi/runtime.h"

namespace tcio::bench {
namespace {

void BM_ContiguousWriteVirtualCost(benchmark::State& state) {
  const Bytes n = state.range(0);
  SimTime virtual_cost = 0;
  for (auto _ : state) {
    fs::Filesystem fsys(paperFs());
    SimTime t = 0;
    mpi::runJob(paperJob(1), [&](mpi::Comm& comm) {
      fs::FsClient fc(fsys, comm.proc());
      fs::FsFile f = fc.open("m.dat", fs::kWrite | fs::kCreate);
      std::vector<std::byte> buf(static_cast<std::size_t>(n), std::byte{1});
      const SimTime t0 = comm.proc().now();
      fc.pwrite(f, 0, buf.data(), n);
      t = comm.proc().now() - t0;
      fc.close(f);
    });
    virtual_cost = t;
  }
  state.counters["virtual_ms"] = virtual_cost * 1e3;
  state.counters["virtual_MBps"] =
      static_cast<double>(n) / virtual_cost / 1e6;
}
BENCHMARK(BM_ContiguousWriteVirtualCost)->Arg(4096)->Arg(1 << 14)->Arg(1 << 20);

void BM_CachedVsColdRead(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  SimTime virtual_cost = 0;
  for (auto _ : state) {
    fs::FsConfig fcfg = paperFs();
    if (!cached) fcfg.cache_capacity_per_ost = 0;
    fs::Filesystem fsys(fcfg);
    SimTime t = 0;
    mpi::runJob(paperJob(1), [&](mpi::Comm& comm) {
      fs::FsClient fc(fsys, comm.proc());
      fs::FsFile f = fc.open("c.dat", fs::kRead | fs::kWrite | fs::kCreate);
      std::vector<std::byte> buf(1 << 18, std::byte{1});
      fc.pwrite(f, 0, buf.data(), 1 << 18);
      const SimTime t0 = comm.proc().now();
      fc.pread(f, 0, buf.data(), 1 << 18);
      t = comm.proc().now() - t0;
      fc.close(f);
    });
    virtual_cost = t;
  }
  state.counters["virtual_ms"] = virtual_cost * 1e3;
}
BENCHMARK(BM_CachedVsColdRead)->Arg(1)->Arg(0);

void BM_LockPingPongPenalty(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  SimTime virtual_cost = 0;
  for (auto _ : state) {
    fs::Filesystem fsys(paperFs());
    SimTime t = 0;
    mpi::runJob(paperJob(writers), [&](mpi::Comm& comm) {
      fs::FsClient fc(fsys, comm.proc());
      fs::FsFile f = fc.open("p.dat", fs::kWrite | fs::kCreate);
      comm.barrier();
      const SimTime t0 = comm.proc().now();
      // Everyone hammers the same lock unit.
      for (int i = 0; i < 8; ++i) {
        const std::int64_t v = i;
        fc.pwrite(f, comm.rank() * 8 + i * 256, &v, 8);
      }
      comm.barrier();
      double dt = comm.proc().now() - t0;
      comm.allreduce(&dt, 1, mpi::ReduceOp::kMax);
      if (comm.rank() == 0) t = dt;
      fc.close(f);
    });
    virtual_cost = t;
  }
  state.counters["virtual_ms"] = virtual_cost * 1e3;
}
BENCHMARK(BM_LockPingPongPenalty)->Arg(1)->Arg(4)->Arg(16);

void BM_StripingParallelism(benchmark::State& state) {
  const int stripes = static_cast<int>(state.range(0));
  SimTime virtual_cost = 0;
  for (auto _ : state) {
    fs::FsConfig fcfg = paperFs();
    fcfg.default_stripe_count = stripes;
    fs::Filesystem fsys(fcfg);
    SimTime t = 0;
    mpi::runJob(paperJob(1), [&](mpi::Comm& comm) {
      fs::FsClient fc(fsys, comm.proc());
      fs::FsFile f = fc.open("s.dat", fs::kWrite | fs::kCreate);
      std::vector<std::byte> buf(1 << 20, std::byte{1});
      const SimTime t0 = comm.proc().now();
      fc.pwrite(f, 0, buf.data(), 1 << 20);
      t = comm.proc().now() - t0;
      fc.close(f);
    });
    virtual_cost = t;
  }
  state.counters["virtual_ms"] = virtual_cost * 1e3;
}
BENCHMARK(BM_StripingParallelism)->Arg(1)->Arg(4)->Arg(30);

// Host throughput of each CRC-32 kernel (bytes/s is the kernel's GB/s);
// hw=0 is slicing-by-16, hw=1 the PCLMULQDQ kernel and hw=2 the VPCLMULQDQ
// kernel, each skipped on CPUs without it.
void BM_Crc32(benchmark::State& state) {
  struct Kernel {
    std::uint32_t (*fn)(std::span<const std::byte>, std::uint32_t);
    bool available;
    const char* missing;
  };
  const Kernel kernels[] = {
      {&detail::crc32Portable, true, ""},
      {&detail::crc32Hardware, detail::crc32HardwareAvailable(),
       "PCLMULQDQ kernel not supported on this CPU"},
      {&detail::crc32Wide, detail::crc32WideAvailable(),
       "VPCLMULQDQ kernel not supported on this CPU"},
  };
  const Kernel& k = kernels[state.range(1)];
  if (!k.available) {
    state.SkipWithError(k.missing);
    return;
  }
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  }
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = k.fn(buf, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)
    ->ArgsProduct({{24, 1 << 10, 4 << 10, 16 << 10, 1 << 20}, {0, 1, 2}})
    ->ArgNames({"bytes", "hw"})
    ->UseRealTime();

// A copy that also checksums its bytes: fused=0 runs memcpy and then crc32
// over the source, fused=1 one crc32Copy (each on the CPU's own kernel).
// Sources past the L2 show the second pass going back to memory.
void BM_Crc32Copy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(n);
  // range(2) puts the destination that many bytes past a cache line, as
  // a payload behind a 32-byte record header lands.
  const auto off = static_cast<std::size_t>(state.range(2));
  std::vector<std::byte> dst_buf(n + 64 + off);
  const auto line = -reinterpret_cast<std::uintptr_t>(dst_buf.data()) & 63u;
  std::byte* const dst = dst_buf.data() + line + off;
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::byte>(i * 131 + 7);
  }
  std::uint32_t crc = 0;
  for (auto _ : state) {
    if (state.range(1) == 0) {
      std::memcpy(dst, src.data(), n);
      crc = crc32(src, crc);
    } else {
      crc = crc32Copy(dst, src, crc);
    }
    benchmark::DoNotOptimize(crc);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Copy)
    ->ArgsProduct({{4 << 10, 64 << 10, 1 << 20, 16 << 20}, {0, 1}, {0, 32}})
    ->ArgNames({"bytes", "fused", "dst_off"})
    ->UseRealTime();

}  // namespace
}  // namespace tcio::bench

BENCHMARK_MAIN();
