// RED fixture: banned-api. Wall-clock reads, raw MPI, a hand-rolled
// alltoallv, raw threading, real sleeps, raw context switches, ISA
// intrinsics headers and CPU feature probes — all from a path outside
// src/sim, src/mpi and the CRC kernel.
#include <immintrin.h>  // LINT-EXPECT[banned-api]
#include <arm_acle.h>  // LINT-EXPECT[banned-api]

namespace fixture {

void wallClock() {
  const auto t0 = std::chrono::steady_clock::now();  // LINT-EXPECT[banned-api]
  consume(t0);
}

double wallSeconds() {
  timeval tv;
  gettimeofday(&tv, nullptr);  // LINT-EXPECT[banned-api]
  return tv.tv_sec + tv.tv_usec * 1e-6;
}

void rawMpi(void* world) {
  MPI_Barrier(world);  // LINT-EXPECT[banned-api]
}

void handRolledExchange(mpi::Comm& comm, const Plan& p, std::byte* recv) {
  comm.alltoallv(p.send, p.counts, p.displs, recv, p.rcounts, p.rdispls);  // LINT-EXPECT[banned-api]
}

class Guarded {
  std::mutex mu_;  // LINT-EXPECT[banned-api]
};

void waitABit() {
  std::this_thread::sleep_for(pollInterval());  // LINT-EXPECT[banned-api]
}

void hopToPeer(ucontext_t* self, ucontext_t* peer) {
  swapcontext(self, peer);  // LINT-EXPECT[banned-api]
}

bool hasCarrylessMultiply() {
  return __builtin_cpu_supports("pclmul");  // LINT-EXPECT[banned-api]
}

}  // namespace fixture
