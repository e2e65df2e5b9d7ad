// RED fixture: banned-api. Wall-clock reads, raw MPI, raw threading, real
// sleeps and raw context switches — all from a path outside src/sim and
// src/mpi.

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

class Guarded {
  std::mutex mu_;  // LINT-EXPECT[banned-api]
};

void waitABit() {
  std::this_thread::sleep_for(pollInterval());  // LINT-EXPECT[banned-api]
}

void hopToPeer(ucontext_t* self, ucontext_t* peer) {
  swapcontext(self, peer);  // LINT-EXPECT[banned-api]
}

}  // namespace fixture
