// GREEN fixture: banned-api. The approved counterparts — virtual time, the
// simulated MPI layer, engine-owned blocking and the one CRC entry point —
// plus one reasoned waiver. Near misses: ordinary headers and builtins.
#include <cstring>  // memcpy, not an intrinsics header
#include "common/crc32.h"

namespace fixture {

void approved(sim::Engine& eng, mpi::Comm& comm) {
  const sim::Time t0 = eng.now();
  comm.barrier();
  eng.advance(sim::micros(5));
  consume(t0);
}

// Variable-size exchanges go through the sized helpers (near misses: the
// names contain "alltoallv" but are not the raw call).
void exchange(mpi::Comm& comm, const mpi::PackedSend& send) {
  consume(mpi::sizedAlltoallv(comm, send));
}

// Blocking parks this rank's fiber in the engine, in virtual-time order.
void awaitReply(sim::Proc& proc, sim::Event& reply) {
  proc.wait(reply, "reply");
}

// A justified waiver: operator-facing tooling may read the host clock when
// it carries a reasoned suppression.
long hostSeconds() {
  // NOLINT-TCIO(banned-api): bench harness reports host wall time to the operator
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

// Checksums go through tcio::crc32, which picks the CPU kernel itself.
std::uint32_t digest(std::span<const std::byte> bytes) {
  if (__builtin_expect(bytes.empty(), 0)) return 0;
  return tcio::crc32(bytes);
}

}  // namespace fixture
