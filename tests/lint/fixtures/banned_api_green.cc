// GREEN fixture: banned-api. The approved counterparts — virtual time, the
// simulated MPI layer and engine-owned blocking — plus one reasoned waiver.

namespace fixture {

void approved(sim::Engine& eng, mpi::Comm& comm) {
  const sim::Time t0 = eng.now();
  comm.barrier();
  eng.advance(sim::micros(5));
  consume(t0);
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

}  // namespace fixture
