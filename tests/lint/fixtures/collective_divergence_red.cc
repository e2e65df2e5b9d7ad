// RED fixture: collective-divergence. Collectives reached on only one side
// of a rank-dependent branch.

namespace fixture {

// Leader-only barrier: ranks != 0 never arrive and the schedule hangs.
void leaderOnlyBarrier(mpi::Comm& comm) {
  if (comm.rank() == 0) {
    comm.barrier();  // LINT-EXPECT[collective-divergence]
  }
}

// Unbalanced cascade: the barrier matches across the branch, the bcast
// does not.
void unbalancedCascade(mpi::Comm& comm, Digest& d) {
  if (comm.isLeader()) {
    comm.bcast(&d, sizeof(d), 0);  // LINT-EXPECT[collective-divergence]
    comm.barrier();
  } else {
    comm.barrier();
  }
}

// The divergent call can sit on the else path too.
void elseOnly(mpi::Comm& comm, long* sum) {
  if (my_rank == 0) {
    drainQueue();
  } else {
    comm.allreduce(sum, 1);  // LINT-EXPECT[collective-divergence]
  }
}

// The size-then-payload exchange helper is a collective too.
void leaderOnlyExchange(mpi::Comm& comm, const Blobs& per_dst) {
  if (comm.rank() == 0) {
    mpi::sizedAlltoallv(comm, per_dst);  // LINT-EXPECT[collective-divergence]
  }
}

// So is the known-count payload exchange.
void leaderOnlyCounted(mpi::Comm& comm, const Blobs& b, Counts c) {
  if (comm.rank() == 0) {
    mpi::alltoallvCounted(comm, b, c);  // LINT-EXPECT[collective-divergence]
  }
}

}  // namespace fixture
