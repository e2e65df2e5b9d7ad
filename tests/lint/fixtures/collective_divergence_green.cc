// GREEN fixture: collective-divergence. Rank-dependent branches that keep
// the collective schedule aligned, and branches the rule must not confuse
// with rank conditionals.

namespace fixture {

// Both paths take the same collective sequence.
void balanced(mpi::Comm& comm, Digest& d) {
  if (comm.rank() == 0) {
    fillDigest(&d);
    comm.bcast(&d, sizeof(d), 0);
  } else {
    comm.bcast(&d, sizeof(d), 0);
  }
}

// Not a rank conditional: every rank evaluates `cold` identically, so a
// collective inside is uniform.
void uniformCondition(mpi::Comm& comm, bool cold) {
  if (cold) {
    comm.barrier();
  }
}

// Rank-dependent local work with the collective outside the branch.
void leaderWork(mpi::Comm& comm) {
  if (comm.isLeader()) {
    drainQueue();
  }
  comm.barrier();
}

// Rank-dependent packing, then the exchange helper on every rank.
void packThenExchange(mpi::Comm& comm, Blobs& per_dst) {
  if (comm.rank() == 0) {
    packRoot(per_dst);
  } else {
    packLeaf(per_dst);
  }
  mpi::sizedAlltoallv(comm, per_dst);
}

// Rank-dependent counts, then the known-count exchange on every rank.
void countThenExchange(mpi::Comm& comm, const Blobs& per_dst, Counts& counts) {
  if (comm.rank() == 0) {
    countRoot(counts);
  }
  mpi::alltoallvCounted(comm, per_dst, counts);
}

}  // namespace fixture
