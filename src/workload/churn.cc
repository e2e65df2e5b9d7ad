#include "workload/churn.h"

#include <vector>

#include "delegate/client.h"
#include "delegate/session.h"

namespace tcio::workload {

std::byte churnByte(int round, int client, int block, std::int64_t i) {
  const std::uint64_t h = static_cast<std::uint64_t>(round) * 1000003ULL +
                          static_cast<std::uint64_t>(client) * 8191ULL +
                          static_cast<std::uint64_t>(block) * 131ULL +
                          static_cast<std::uint64_t>(i);
  return static_cast<std::byte>(h * 2654435761ULL >> 24);
}

std::string churnFileName(const ChurnConfig& /*cfg*/, int round) {
  return "churn." + std::to_string(round);
}

namespace {

std::vector<std::byte> blockPayload(const ChurnConfig& cfg, int round,
                                    int client, int block) {
  std::vector<std::byte> data(static_cast<std::size_t>(cfg.block_bytes));
  for (std::int64_t i = 0; i < cfg.block_bytes; ++i) {
    data[static_cast<std::size_t>(i)] = churnByte(round, client, block, i);
  }
  return data;
}

ChurnResult churnBaseline(mpi::Comm& comm, fs::Filesystem& fsys,
                          const ChurnConfig& cfg) {
  ChurnResult res;
  comm.barrier();
  const SimTime t0 = comm.proc().now();
  for (int r = 0; r < cfg.rounds; ++r) {
    core::File f(comm, fsys, churnFileName(cfg, r),
                 fs::kWrite | fs::kCreate | fs::kTruncate, cfg.tcio);
    for (int b = 0; b < cfg.blocks_per_round; ++b) {
      const std::vector<std::byte> data =
          blockPayload(cfg, r, comm.rank(), b);
      const Offset off =
          (static_cast<Offset>(comm.rank()) * cfg.blocks_per_round + b) *
          cfg.block_bytes;
      f.writeAt(off, data.data(), cfg.block_bytes);
      res.bytes_written += cfg.block_bytes;
    }
    f.close();
    ++res.files;
  }
  comm.barrier();
  res.seconds = comm.proc().now() - t0;
  comm.allreduce(&res.bytes_written, 1, mpi::ReduceOp::kSum);
  return res;
}

ChurnResult churnDelegated(mpi::Comm& comm, fs::Filesystem& fsys,
                           ChurnConfig cfg) {
  ChurnResult res;
  delegate::Session session(comm, fsys, cfg.tcio);
  comm.barrier();
  const SimTime t0 = comm.proc().now();
  if (session.isDelegate()) {
    session.serve();
  } else {
    delegate::Channel ch(session);
    const int client = session.clientComm().rank();
    for (int r = 0; r < cfg.rounds; ++r) {
      delegate::DFile f(ch, churnFileName(cfg, r),
                        fs::kWrite | fs::kCreate | fs::kTruncate);
      for (int b = 0; b < cfg.blocks_per_round; ++b) {
        const std::vector<std::byte> data = blockPayload(cfg, r, client, b);
        const Offset off =
            (static_cast<Offset>(client) * cfg.blocks_per_round + b) *
            cfg.block_bytes;
        f.writeAt(off, data);
        res.bytes_written += cfg.block_bytes;
      }
      f.close();
      ++res.files;
    }
    res.delegate = session.finish();
  }
  comm.barrier();
  res.seconds = comm.proc().now() - t0;
  // Every rank reports the aggregate payload and the merged delegate
  // counters (rank 0 is a delegate, so benches need them session-wide).
  comm.allreduce(&res.bytes_written, 1, mpi::ReduceOp::kSum);
  comm.bcast(&res.delegate, sizeof(res.delegate),
             /*root=*/session.numDelegates());
  return res;
}

}  // namespace

ChurnResult runChurn(mpi::Comm& comm, fs::Filesystem& fsys, ChurnConfig cfg) {
  const int d = delegate::Session::effectiveDelegates(cfg.tcio, comm.size());
  if (d > 0) {
    cfg.tcio.delegate_ranks = d;  // pin the env resolution for all ranks
    return churnDelegated(comm, fsys, cfg);
  }
  return churnBaseline(comm, fsys, cfg);
}

}  // namespace tcio::workload
