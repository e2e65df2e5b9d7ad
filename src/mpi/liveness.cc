#include "mpi/liveness.h"

#include <algorithm>
#include <cstring>

#include "common/bits.h"
#include "common/error.h"
#include "mpi/world.h"

namespace tcio::mpi {

namespace {

/// Liveness tags live above the collective tag block (which tops out at
/// kInternalTagBase + 2^22 - 1): base + 2^23 + epoch*4 + round.
constexpr int kLivenessTagBase = kInternalTagBase + (1 << 23);

int livenessTag(int epoch, int round) {
  return kLivenessTagBase + (epoch % (1 << 20)) * 4 + round;
}

struct VoteMsg {
  std::int32_t epoch = 0;
  std::int32_t code = 0;
};

/// Fixed-size header of a verdict message; `words` 64-bit suspicion bitmap
/// words follow on the wire (word r/64, bit r%64 set = sender suspects rank
/// r). Every rank derives the same word count from the communicator size, so
/// the wire size is deterministic.
struct VerdictHeader {
  std::int32_t epoch = 0;
  std::int32_t code = 0;
  std::int32_t words = 0;
  char what[160] = {};
};

}  // namespace

std::vector<Rank> LivenessOutcome::survivors(int comm_size) const {
  std::vector<Rank> out;
  out.reserve(static_cast<std::size_t>(comm_size));
  std::size_t di = 0;
  for (Rank r = 0; r < comm_size; ++r) {
    if (di < dead.size() && dead[di] == r) {
      ++di;
      continue;
    }
    out.push_back(r);
  }
  return out;
}

LivenessOutcome agreeWithLiveness(Comm& comm, const CapturedError& local,
                                  int epoch, SimTime window, SimTime poll) {
  const int P = comm.size();
  const Rank me = comm.rank();
  TCIO_CHECK_MSG(window > 0 && poll > 0, "liveness window/poll must be > 0");
  /// Suspicion bitmap width in 64-bit words (any communicator size).
  const std::size_t kWords = bitWords(P);

  LivenessOutcome out;
  out.code = local.code;
  std::int32_t best_code = local.code;
  Rank best_owner = me;
  std::string best_what = local.what;

  // -- Round 1: vote ----------------------------------------------------------
  const int tag_vote = livenessTag(epoch, 0);
  VoteMsg vote{static_cast<std::int32_t>(epoch), local.code};
  {
    std::vector<Request> sends;
    sends.reserve(static_cast<std::size_t>(P));
    for (Rank r = 0; r < P; ++r) {
      if (r == me) continue;
      sends.push_back(comm.isend(&vote, sizeof(vote), r, tag_vote));
    }
    comm.waitAll(sends);
  }
  std::vector<std::uint64_t> suspects(kWords, 0);
  const SimTime vote_deadline = comm.proc().now() + window;
  for (Rank r = 0; r < P; ++r) {
    if (r == me) continue;
    VoteMsg in;
    if (comm.recvUntil(&in, sizeof(in), r, tag_vote, vote_deadline, poll)) {
      TCIO_CHECK_MSG(in.epoch == epoch, "liveness vote from a stale epoch");
      if (in.code > best_code || (in.code == best_code && r < best_owner)) {
        // Round-1 votes carry no message; remember the owner so a round-2
        // verdict from the same rank can fill it in.
        best_code = std::max(best_code, in.code);
        if (in.code > out.code) out.code = in.code;
      }
    } else {
      setBit(suspects, r);
    }
  }

  // -- Round 2: verdict -------------------------------------------------------
  // A verdict is a fixed header followed by the word-vector suspicion
  // bitmap, so any communicator size works (the bitmap was a single
  // uint64_t — and the protocol P <= 64 — before).
  const int tag_verdict = livenessTag(epoch, 1);
  const std::size_t msg_size =
      sizeof(VerdictHeader) + kWords * sizeof(std::uint64_t);
  std::vector<std::byte> verdict(msg_size);
  {
    VerdictHeader hdr;
    hdr.epoch = static_cast<std::int32_t>(epoch);
    hdr.code = local.code;
    hdr.words = static_cast<std::int32_t>(kWords);
    std::strncpy(hdr.what, local.what.c_str(), sizeof(hdr.what) - 1);
    std::memcpy(verdict.data(), &hdr, sizeof(hdr));
    std::memcpy(verdict.data() + sizeof(hdr), suspects.data(),
                kWords * sizeof(std::uint64_t));
  }
  {
    std::vector<Request> sends;
    sends.reserve(static_cast<std::size_t>(P));
    for (Rank r = 0; r < P; ++r) {
      if (r == me) continue;
      sends.push_back(comm.isend(verdict.data(),
                                 static_cast<Bytes>(msg_size), r,
                                 tag_verdict));
    }
    comm.waitAll(sends);
  }
  best_code = local.code;
  best_owner = me;
  best_what = local.what;
  std::vector<std::uint64_t> dead_bits = suspects;
  std::vector<std::byte> in(msg_size);
  std::vector<std::uint64_t> in_bits(kWords);
  const SimTime verdict_deadline = comm.proc().now() + window;
  for (Rank r = 0; r < P; ++r) {
    if (r == me) continue;
    if (comm.recvUntil(in.data(), static_cast<Bytes>(msg_size), r,
                       tag_verdict, verdict_deadline, poll)) {
      VerdictHeader hdr;
      std::memcpy(&hdr, in.data(), sizeof(hdr));
      TCIO_CHECK_MSG(hdr.epoch == epoch, "liveness verdict from a stale epoch");
      TCIO_CHECK_MSG(hdr.words == static_cast<std::int32_t>(kWords),
                     "liveness verdict bitmap width mismatch");
      std::memcpy(in_bits.data(), in.data() + sizeof(hdr),
                  kWords * sizeof(std::uint64_t));
      for (std::size_t w = 0; w < kWords; ++w) dead_bits[w] |= in_bits[w];
      if (hdr.code > best_code || (hdr.code == best_code && r < best_owner)) {
        best_code = hdr.code;
        best_owner = r;
        hdr.what[sizeof(hdr.what) - 1] = '\0';
        best_what = hdr.what;
      }
    } else {
      // Died between the rounds (or was suspected by everyone): no verdict.
      setBit(dead_bits, r);
    }
  }

  out.code = best_code;
  out.what = best_what;
  out.self_dead = testBit(dead_bits, me);
  for (Rank r = 0; r < P; ++r) {
    if (testBit(dead_bits, r)) out.dead.push_back(r);
  }
  return out;
}

}  // namespace tcio::mpi
