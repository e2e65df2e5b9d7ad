// I/O delegate subsystem tests: request-queue admission control, round-robin
// fairness, OST submission batching, fault retry at the delegate, fail-stop
// delegate crash with shard adoption, determinism, and the churn workload.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/error.h"
#include "delegate/client.h"
#include "delegate/server.h"
#include "delegate/session.h"
#include "fs/filesystem.h"
#include "mpi/runtime.h"
#include "workload/churn.h"

namespace tcio::delegate {
namespace {

constexpr Bytes kSegment = 512;

fs::FsConfig fsCfg() {
  fs::FsConfig c;
  c.num_osts = 4;
  c.stripe_size = 1024;
  return c;
}

mpi::JobConfig job(int p, std::uint64_t seed = 1) {
  mpi::JobConfig c;
  c.num_ranks = p;
  c.seed = seed;
  return c;
}

core::TcioConfig delegated(int d, std::int64_t capacity = 64) {
  core::TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = 8;
  cfg.delegate_ranks = d;
  cfg.delegate.queue_capacity = capacity;
  return cfg;
}

std::byte expected(int client, Offset off) {
  return static_cast<std::byte>(
      (static_cast<Offset>(client) * 37 + off * 11) % 251 + 1);
}

std::vector<std::byte> clientBlock(int client, Offset off, Bytes n) {
  std::vector<std::byte> v(static_cast<std::size_t>(n));
  for (Bytes i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = expected(client, off + i);
  }
  return v;
}

std::vector<std::byte> peekBytes(const fs::Filesystem& fsys,
                                 const std::string& name, Offset off,
                                 Bytes n) {
  std::vector<std::byte> v(static_cast<std::size_t>(n));
  fsys.peek(name, off, v);
  return v;
}

/// Runs body on client ranks, serve() on delegates; returns merged stats
/// into *stats on every rank (client-merged, then read back on rank 0 via
/// the session bcast pattern used by the churn workload).
void runSession(mpi::Comm& comm, fs::Filesystem& fsys,
                const core::TcioConfig& cfg,
                const std::function<void(Session&, Channel&)>& body,
                core::TcioDelegateStats* stats = nullptr) {
  Session session(comm, fsys, cfg);
  core::TcioDelegateStats merged;
  if (session.isDelegate()) {
    session.serve();
  } else {
    Channel ch(session);
    body(session, ch);
    merged = session.finish();
  }
  comm.barrier();
  comm.bcast(&merged, sizeof(merged), /*root=*/session.numDelegates());
  if (stats != nullptr) *stats = merged;
}

// -- Descriptor parsing -------------------------------------------------------

/// The bytes Channel::sendDescriptor puts on the wire.
std::vector<std::byte> descriptor(const RequestHeader& h,
                                  const std::vector<WireExtent>& extents,
                                  const std::string& name) {
  std::vector<std::byte> msg(sizeof(h) + extents.size() * sizeof(WireExtent) +
                             name.size());
  std::byte* cursor = msg.data();
  std::memcpy(cursor, &h, sizeof(h));
  cursor += sizeof(h);
  for (const WireExtent& e : extents) {
    std::memcpy(cursor, &e, sizeof(e));
    cursor += sizeof(e);
  }
  std::memcpy(cursor, name.data(), name.size());
  return msg;
}

/// Expects parseRequest to fail the TCIO_CHECK whose message contains `why`.
void expectRejected(std::span<const std::byte> msg, const std::string& why) {
  try {
    parseRequest(msg);
    ADD_FAILURE() << "parsed a descriptor of " << msg.size() << " bytes";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("TCIO_CHECK failed"), std::string::npos) << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
}

constexpr const char* kOverrun = "lengths overrun the received bytes";

TEST(DelegateProtocolTest, ParseRequestReadsWhatWasSent) {
  RequestHeader h = requestHeader(Op::kOpen, /*client=*/3, /*seq=*/9, 77);
  h.n_extents = 2;
  h.name_len = 5;
  const std::vector<WireExtent> extents{{4, 0, 16, 0xabcd, 1},
                                        {4, 32, 48, 0, 0}};
  const Request q = parseRequest(descriptor(h, extents, "a.dat"));
  EXPECT_EQ(q.h.op, Op::kOpen);
  EXPECT_EQ(q.h.client, 3);
  EXPECT_EQ(q.h.seq, 9);
  ASSERT_EQ(q.extents.size(), 2u);
  EXPECT_EQ(q.extents[0].end, 16);
  EXPECT_EQ(q.extents[0].crc, 0xabcdu);
  EXPECT_EQ(q.extents[1].begin, 32);
  EXPECT_EQ(q.name, "a.dat");
}

TEST(DelegateProtocolTest, TruncatedRequestFailsItsLengthCheck) {
  // A one-extent put: its extent missing, one byte short, and shorter than
  // the header.
  RequestHeader put = requestHeader(Op::kPut, /*client=*/1, /*seq=*/4, 77);
  put.n_extents = 1;
  put.payload_bytes = 16;
  const std::vector<std::byte> msg = descriptor(put, {{4, 0, 16}}, "");
  parseRequest(msg);  // whole, it parses
  expectRejected({msg.data(), msg.size() - sizeof(WireExtent)}, kOverrun);
  expectRejected({msg.data(), msg.size() - 1}, kOverrun);
  expectRejected({msg.data(), sizeof(RequestHeader) - 1},
                 "shorter than its header");
  // The adoption verdict is the one extent list: one entry short.
  RequestHeader adopt = requestHeader(Op::kAdopt, 1, 6);
  adopt.n_extents = 2;
  const std::vector<std::byte> verdict =
      descriptor(adopt, {{0, 0, 0}, {1, 0, 0}}, "");
  parseRequest(verdict);
  expectRejected({verdict.data(), verdict.size() - sizeof(WireExtent)},
                 kOverrun);
  // A name length that claims more bytes than arrived.
  RequestHeader named = requestHeader(Op::kOpen, 1, 5, 77);
  named.name_len = 6;
  const std::vector<std::byte> open = descriptor(named, {}, "a.dat");
  expectRejected(open, kOverrun);
  // Negative lengths never size a copy.
  named.name_len = 0;
  named.n_extents = -1;
  expectRejected(descriptor(named, {}, ""), kOverrun);
}

TEST(DelegateProtocolTest, DataRequestCarriesOneExtent) {
  // Correctly sized, but a put or get names exactly one extent.
  constexpr const char* kOne = "carries exactly one extent";
  RequestHeader put = requestHeader(Op::kPut, /*client=*/1, /*seq=*/4, 77);
  put.n_extents = 2;
  put.payload_bytes = 32;
  expectRejected(descriptor(put, {{4, 0, 16}, {4, 32, 48}}, ""), kOne);
  RequestHeader get = requestHeader(Op::kGet, 1, 5, 77);
  expectRejected(descriptor(get, {}, ""), kOne);
}

// -- Core routing and data integrity ------------------------------------------

TEST(DelegateSessionTest, WriteReadCloseRoundTrip) {
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  mpi::runJob(job(6), [&](mpi::Comm& comm) {
    const core::TcioConfig cfg = delegated(/*d=*/2);
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "roundtrip.dat", fs::kRead | fs::kWrite | fs::kCreate);
      // Each client writes two blocks straddling a segment boundary.
      const Offset base = static_cast<Offset>(c) * 2 * kSegment + 128;
      const std::vector<std::byte> data = clientBlock(c, base, kSegment);
      f.writeAt(base, data);
      f.flush();
      std::vector<std::byte> back(static_cast<std::size_t>(kSegment));
      f.readAt(base, back);
      EXPECT_EQ(back, data);
      const Bytes size = f.close();
      EXPECT_EQ(size, static_cast<Bytes>(s.numClients() - 1) * 2 * kSegment +
                          128 + kSegment);
    }, &stats);
  });
  // Level-2 ownership really moved: only the delegate ranks talked to the
  // file system.
  std::map<int, std::int64_t> ops = fsys.opsByClient();
  for (const auto& [rank, n] : ops) {
    EXPECT_LT(rank, 2) << "client rank " << rank << " issued FS calls";
    EXPECT_GT(n, 0);
  }
  EXPECT_EQ(ops.size(), 2u);
  EXPECT_GT(stats.submissions, 0);
  // Verify the file bytes out-of-band (costless peek).
  for (int c = 0; c < 4; ++c) {
    const Offset base = static_cast<Offset>(c) * 2 * kSegment + 128;
    const std::vector<std::byte> want = clientBlock(c, base, kSegment);
    EXPECT_EQ(peekBytes(fsys, "roundtrip.dat", base, kSegment), want);
  }
}

TEST(DelegateSessionTest, CloseAfterReopenReturnsTheFileSize) {
  // A 2,048-byte file is reopened and patched inside its old extent: close
  // reports the file's size, not the end of this session's writes.
  constexpr Bytes kFile = 4 * kSegment;
  constexpr Offset kPatchAt = 2 * kSegment + 128;
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(4), [&](mpi::Comm& comm) {
    runSession(comm, fsys, delegated(/*d=*/2), [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      constexpr unsigned kFlags = fs::kRead | fs::kWrite | fs::kCreate;
      {
        DFile f(ch, "reopen.dat", kFlags);
        const Offset base = static_cast<Offset>(c) * 2 * kSegment;
        f.writeAt(base, clientBlock(c, base, 2 * kSegment));
        EXPECT_EQ(f.close(), kFile);
      }
      DFile f(ch, "reopen.dat", kFlags);
      if (c == 0) f.writeAt(kPatchAt, clientBlock(0, kPatchAt, 64));
      EXPECT_EQ(f.close(), kFile);
    });
  });
  EXPECT_EQ(fsys.peekSize("reopen.dat"), kFile);
}

TEST(DelegateSessionTest, EnvVariableSelectsDelegates) {
  const char* outer = ::getenv("TCIO_DELEGATES");
  const std::string saved = outer != nullptr ? outer : "";
  ::unsetenv("TCIO_DELEGATES");
  core::TcioConfig cfg;
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 0);
  cfg.delegate_ranks = -1;
  ::setenv("TCIO_DELEGATES", "2", 1);
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 0);  // opt-out beats env
  ::unsetenv("TCIO_DELEGATES");
  cfg.delegate_ranks = 3;
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 3);
  EXPECT_EQ(Session::effectiveDelegates(cfg, 2), 1);  // keep one client
  cfg.delegate_ranks = 0;
  ::setenv("TCIO_DELEGATES", "2", 1);
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 2);
  ::setenv("TCIO_DELEGATES", "99", 1);
  EXPECT_EQ(Session::effectiveDelegates(cfg, 128), 99);  // no bitmap cap
  ::setenv("TCIO_DELEGATES", "5000", 1);
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8192), kMaxWireExtents);
  ::unsetenv("TCIO_DELEGATES");
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 0);
  if (!saved.empty()) ::setenv("TCIO_DELEGATES", saved.c_str(), 1);
}

TEST(DelegateSessionTest, ShardRoutingSkipsTheDead) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(5), [&](mpi::Comm& comm) {
    Session s(comm, fsys, delegated(/*d=*/3));
    EXPECT_EQ(s.naturalOwnerOf(7), 7 % 3);
    EXPECT_EQ(s.ownerOfSegment(7), 7 % 3);
    s.markDead(1);
    EXPECT_EQ(s.ownerOfSegment(7), 2);  // 7 % 3 == 1 is dead -> next live
    EXPECT_EQ(s.adopterOf(1), 2);
    EXPECT_EQ(s.liveDelegates(), (std::vector<int>{0, 2}));
    // Every rank participated in the collective ctor; nothing to serve.
  });
}

// -- Admission control ---------------------------------------------------------

TEST(DelegateQueueTest, BoundedCapacityRejectsAndRetries) {
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kClients = 6;
  constexpr int kPuts = 2;  // per client
  constexpr int kSegments = kClients * kPuts;
  mpi::runJob(job(1 + kClients), [&](mpi::Comm& comm) {
    // One delegate with a 4-deep queue; six clients put at once, so at
    // least two find the queue full and ride the kBusy/backoff path.
    const core::TcioConfig cfg = delegated(/*d=*/1, /*capacity=*/4);
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      ch.open("flood.dat", fs::kWrite | fs::kCreate);
      const std::uint64_t key = fileKey("flood.dat");
      s.clientComm().barrier();
      for (int i = 0; i < kPuts; ++i) {
        const SegmentId g = c * kPuts + i;
        ch.put(key, {g, 0, kSegment}, clientBlock(0, g * kSegment, kSegment));
      }
      EXPECT_EQ(ch.closeFile(key), static_cast<Bytes>(kSegments) * kSegment);
    }, &stats);
  });
  EXPECT_GT(stats.rejections, 0);
  EXPECT_GT(stats.busy_retries, 0);
  EXPECT_EQ(stats.submissions, kSegments);
  EXPECT_LE(stats.queue_high_watermark, 4);
  // Every rejected put eventually landed: the file is complete.
  for (int g = 0; g < kSegments; ++g) {
    const Offset base = static_cast<Offset>(g) * kSegment;
    EXPECT_EQ(peekBytes(fsys, "flood.dat", base, kSegment),
              clientBlock(0, base, kSegment));
  }
}

TEST(DelegateQueueTest, RoundRobinKeepsHotClientFromStarvingOthers) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(3), [&](mpi::Comm& comm) {
    // One delegate, two clients. Client A queues four gets at once; client
    // B sends one slightly later. Round-robin service must interleave B's
    // request instead of finishing A's whole queue first.
    const core::TcioConfig cfg = delegated(/*d=*/1);
    Session session(comm, fsys, cfg);
    SimTime b_done = 0;
    SimTime a_last = 0;
    if (session.isDelegate()) {
      session.serve();
    } else {
      Channel ch(session);
      ch.open("fair.dat", fs::kRead | fs::kWrite | fs::kCreate);
      const std::uint64_t key = fileKey("fair.dat");
      session.clientComm().barrier();
      if (session.clientComm().rank() == 0) {  // hot client A
        // A Channel keeps one request in flight, so A speaks the wire
        // protocol itself: four kGet descriptors, then every reply (four
        // kAccepted as they are admitted, four kGetData as they are
        // served), acking each served frame.
        constexpr std::int64_t kFirstSeq = 100;
        for (int i = 0; i < 4; ++i) {
          RequestHeader h =
              requestHeader(Op::kGet, comm.rank(), kFirstSeq + i, key);
          h.payload_bytes = kSegment;
          h.n_extents = 1;
          const std::vector<std::byte> msg =
              descriptor(h, {{i, 0, kSegment}}, "");
          comm.send(msg.data(), static_cast<Bytes>(msg.size()), 0, kReqTag);
        }
        std::map<std::int64_t, std::int64_t> frame_of;  // seq -> frame
        for (int served = 0; served < 4;) {
          ReplyMsg r;
          comm.recv(&r, sizeof(r), 0, kRepTag);
          if (r.kind == ReplyKind::kAccepted) {
            frame_of[r.seq] = r.value;
            continue;
          }
          ASSERT_EQ(r.kind, ReplyKind::kGetData);
          RequestHeader ack =
              requestHeader(Op::kGetAck, comm.rank(), r.seq, key);
          ack.aux = frame_of.at(r.seq);
          comm.send(&ack, sizeof(ack), 0, kReqTag);
          ++served;
        }
        a_last = comm.proc().now();
      } else {  // client B: one request, a touch later
        comm.proc().advance(1.0e-6);
        std::vector<std::byte> sink(static_cast<std::size_t>(kSegment));
        ch.get(key, {9, 0, kSegment}, sink.data());
        b_done = comm.proc().now();
      }
      // Share the two timestamps: B must complete before A's queue drains.
      SimTime times[2] = {a_last, b_done};
      session.clientComm().allreduce(times, 2, mpi::ReduceOp::kMax);
      EXPECT_GT(times[0], 0.0);
      EXPECT_GT(times[1], 0.0);
      EXPECT_LT(times[1], times[0])
          << "single-request client finished after the flood";
      ch.closeFile(key);
      session.finish();
    }
    comm.barrier();
  });
}

// -- OST submission batching ---------------------------------------------------

TEST(DelegateBatchTest, AdjacentExtentsCoalesceIntoOneSubmission) {
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kChunks = 8;
  constexpr Bytes kChunk = kSegment / kChunks;
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    const core::TcioConfig cfg = delegated(/*d=*/1);
    runSession(comm, fsys, cfg, [&](Session&, Channel& ch) {
      DFile f(ch, "coalesce.dat", fs::kWrite | fs::kCreate);
      // Eight adjacent chunks of one segment, written as separate requests.
      for (int i = 0; i < kChunks; ++i) {
        const Offset off = static_cast<Offset>(i) * kChunk;
        f.writeAt(off, clientBlock(0, off, kChunk));
      }
      EXPECT_EQ(f.close(), kSegment);
    }, &stats);
  });
  EXPECT_EQ(stats.submissions, kChunks);
  EXPECT_EQ(stats.batches, 1) << "adjacent extents must merge to one pwrite";
  EXPECT_EQ(stats.batched_extents, kChunks);
  EXPECT_EQ(peekBytes(fsys, "coalesce.dat", 0, kSegment),
            clientBlock(0, 0, kSegment));
}

// -- Fault injection -----------------------------------------------------------

TEST(DelegateFaultTest, TransientFsFaultsRetryInsideTheDelegate) {
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  mpi::runJob(job(4, /*seed=*/7), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(/*d=*/1);
    cfg.faults.enabled = true;
    cfg.faults.seed = 7;
    cfg.faults.fs_transient_write_rate = 0.4;
    cfg.retry.max_attempts = 8;
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "faulty.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < 4; ++b) {
        const Offset off =
            (static_cast<Offset>(c) * 4 + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      f.close();
    }, &stats);
  });
  EXPECT_GT(stats.fs_transient_faults, 0) << "seed produced no faults";
  EXPECT_GE(stats.fs_retries, stats.fs_transient_faults);
  for (int c = 0; c < 3; ++c) {
    for (int b = 0; b < 4; ++b) {
      const Offset off = (static_cast<Offset>(c) * 4 + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "faulty.dat", off, kSegment),
                clientBlock(c, off, kSegment));
    }
  }
}

// -- Fail-stop delegate crash --------------------------------------------------

struct CrashCase {
  CrashPoint point;
  std::int64_t after;
  const char* name;
};

// The ctest name gets the case name, not the struct's bytes and pointer.
void PrintTo(const CrashCase& c, std::ostream* os) { *os << c.name; }

class DelegateCrashTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(DelegateCrashTest, ShardAdoptionLosesNoAcknowledgedByte) {
  const CrashCase& p = GetParam();
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kProcs = 6;
  constexpr int kDelegates = 2;
  constexpr int kClients = kProcs - kDelegates;
  constexpr int kBlocks = 4;
  mpi::runJob(job(kProcs, /*seed=*/11), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    cfg.crash.liveness_window = 0.25;
    cfg.faults.seed = 11;
    cfg.faults.crashes.push_back({/*rank=*/0, p.point, p.after});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "adopt.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        const Offset off =
            (static_cast<Offset>(c) * kBlocks + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      const Bytes size = f.close();
      EXPECT_EQ(size, static_cast<Bytes>(kClients) * kBlocks * kSegment);
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 1);
  EXPECT_EQ(stats.shards_adopted, 1);
  // Acked puts were journaled, unacked puts were resubmitted: the file must
  // be byte-identical to a healthy run.
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "adopt.dat", off, kSegment),
                clientBlock(c, off, kSegment))
          << "lost bytes at client " << c << " block " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Points, DelegateCrashTest,
    ::testing::Values(CrashCase{CrashPoint::kMidJournal, 3, "mid_journal"},
                      CrashCase{CrashPoint::kAtCollective, 5, "at_service"},
                      CrashCase{CrashPoint::kMidClose, 1, "mid_close"}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      return info.param.name;
    });

TEST(DelegateCrashTest, VictimPastTheFirstSuspicionWord) {
  // 65 delegates: the victim's suspicion bit is bit 0 of the second word,
  // and its adopter wraps around to delegate 0. Every piece lands on the
  // victim's shard (segments 64 + 65k), so some are journaled before the
  // death and the rest are resubmitted to the adopter.
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kDelegates = 65;
  constexpr int kClients = 5;
  constexpr int kVictim = 64;
  constexpr int kBlocks = 4;
  constexpr Bytes kPiece = 64;
  const auto offsetOf = [](int c, int b) {
    return (kVictim + static_cast<Offset>(kDelegates) * b) * kSegment +
           static_cast<Offset>(c) * kPiece;
  };
  mpi::runJob(job(kDelegates + kClients, /*seed=*/11), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    cfg.crash.liveness_window = 0.25;
    cfg.faults.seed = 11;
    cfg.faults.crashes.push_back({kVictim, CrashPoint::kMidJournal, 3});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      EXPECT_EQ(s.numDelegates(), kDelegates);
      const int c = s.clientComm().rank();
      DFile f(ch, "wrap.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        f.writeAt(offsetOf(c, b), clientBlock(c, offsetOf(c, b), kPiece));
      }
      EXPECT_EQ(f.close(), offsetOf(kClients - 1, kBlocks - 1) + kPiece);
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 1);
  EXPECT_EQ(stats.shards_adopted, 1);
  EXPECT_GT(stats.journal_records_replayed, 0);
  EXPECT_GT(stats.deferred_resubmissions, 0);
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      EXPECT_EQ(peekBytes(fsys, "wrap.dat", offsetOf(c, b), kPiece),
                clientBlock(c, offsetOf(c, b), kPiece))
          << "lost bytes at client " << c << " block " << b;
    }
  }
}

TEST(DelegateCrashTest, AdjacentDoubleDeathAdoptsBothShards) {
  // Delegates 0 and 1 both die during the put phase, so one agreement round
  // carries a two-entry verdict. The survivor must mark the whole verdict
  // dead before computing adopters: interleaving mark and adopt would hand
  // delegate 0's shard to the also-dead delegate 1, silently dropping 0's
  // acknowledged (journaled) puts.
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kProcs = 6;
  constexpr int kDelegates = 3;
  constexpr int kClients = kProcs - kDelegates;
  constexpr int kBlocks = 4;
  mpi::runJob(job(kProcs, /*seed=*/31), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    cfg.crash.liveness_window = 0.25;
    cfg.faults.seed = 31;
    cfg.faults.crashes.push_back({/*rank=*/0, CrashPoint::kMidJournal, 2});
    cfg.faults.crashes.push_back({/*rank=*/1, CrashPoint::kMidJournal, 2});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "twodead.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      f.close();
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 2);
  EXPECT_EQ(stats.shards_adopted, 2)
      << "the lone survivor must adopt BOTH dead shards";
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "twodead.dat", off, kSegment),
                clientBlock(c, off, kSegment))
          << "lost bytes at client " << c << " block " << b;
    }
  }
}

TEST(DelegateCrashTest, AdopterCrashBeforeDrainPreservesTheChain) {
  // Delegate 0 dies mid-put; delegate 1 adopts its shard (journal replay),
  // then itself dies at the start of the close-time drain. Delegate 2 then
  // adopts delegate 1 — and, via the chain scan over the agreed death order,
  // re-adopts delegate 0 from 0's ORIGINAL journal: the dead adopter's WAL
  // (which does carry gen-bumped copies of 0's records) is never the sole
  // carrier of the chain.
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kProcs = 6;
  constexpr int kDelegates = 3;
  constexpr int kClients = kProcs - kDelegates;
  constexpr int kBlocks = 4;
  mpi::runJob(job(kProcs, /*seed=*/37), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    cfg.crash.liveness_window = 0.25;
    cfg.faults.seed = 37;
    cfg.faults.crashes.push_back({/*rank=*/0, CrashPoint::kMidJournal, 2});
    cfg.faults.crashes.push_back({/*rank=*/1, CrashPoint::kMidClose, 0});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "chain.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      f.close();
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 2);
  // Delegate 1's adoption of 0 died with it (fail-stop — its counters never
  // reach the shutdown merge), but the survivor's chain scan adopts both
  // dead shards itself: 1's as a fresh death, 0's as a re-adoption.
  EXPECT_EQ(stats.shards_adopted, 2);
  EXPECT_EQ(stats.shards_readopted, 1);
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "chain.dat", off, kSegment),
                clientBlock(c, off, kSegment))
          << "chain-lost bytes at client " << c << " block " << b;
    }
  }
}

TEST(DelegateCrashTest, AdopterDiesMidReplayChainFallsToOriginalJournals) {
  // The cascade the chain test above cannot reach: delegate 0 dies mid-put,
  // delegate 1 adopts it and then dies INSIDE the adoption itself — while
  // re-appending 0's replayed records into its own WAL
  // (CrashPoint::kMidRecovery), leaving a torn gen-1 copy behind. Delegate 2
  // must then adopt 1 AND re-adopt 0 from 0's ORIGINAL journal (the chain
  // scan over death order), because 1's WAL alone carries only the torn
  // fragment of 0's data. The torn frame is discarded by CRC; the duplicate
  // replays are byte-identical and therefore idempotent.
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kProcs = 6;
  constexpr int kDelegates = 3;
  constexpr int kClients = kProcs - kDelegates;
  constexpr int kBlocks = 4;
  mpi::runJob(job(kProcs, /*seed=*/41), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    cfg.crash.liveness_window = 0.25;
    cfg.faults.seed = 41;
    cfg.faults.crashes.push_back({/*rank=*/0, CrashPoint::kMidJournal, 2});
    cfg.faults.crashes.push_back({/*rank=*/1, CrashPoint::kMidRecovery, 0});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "cascade.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      f.close();
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 2);
  // Delegate 2 adopted both dead shards (1's own half-finished adoption of 0
  // died with it and never reached the merge); 0's was a re-adoption — its
  // first adopter was already dead when the shard landed here.
  EXPECT_EQ(stats.shards_adopted, 2);
  EXPECT_EQ(stats.shards_readopted, 1)
      << "the chain scan must re-adopt the first victim from its original "
         "journal after its adopter died mid-replay";
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "cascade.dat", off, kSegment),
                clientBlock(c, off, kSegment))
          << "cascade-lost bytes at client " << c << " block " << b;
    }
  }
}

TEST(DelegateCrashTest, CrashRunsAreDeterministic) {
  constexpr int kProcs = 6;
  auto run = [&] {
    fs::Filesystem fsys(fsCfg());
    core::TcioDelegateStats stats;
    SimTime makespan = 0;
    mpi::runJob(job(kProcs, /*seed=*/23), [&](mpi::Comm& comm) {
      core::TcioConfig cfg = delegated(/*d=*/2);
      cfg.crash.enabled = true;
      cfg.faults.seed = 23;
      cfg.faults.crashes.push_back(
          {/*rank=*/1, CrashPoint::kMidJournal, /*after=*/2});
      runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
        const int c = s.clientComm().rank();
        DFile f(ch, "det.dat", fs::kWrite | fs::kCreate);
        for (int b = 0; b < 3; ++b) {
          const Offset off = (static_cast<Offset>(c) * 3 + b) * kSegment;
          f.writeAt(off, clientBlock(c, off, kSegment));
        }
        f.close();
        makespan = comm.proc().now();
      }, &stats);
    });
    const Bytes size = fsys.peekSize("det.dat");
    std::uint32_t crc = 0;
    for (Offset off = 0; off < size; off += kSegment) {
      const auto chunk = peekBytes(fsys, "det.dat", off,
                                   std::min<Bytes>(kSegment, size - off));
      crc = crc32(std::span<const std::byte>(chunk), crc);
    }
    return std::tuple<std::uint32_t, SimTime, std::int64_t, std::int64_t>{
        crc, makespan, stats.deferred_resubmissions,
        stats.journal_records_replayed};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(DelegateCrashTest, FalselySuspectedDelegateSelfFences) {
  // No crash is scheduled: delegate 0 is alive but slow. The file is striped
  // one segment per stripe over OSTs 0 and 1, so delegate 0's shard (the
  // even segments) lies on OST 0, which straggles in the fenced run. There
  // a segment read takes ~104 ms and a small write ~4 ms; the liveness
  // window (30 ms) lies between, and outside the straggler everything is
  // well inside it.
  //
  // Round 1 writes the file. In round 2 client 1 asks delegate 0 for
  // segment 0 over the raw protocol and waits without a deadline, so the
  // delegate spends ~104 ms loading it. Client 0's put to segment 2 arrives
  // meanwhile, is not even admitted within the window, and delegate 0 is
  // suspected. The agreement marks it dead, it self-fences on the kAdopt
  // verdict, and delegate 1 takes the resubmitted put. Delegate 0's late
  // kAccepted for that put is never read: client 0 sends it nothing more.
  constexpr int kDelegates = 2;
  constexpr int kClients = 2;
  constexpr Bytes kPatch = 64;
  constexpr Offset kPatchAt = 2 * kSegment + 128;  // segment 2: delegate 0
  fs::FsConfig fc = fsCfg();
  fc.stripe_size = kSegment;
  fc.default_stripe_count = 2;
  fc.cache_capacity_per_ost = 0;  // every read goes to the disk
  fc.ost_read_bandwidth = 100.0 * kSegment;  // 10 ms per segment read
  struct Outcome {
    std::vector<std::byte> file;
    core::TcioDelegateStats stats;
    SimTime makespan = 0;
  };
  const auto run = [&](bool straggle) {
    fs::Filesystem fsys(fc);
    Outcome out;
    mpi::runJob(job(kDelegates + kClients, /*seed=*/43), [&](mpi::Comm& comm) {
      core::TcioConfig cfg = delegated(kDelegates);
      cfg.crash.enabled = true;
      cfg.crash.journal = true;
      cfg.crash.liveness_window = 0.03;
      if (straggle) {
        cfg.faults.enabled = true;
        cfg.faults.straggler_ost = 0;
        cfg.faults.straggler_multiplier = 10.0;
      }
      runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
        const int c = s.clientComm().rank();
        constexpr unsigned kFlags = fs::kRead | fs::kWrite | fs::kCreate;
        {
          DFile f(ch, "fenced.dat", kFlags);
          const Offset base = static_cast<Offset>(c) * 2 * kSegment;
          f.writeAt(base, clientBlock(c, base, 2 * kSegment));
          f.close();
        }
        DFile f(ch, "fenced.dat", kFlags);
        s.clientComm().barrier();
        if (c == 1) {
          RequestHeader h = requestHeader(Op::kGet, comm.rank(), /*seq=*/1000,
                                          fileKey("fenced.dat"));
          h.payload_bytes = kSegment;
          h.n_extents = 1;
          const std::vector<std::byte> msg =
              descriptor(h, {{0, 0, kSegment}}, "");
          comm.send(msg.data(), static_cast<Bytes>(msg.size()), 0, kReqTag);
          ReplyMsg accepted;
          ReplyMsg served;
          comm.recv(&accepted, sizeof(accepted), 0, kRepTag);
          comm.recv(&served, sizeof(served), 0, kRepTag);
          ASSERT_EQ(accepted.kind, ReplyKind::kAccepted);
          ASSERT_EQ(served.kind, ReplyKind::kGetData);
          RequestHeader ack =
              requestHeader(Op::kGetAck, comm.rank(), h.seq, h.file_key);
          ack.aux = accepted.value;
          comm.send(&ack, sizeof(ack), 0, kReqTag);
        } else {
          comm.proc().advance(1.0e-6);  // land behind the slow get
          f.writeAt(kPatchAt, clientBlock(9, kPatchAt, kPatch));
        }
        EXPECT_EQ(f.close(), 2 * kClients * kSegment);  // the file's size
        out.makespan = comm.proc().now();
      }, &out.stats);
    });
    out.file = peekBytes(fsys, "fenced.dat", 0, fsys.peekSize("fenced.dat"));
    return out;
  };

  const Outcome healthy = run(/*straggle=*/false);
  EXPECT_EQ(healthy.stats.delegates_crashed, 0);
  EXPECT_EQ(healthy.stats.deferred_resubmissions, 0);
  std::vector<std::byte> want;
  for (int c = 0; c < kClients; ++c) {
    const std::vector<std::byte> block =
        clientBlock(c, static_cast<Offset>(c) * 2 * kSegment, 2 * kSegment);
    want.insert(want.end(), block.begin(), block.end());
  }
  const std::vector<std::byte> patch = clientBlock(9, kPatchAt, kPatch);
  std::copy(patch.begin(), patch.end(), want.begin() + kPatchAt);
  EXPECT_EQ(healthy.file, want);

  const Outcome a = run(/*straggle=*/true);
  EXPECT_EQ(a.stats.delegates_crashed, 1) << "delegate 0 was not fenced";
  EXPECT_EQ(a.stats.shards_adopted, 1);
  EXPECT_EQ(a.stats.deferred_resubmissions, 1);
  EXPECT_EQ(a.file, healthy.file) << "the fenced run lost or changed bytes";

  const Outcome b = run(/*straggle=*/true);
  EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof(a.stats)), 0);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.file, b.file);
}

// -- Churn workload ------------------------------------------------------------

TEST(DelegateChurnTest, OpenWriteCloseChurnMatchesBaseline) {
  workload::ChurnConfig ccfg;
  ccfg.rounds = 3;
  ccfg.block_bytes = 256;
  ccfg.blocks_per_round = 2;
  ccfg.tcio.segment_size = kSegment;
  ccfg.tcio.segments_per_rank = 8;
  ccfg.tcio.delegate_ranks = -1;  // baseline even if TCIO_DELEGATES is set

  // Baseline: every rank churns through core::File.
  fs::Filesystem base_fs(fsCfg());
  mpi::runJob(job(6), [&](mpi::Comm& comm) {
    const workload::ChurnResult r = workload::runChurn(comm, base_fs, ccfg);
    EXPECT_EQ(r.files, ccfg.rounds);
    EXPECT_EQ(r.delegate.submissions, 0);
  });

  // Delegate mode: 2 servers, 4 clients, a tight queue to exercise
  // admission under churn.
  fs::Filesystem del_fs(fsCfg());
  workload::ChurnConfig dcfg = ccfg;
  dcfg.tcio.delegate_ranks = 2;
  dcfg.tcio.delegate.queue_capacity = 2;
  mpi::runJob(job(6), [&](mpi::Comm& comm) {
    const workload::ChurnResult r = workload::runChurn(comm, del_fs, dcfg);
    EXPECT_GT(r.delegate.submissions, 0);
    EXPECT_GT(r.delegate.batches, 0);
  });

  // Same deterministic bytes on both paths — note the baseline writes with
  // 6 ranks while delegate mode writes with the 4 clients, so compare each
  // against the generator, not against each other.
  for (int r = 0; r < ccfg.rounds; ++r) {
    const std::string name = workload::churnFileName(ccfg, r);
    for (int c = 0; c < 4; ++c) {
      for (int b = 0; b < ccfg.blocks_per_round; ++b) {
        const Offset off =
            (static_cast<Offset>(c) * ccfg.blocks_per_round + b) *
            ccfg.block_bytes;
        std::vector<std::byte> want(
            static_cast<std::size_t>(ccfg.block_bytes));
        for (std::int64_t i = 0; i < ccfg.block_bytes; ++i) {
          want[static_cast<std::size_t>(i)] = workload::churnByte(r, c, b, i);
        }
        EXPECT_EQ(peekBytes(base_fs, name, off, ccfg.block_bytes), want);
        EXPECT_EQ(peekBytes(del_fs, name, off, ccfg.block_bytes), want);
      }
    }
  }
}

TEST(DelegateChurnTest, EnvironmentDrivenDelegateChurn) {
  // The TCIO_DELEGATES path the CI legs use: config says 0, env says 2.
  workload::ChurnConfig ccfg;
  ccfg.rounds = 2;
  ccfg.block_bytes = 128;
  ccfg.tcio.segment_size = kSegment;
  ccfg.tcio.segments_per_rank = 8;
  ::setenv("TCIO_DELEGATES", "2", 1);
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(6), [&](mpi::Comm& comm) {
    const workload::ChurnResult r = workload::runChurn(comm, fsys, ccfg);
    EXPECT_GT(r.delegate.submissions, 0);
  });
  ::unsetenv("TCIO_DELEGATES");
  const std::map<int, std::int64_t> ops = fsys.opsByClient();
  for (const auto& [rank, n] : ops) EXPECT_LT(rank, 2);
}

}  // namespace
}  // namespace tcio::delegate
