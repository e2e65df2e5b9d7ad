#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ios>
#include <numeric>
#include <utility>
#include <vector>

#include "mpi/mpi.h"

namespace tcio::mpi {
namespace {

JobConfig cfg(int p) {
  JobConfig c;
  c.num_ranks = p;
  return c;
}

TEST(P2pTest, SendRecvMovesBytes) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> data{1, 2, 3, 4};
      comm.send(data.data(), 16, 1, 7);
    } else {
      std::vector<int> got(4, 0);
      const RecvStatus st = comm.recv(got.data(), 16, 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count, 16);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
    }
  });
}

TEST(P2pTest, RecvBeforeSendBlocksUntilDelivery) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      double x = 3.5;
      comm.proc().advance(1.0);  // send late
      comm.send(&x, 8, 1, 0);
    } else {
      double x = 0;
      comm.recv(&x, 8, 0, 0);
      EXPECT_DOUBLE_EQ(x, 3.5);
      EXPECT_GT(comm.proc().now(), 1.0);  // waited for the late sender
    }
  });
}

TEST(P2pTest, UnexpectedMessageBuffered) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      int v = 42;
      comm.send(&v, 4, 1, 3);
    } else {
      comm.proc().advance(5.0);  // receive long after arrival
      int v = 0;
      comm.recv(&v, 4, 0, 3);
      EXPECT_EQ(v, 42);
      EXPECT_DOUBLE_EQ(comm.proc().now(), 5.0);  // no extra waiting
    }
  });
}

TEST(P2pTest, TagMatchingSelectsCorrectMessage) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(&a, 4, 1, 10);
      comm.send(&b, 4, 1, 20);
    } else {
      int v = 0;
      comm.recv(&v, 4, 0, 20);  // out of arrival order
      EXPECT_EQ(v, 2);
      comm.recv(&v, 4, 0, 10);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(P2pTest, AnySourceAnyTag) {
  runJob(cfg(3), [](Comm& comm) {
    if (comm.rank() != 0) {
      int v = comm.rank() * 100;
      comm.send(&v, 4, 0, comm.rank());
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        const RecvStatus st = comm.recv(&v, 4, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        seen += st.source;
      }
      EXPECT_EQ(seen, 3);  // ranks 1 and 2
    }
  });
}

TEST(P2pTest, FifoOrderPerPeerAndTag) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send(&i, 4, 1, 0);
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        comm.recv(&v, 4, 0, 0);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(P2pTest, IsendIrecvWaitAll) {
  runJob(cfg(2), [](Comm& comm) {
    constexpr int kN = 8;
    if (comm.rank() == 0) {
      std::vector<int> bufs(kN);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i) {
        bufs[static_cast<size_t>(i)] = i * i;
        reqs.push_back(comm.isend(&bufs[static_cast<size_t>(i)], 4, 1, i));
      }
      comm.waitAll(reqs);
    } else {
      std::vector<int> got(kN, -1);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i) {
        reqs.push_back(comm.irecv(&got[static_cast<size_t>(i)], 4, 0, i));
      }
      comm.waitAll(reqs);
      for (int i = 0; i < kN; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i * i);
    }
  });
}

TEST(P2pTest, TruncationIsAnError) {
  EXPECT_THROW(runJob(cfg(2),
                      [](Comm& comm) {
                        if (comm.rank() == 0) {
                          std::vector<std::byte> big(100);
                          comm.send(big.data(), 100, 1, 0);
                        } else {
                          std::byte small[10];
                          comm.recv(small, 10, 0, 0);
                        }
                      }),
               Error);
}

TEST(P2pTest, MissingSenderDeadlocks) {
  EXPECT_THROW(runJob(cfg(2),
                      [](Comm& comm) {
                        int v;
                        if (comm.rank() == 1) comm.recv(&v, 4, 0, 0);
                      }),
               DeadlockError);
}

TEST(P2pTest, LargeMessageTakesLongerThanSmall) {
  SimTime small_t = 0, large_t = 0;
  runJob(cfg(2), [&](Comm& comm) {
    std::vector<std::byte> buf(1 << 20);
    if (comm.rank() == 0) {
      comm.send(buf.data(), 1024, 1, 0);
      comm.send(buf.data(), 1 << 20, 1, 1);
    } else {
      const SimTime t0 = comm.proc().now();
      comm.recv(buf.data(), 1 << 20, 0, 0);
      small_t = comm.proc().now() - t0;
      const SimTime t1 = comm.proc().now();
      comm.recv(buf.data(), 1 << 20, 0, 1);
      large_t = comm.proc().now() - t1;
    }
  });
  EXPECT_GT(large_t, small_t);
}

TEST(P2pTest, SelfSendViaBufferedSemantics) {
  runJob(cfg(1), [](Comm& comm) {
    int v = 5;
    comm.send(&v, 4, 0, 0);
    int got = 0;
    comm.recv(&got, 4, 0, 0);
    EXPECT_EQ(got, 5);
  });
}

// -- recvOwned: a receive that keeps the message's own buffer ---------------

/// Rank 0 sends `n` patterned bytes to rank 1 at virtual time `send_at`;
/// rank 1 posts its receive at `recv_at`, with recv or recvOwned. Returns
/// the job's engine events; `finish` gets rank 1's clock after the receive.
std::int64_t patternedExchange(bool owned, SimTime send_at, SimTime recv_at,
                               Bytes n, SimTime* finish) {
  return runJob(cfg(2),
                [&](Comm& comm) {
                  std::vector<std::byte> bytes(static_cast<std::size_t>(n));
                  for (std::size_t i = 0; i < bytes.size(); ++i) {
                    bytes[i] = static_cast<std::byte>(i * 7 + 3);
                  }
                  if (comm.rank() == 0) {
                    comm.proc().advance(send_at);
                    comm.send(bytes.data(), n, 1, 5);
                    return;
                  }
                  comm.proc().advance(recv_at);
                  RecvStatus st;
                  if (owned) {
                    const RawBytes got = comm.recvOwned(n, 0, 5, &st);
                    ASSERT_EQ(got.size(), bytes.size());
                    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                                           got.data()));
                  } else {
                    std::vector<std::byte> got(bytes.size());
                    st = comm.recv(got.data(), n, 0, 5);
                    EXPECT_EQ(got, bytes);
                  }
                  EXPECT_EQ(st.source, 0);
                  EXPECT_EQ(st.tag, 5);
                  EXPECT_EQ(st.count, n);
                  *finish = comm.proc().now();
                })
      .engine_events;
}

TEST(P2pTest, RecvOwnedMatchesRecvWhetherSentBeforeOrAfterPosting) {
  // Sent long before the receive is posted (the unexpected envelope's
  // buffer moves out), then long after (a fresh buffer takes the send).
  for (const auto& [send_at, recv_at] :
       {std::pair{0.0, 1.0e-3}, std::pair{1.0e-3, 0.0}}) {
    SimTime recv_finish = 0, owned_finish = 0;
    const std::int64_t recv_events =
        patternedExchange(false, send_at, recv_at, 3000, &recv_finish);
    const std::int64_t owned_events =
        patternedExchange(true, send_at, recv_at, 3000, &owned_finish);
    EXPECT_EQ(owned_events, recv_events);
    EXPECT_EQ(owned_finish, recv_finish);
    EXPECT_GE(owned_finish, std::max(send_at, recv_at));
  }
}

TEST(P2pTest, RecvOwnedOfAnEmptyMessageHoldsNoBytes) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(nullptr, 0, 1, 2);
    } else {
      EXPECT_EQ(comm.recvOwned(8, 0, 2).size(), 0u);
    }
  });
}

TEST(P2pTest, RecvOwnedTruncationIsAnError) {
  for (const bool posted_first : {false, true}) {
    EXPECT_THROW(runJob(cfg(2),
                        [&](Comm& comm) {
                          if (comm.rank() == 0) {
                            if (posted_first) comm.proc().advance(1.0e-3);
                            std::vector<std::byte> big(100);
                            comm.send(big.data(), 100, 1, 0);
                          } else {
                            if (!posted_first) comm.proc().advance(1.0e-3);
                            comm.recvOwned(10, 0, 0);
                          }
                        }),
                 Error);
  }
}

// -- recvUntil: the polling receive of the liveness protocol and the delegate
// arrival probe ---------------------------------------------------------------

TEST(P2pTest, RecvUntilEmptyProbeIsOneSectionAndPostsNothing) {
  // The same body with and without an empty probe whose deadline is now.
  const auto events = [](bool probe) {
    return runJob(cfg(1), [probe](Comm& comm) {
             int v = 7;
             if (probe) {
               EXPECT_FALSE(comm.recvUntil(&v, 4, kAnySource, 0,
                                           comm.proc().now(), 1.0e-6));
             }
             EXPECT_EQ(v, 7);
             EXPECT_EQ(comm.proc().now(), 0.0);
             comm.proc().atomic([&] {
               EXPECT_TRUE(
                   comm.world().mailbox(comm.proc().rank()).posted.empty());
             });
           })
        .engine_events;
  };
  EXPECT_EQ(events(true) - events(false), 1);
}

TEST(P2pTest, RecvUntilTakesAMessageSentAtTheDeadline) {
  constexpr SimTime kDeadline = 0x1p-10;  // a whole number of polls
  runJob(cfg(2), [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.proc().advance(kDeadline);
      const int v = 42;
      comm.send(&v, 4, 1, 5);
    } else {
      int v = 0;
      RecvStatus st;
      // Rank 0's send at the deadline runs before rank 1's look at the same
      // virtual time, so the last look finds it.
      EXPECT_TRUE(comm.recvUntil(&v, 4, 0, 5, kDeadline, 0x1p-12, &st));
      EXPECT_EQ(v, 42);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.count, 4);
      EXPECT_GT(comm.proc().now(), kDeadline);  // delivery takes a latency
    }
  });
}

TEST(P2pTest, RecvUntilWithdrawLeavesALateMessageToALaterRecv) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.proc().advance(2.0e-3);
      const int v = 42;
      comm.send(&v, 4, 1, 5);
    } else {
      int abandoned = -1;
      EXPECT_FALSE(comm.recvUntil(&abandoned, 4, 0, 5, 1.0e-3, 2.5e-4));
      int v = 0;
      comm.recv(&v, 4, 0, 5);
      EXPECT_EQ(v, 42);
      EXPECT_EQ(abandoned, -1);  // the withdrawn receive was never filled
    }
  });
}

TEST(P2pTest, RecvUntilPollLoopFinishTimes) {
  // Polls of 0.3 ms against a 1 ms deadline: a timeout ends exactly where
  // the clamped steps sum to, and a message sent at 0.45 ms is found by the
  // look at 0.6 ms. Both times are pinned bit for bit.
  SimTime timed_out = 0;
  SimTime found = 0;
  runJob(cfg(3), [&](Comm& comm) {
    int v = 0;
    if (comm.rank() == 0) {
      comm.proc().advance(4.5e-4);
      v = 9;
      comm.send(&v, 4, 2, 1);
    } else if (comm.rank() == 1) {
      EXPECT_FALSE(comm.recvUntil(&v, 4, 0, 1, 1.0e-3, 3.0e-4));
      timed_out = comm.proc().now();
    } else {
      EXPECT_TRUE(comm.recvUntil(&v, 4, 0, 1, 1.0e-3, 3.0e-4));
      EXPECT_EQ(v, 9);
      found = comm.proc().now();
    }
  });
  EXPECT_EQ(timed_out, 0x1.0624dd2f1a9fcp-10) << std::hexfloat << timed_out;
  EXPECT_EQ(found, 0x1.3a92a30553261p-11) << std::hexfloat << found;
}

}  // namespace
}  // namespace tcio::mpi
